"""Workload inputs and the references each op is checked against.

Nothing here imports `collsched` at module level: the caller passes the
package in, so that importing it can be timed as part of set-up.  Inputs
are written as topology JSON by this module's own writer, so their bytes
(and the pinned digest over them) do not depend on the library's
serializer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("boxes-ag", "fattree-ar", "random-mix")

# random-mix draws its topologies from this fixed seed, so every run
# compiles the same set and the pinned digest holds; the run's own --seed
# only orders the ops.
RANDOM_MIX_SEED = 2402
RANDOM_MIX_SIZE = 200
RANDOM_MIX_MAX_NODES = 16
# Share of random-mix topologies whose optimal cut leaves out more than one
# compute node.  Measured 0.5 when pinned; below this the workload no
# longer exercises non-trivial bottlenecks and the run refuses to start.
MIN_MULTI_NODE_SHARE = 0.4


@dataclasses.dataclass(frozen=True)
class OpSpec:
    """One compile: topology `topo` (an index into Inputs.texts) through
    `collective`, optionally capped at `fixed_k` trees per root."""

    topo: int
    collective: str
    fixed_k: int | None = None


@dataclasses.dataclass(frozen=True)
class Inputs:
    texts: tuple[str, ...]
    ops: tuple[OpSpec, ...]

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.texts:
            h.update(text.encode())
        for op in self.ops:
            h.update(f"{op.topo} {op.collective} {op.fixed_k}\n".encode())
        return h.hexdigest()


def topology_json(t) -> str:
    """Canonical topology document in the format `parse_topology` reads."""
    nodes = []
    for n in t.nodes:
        entry = {"id": n.id, "kind": n.kind}
        if n.kind == "switch":
            entry["multicast"] = n.multicast
            entry["aggregation"] = n.aggregation
        nodes.append(entry)
    links = [{"src": l.src, "dst": l.dst, "bandwidth": l.bandwidth} for l in t.links]
    return json.dumps({"nodes": nodes, "links": links}, sort_keys=True) + "\n"


def _capable(cs, t):
    """The same network with every switch multicast- and aggregation-capable."""
    nodes = [
        dataclasses.replace(n, multicast=True, aggregation=True)
        if n.kind == cs.SWITCH
        else n
        for n in t.nodes
    ]
    return cs.Topology(nodes, t.links)


def clustered_topology(cs, seed: int, max_nodes: int = RANDOM_MIX_MAX_NODES):
    """Random Eulerian topology with a bottleneck between clusters.

    Dense cycles run inside each cluster and thin cycles join one member of
    every cluster, so the optimal cut usually cuts a whole cluster off
    instead of one node.  Some clusters hold a switch on their cycle.
    Balance comes from superposing directed cycles, as in
    `random_eulerian_topology`.
    """
    rng = random.Random(seed)
    clusters: list[list[str]] = []
    nodes = []
    count = 0
    for c in range(rng.randint(2, 4)):
        size = rng.randint(2, 3)
        if count + size + 1 > max_nodes:
            break
        members = [f"c{c}_{i}" for i in range(size)]
        nodes += [cs.Node(m, cs.COMPUTE) for m in members]
        if rng.random() < 0.5:
            w = f"w{c}"
            nodes.append(
                cs.Node(w, cs.SWITCH, multicast=rng.random() < 0.5, aggregation=rng.random() < 0.5)
            )
            members.insert(rng.randrange(1, size + 1), w)
        clusters.append(members)
        count += len(members)
    weights: dict[tuple[str, str], int] = {}

    def add_cycle(order, w):
        for a, b in zip(order, order[1:] + order[:1]):
            weights[(a, b)] = weights.get((a, b), 0) + w

    for members in clusters:
        add_cycle(members, rng.randint(4, 8))
        if rng.random() < 0.5:
            add_cycle(members[::-1], rng.randint(1, 8))
    for _ in range(rng.randint(1, 2)):
        add_cycle([rng.choice([m for m in ms if m.startswith("c")]) for ms in clusters], 1)
    links = [cs.Link(a, b, w) for (a, b), w in sorted(weights.items())]
    return cs.Topology(nodes, links)


def build(cs, name: str, small: bool = False) -> Inputs:
    """The workload's topologies as JSON texts, and its ops.

    `small` gives a reduced version of the same shape that compiles in a
    fraction of a second, for the benchmark's own tests.
    """
    if name == "boxes-ag":
        params = dict(boxes=2, gpus_per_box=3) if small else dict(boxes=8, gpus_per_box=4)
        t = _capable(cs, cs.synth_topology("boxes", intra=8, inter=1, **params))
        return Inputs((topology_json(t),), (OpSpec(0, "allgather"),))
    if name == "fattree-ar":
        params = dict(pods=2, gpus=4) if small else dict(pods=8, gpus=32)
        t = _capable(
            cs, cs.synth_topology("fat-tree", spines=4, leaf_bw=4, spine_bw=3, **params)
        )
        return Inputs((topology_json(t),), (OpSpec(0, "allreduce"),))
    if name == "random-mix":
        rng = random.Random(RANDOM_MIX_SEED)
        size = 8 if small else RANDOM_MIX_SIZE
        max_nodes = 8 if small else RANDOM_MIX_MAX_NODES
        texts, ops = [], []
        for i in range(size):
            seed = rng.randrange(2**32)
            if i % 2:
                t = clustered_topology(cs, seed, max_nodes)
            else:
                t = cs.random_eulerian_topology(seed, max_nodes=max_nodes)
            texts.append(topology_json(t))
            ops += [
                OpSpec(i, "allgather"),
                OpSpec(i, "reduce_scatter"),
                OpSpec(i, "allreduce"),
                OpSpec(i, "allgather", rng.choice((2, 3))),
            ]
        return Inputs(tuple(texts), tuple(ops))
    raise ValueError(f"unknown workload {name!r}")


@dataclasses.dataclass(frozen=True)
class Reference:
    """What a topology's compiles must agree with: the optimal ratio from
    an enumeration of cuts, and the smallest link bandwidth (which bounds
    how far a fixed-k result may sit above the optimum).  `multi_node_cut`
    says whether the optimal cut leaves out more than one compute node."""

    inv_x_star: Fraction
    min_bandwidth: int
    multi_node_cut: bool


def _cut_ratio(t, outside: set[str]) -> Fraction | None:
    """|C inside| / bandwidth entering `outside`, or None if not a cut."""
    inside_compute = sum(1 for c in t.compute_ids if c not in outside)
    entering = sum(bw for (a, b), bw in t.capacity.items() if a not in outside and b in outside)
    if inside_compute in (0, t.num_compute) or entering == 0:
        return None
    return Fraction(inside_compute, entering)


def structured_reference(t) -> Reference:
    """Largest ratio over the cuts that leave out one compute node, or one
    switch with its compute neighbours (a box, a pod).  Every cut bounds
    the optimum from below, so a validated schedule meeting this value
    proves it optimal."""
    candidates = [{c} for c in t.compute_ids]
    for w in t.switch_ids:
        candidates.append({w} | {v for v, _ in t.out_adj[w] if t.is_compute(v)})
    ratio, outside = max(
        ((r, s) for s in candidates if (r := _cut_ratio(t, s)) is not None),
        key=lambda cut: cut[0],
    )
    multi = sum(t.is_compute(v) for v in outside) > 1
    return Reference(ratio, min(t.capacity.values()), multi)


def brute_force_reference(cs, t) -> Reference:
    ratio, witness = cs.brute_force_bottleneck(t)
    left_out = sum(1 for c in t.compute_ids if c not in witness.S)
    return Reference(ratio, min(t.capacity.values()), left_out > 1)


def references(cs, name: str, inputs: Inputs) -> list[Reference]:
    topologies = [cs.parse_topology(text) for text in inputs.texts]
    if name == "random-mix":
        return [brute_force_reference(cs, t) for t in topologies]
    return [structured_reference(t) for t in topologies]
