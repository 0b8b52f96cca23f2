"""Shared fixtures: reference topologies and the seeded random suites."""

import dataclasses
import json
import random

import pytest

from collsched import (
    COMPUTE,
    SWITCH,
    Link,
    Node,
    Topology,
    random_eulerian_topology,
    synth_topology,
)

# Seeds for the randomized cross-checking suite.  200 instances keeps the
# oracle-equivalence sweep meaningful while the whole run stays fast.
SUITE_SEEDS = range(200)

# Seeds for the clustered suite.  Every `random_eulerian_topology` seed has
# its optimum at a cut that leaves out one node, so only these topologies
# make the search jump past its starting cut.
CLUSTERED_SEEDS = range(100)


def clustered_eulerian_topology(seed: int, max_nodes: int = 12) -> Topology:
    """Deterministic random Eulerian topology with a bottleneck between
    clusters of compute nodes.

    Dense cycles run both ways inside each cluster, and one or two thin
    cycles join one compute node of every cluster, so the optimal cut
    usually leaves out a whole cluster.  Some clusters route their cycle
    through a switch.  Superposed cycles keep every node balanced, and the
    joining cycle makes the graph strongly connected.
    """
    rng = random.Random(seed)
    nodes: list[Node] = []
    clusters: list[list[str]] = []
    for c in range(rng.randint(2, 4)):
        members = [f"c{c}_{i}" for i in range(rng.randint(2, 4))]
        if rng.random() < 0.3:
            members.insert(rng.randrange(1, len(members) + 1), f"w{c}")
        if len(nodes) + len(members) > max_nodes:
            break
        for m in members:
            if m.startswith("w"):
                nodes.append(
                    Node(m, SWITCH, multicast=rng.random() < 0.5, aggregation=rng.random() < 0.5)
                )
            else:
                nodes.append(Node(m, COMPUTE))
        clusters.append(members)
    weights: dict[tuple[str, str], int] = {}

    def add_cycle(order: list[str], w: int) -> None:
        for a, b in zip(order, order[1:] + order[:1]):
            weights[(a, b)] = weights.get((a, b), 0) + w

    for members in clusters:
        add_cycle(members, rng.randint(3, 8))
        if rng.random() < 0.7:
            add_cycle(members[::-1], rng.randint(1, 8))
    # A lone cluster (the next one would pass max_nodes) has nothing to
    # join; its joining "cycle" would be a self-loop.
    if len(clusters) > 1:
        for _ in range(rng.randint(1, 2)):
            joints = [rng.choice([m for m in ms if not m.startswith("w")]) for ms in clusters]
            add_cycle(joints, rng.randint(1, 2))
    return Topology(nodes, [Link(a, b, w) for (a, b), w in sorted(weights.items())])


def _old_layout_root(root: str, other: str) -> dict:
    path = {"path": [root, other], "multiplicity": 1}
    edge = {"src": root, "dst": other, "paths": [path]}
    return {"root": root, "batches": [{"multiplicity": 1, "edges": [edge], "pruned": []}]}


# The allgather on `synth_topology("ring", n=2, bw=1)` as the old indented
# layout wrote it, byte for byte: edges, paths and pruned hops as objects,
# and no witness.
# Its parser is gone, so this file must be refused.
OLD_LAYOUT_SCHEDULE = json.dumps(
    {
        "collective": "allgather",
        "num_compute_nodes": 2,
        "trees_per_root": 1,
        "optimal_inv_x": "1/1",
        "tree_bandwidth": "1/1",
        "scale_U": "1/1",
        "exact_bound": True,
        "roots": [_old_layout_root("c1", "c2"), _old_layout_root("c2", "c1")],
    },
    indent=2,
) + "\n"

# The same allgather as the previous compact layout wrote it, byte for
# byte: every batch listed its pruned hops next to whole paths.  Read as
# the current layout it would be an unpruned schedule, so it is refused.
PREVIOUS_LAYOUT_SCHEDULE = (
    '{"collective":"allgather","num_compute_nodes":2,"trees_per_root":1,'
    '"optimal_inv_x":"1/1","tree_bandwidth":"1/1","scale_U":"1/1","exact_bound":true,'
    '"witness":["c2"],"roots":[{"root":"c1","batches":[{"multiplicity":1,'
    '"edges":[["c1","c2",[[["c1","c2"],1]]]],"pruned":[]}]},{"root":"c2","batches":'
    '[{"multiplicity":1,"edges":[["c2","c1",[[["c2","c1"],1]]]],"pruned":[]}]}]}\n'
)


def catch_up(g, state: list) -> dict:
    """Bring `state` to the edits of the flow graph `g`, as `keep` does
    before it repairs a flow, and return the imbalance left by vertex name,
    balanced vertices left out: d at a and -d at b for a drop of d units on
    an arc (a, b)."""
    return {g._names[v]: d for v, d in g._catch_up(state).items()}


def flag_free(t: Topology) -> Topology:
    """t with every multicast and aggregation flag cleared: the network on
    which `generate` returns its schedules unpruned."""
    nodes = [dataclasses.replace(n, multicast=False, aggregation=False) for n in t.nodes]
    return Topology(nodes, t.links)


@pytest.fixture(scope="session")
def fig3a():
    """Two boxes of four GPUs each: every GPU has a 10-wide link pair to its
    box switch and a 1-wide pair to the shared global switch."""
    return synth_topology("boxes", boxes=2, gpus_per_box=4, intra=10, inter=1)


@pytest.fixture(scope="session")
def fig3a_multicast(fig3a):
    """Same network with every switch flagged multicast- and
    aggregation-capable."""
    nodes = [
        dataclasses.replace(n, multicast=True, aggregation=True)
        if n.kind == SWITCH
        else n
        for n in fig3a.nodes
    ]
    return Topology(nodes, fig3a.links)


@pytest.fixture(scope="session")
def two_node():
    """Two compute nodes joined by bandwidth-3 links both ways."""
    return synth_topology("ring", n=2, bw=3, bidirectional=False)


@pytest.fixture(scope="session")
def ring4():
    """Four compute nodes in a unidirectional unit-bandwidth cycle."""
    return synth_topology("ring", n=4, bw=1)


@pytest.fixture(scope="session")
def random_suite():
    """The seeded random Eulerian topologies used by the sweeping tests."""
    return [random_eulerian_topology(seed) for seed in SUITE_SEEDS]


@pytest.fixture(scope="session")
def clustered_suite():
    """The seeded clustered topologies, whose optima mostly cut off a cluster."""
    return [clustered_eulerian_topology(seed) for seed in CLUSTERED_SEEDS]
