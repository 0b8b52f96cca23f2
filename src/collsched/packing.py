"""Spanning out-tree packing on the switch-free logical graph.

Every compute node must root k trees, each spanning all compute nodes,
with every logical arc used by at most its capacity worth of tree
multiplicity.  Trees are grown greedily in batches: a batch is a set of
identically-shaped partial trees (multiplicity m) sharing a root.  An arc
(x, y) from inside the batch to a new vertex may be added at multiplicity
mu when doing so provably leaves the remaining capacities packable:

    mu = min{ g(x,y), m, F(x,y; gadget graph) - sum of other multiplicities }

where the gadget graph augments the residual logical graph, per other
batch i, with a node s_i, an arc x -> s_i of capacity m_i, and unbounded
arcs s_i -> each member of batch i.  Two exact shortcuts keep the gadget
graph small: a batch already spanning everything always contributes m_i
to the flow (counted directly, no gadget), and a still-singleton batch's
gadget collapses to the single arc x -> root_i (omitted entirely when its
root is x, where it can never cross an x/y cut).

When 0 < mu < m the batch splits: the new arc extends mu of the copies,
the rest continue as a separate batch.  Batches are processed one root at
a time (roots in sorted order), which keeps almost every other batch in
one of the two shortcut forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CollschedError, NoAddableEdge
from .maxflow import INF, FlowGraph, fresh_name
from .topology import Topology


@dataclass
class TreeBatch:
    """m identically-shaped (partial) out-trees rooted at `root`."""

    root: str
    multiplicity: int
    members: set[str]
    edges: list[tuple[str, str]]


@dataclass
class Forest:
    """Packing state: all batches plus the residual capacities of the
    compute-only network `lt` left by switch removal."""

    lt: Topology
    batches: list[TreeBatch]
    residual: dict[tuple[str, str], int]
    mu_evaluations: int = 0

    def batches_for(self, root: str) -> list[TreeBatch]:
        return [b for b in self.batches if b.root == root]


def compute_mu(forest: Forest, batch: TreeBatch, arc: tuple[str, str]) -> int:
    """Largest multiplicity at which `batch` may take `arc` while the rest
    of the forest stays completable.  See the module docstring for the
    flow formulation; the flow is evaluated with an early-termination cap,
    which cannot change the final min."""
    x, y = arc
    g_xy = forest.residual.get(arc, 0)
    if g_xy < 1:
        raise CollschedError(f"arc {arc} has no residual capacity")
    if x not in batch.members or y in batch.members:
        raise CollschedError(f"arc {arc} does not extend the batch at {batch.root}")
    forest.mu_evaluations += 1
    mu0 = min(g_xy, batch.multiplicity)
    n = forest.lt.num_compute
    vertices = list(forest.lt.compute_ids)
    taken = set(vertices)
    arcs: list[tuple[str, str, object]] = [
        (a, b, c) for (a, b), c in forest.residual.items() if c > 0
    ]
    sum_other = 0
    free = 0
    for other in forest.batches:
        if other is batch:
            continue
        m = other.multiplicity
        sum_other += m
        size = len(other.members)
        if size == n:
            free += m
        elif size == 1:
            if other.root != x:
                arcs.append((x, other.root, m))
        else:
            hub = fresh_name(f"b{len(vertices)}", taken)
            taken.add(hub)
            vertices.append(hub)
            arcs.append((x, hub, m))
            for member in sorted(other.members):
                arcs.append((hub, member, INF))
    g = FlowGraph.from_arcs(vertices, arcs)
    flow = g.run(x, y, limit=sum_other + mu0 - free) + free
    return max(0, min(mu0, flow - sum_other))


def pack_spanning_trees(lt: Topology, k: int) -> Forest:
    """Pack k spanning out-trees per compute node into `lt`, the
    compute-only network that `remove_switches` returns for the same k.

    Batches start as one singleton per root (multiplicity k) and are grown
    to completion root by root; frontier arcs are tried in sorted order and
    a full frontier of zero mu values raises NoAddableEdge (the capacity
    invariants rule this out for the k the network was split for, so it
    flags an upstream bug or a k that `lt` cannot carry).
    """
    if k < 1:
        raise CollschedError(f"tree count must be >= 1, got {k}")
    if lt.switch_ids:
        raise CollschedError("packing takes the compute-only network remove_switches returns")
    n = lt.num_compute
    residual = dict(lt.capacity)
    forest = Forest(
        lt=lt,
        batches=[
            TreeBatch(root=r, multiplicity=k, members={r}, edges=[])
            for r in lt.compute_ids
        ],
        residual=residual,
    )
    i = 0
    while i < len(forest.batches):
        batch = forest.batches[i]
        # While one batch grows, every quantity entering mu only shrinks
        # (residual capacities, the batch's own multiplicity; a split copy
        # raises the flow by at most what it adds to the other-multiplicity
        # sum), so an arc once at mu = 0 stays there: skip it for the rest
        # of this batch instead of re-probing every step.
        dead: set[tuple[str, str]] = set()
        while len(batch.members) < n:
            frontier = sorted(
                pair
                for pair, c in residual.items()
                if c > 0 and pair[0] in batch.members and pair[1] not in batch.members
            )
            added = False
            for arc in frontier:
                if arc in dead:
                    continue
                mu = compute_mu(forest, batch, arc)
                if mu == 0:
                    dead.add(arc)
                    continue
                if mu < batch.multiplicity:
                    copy = TreeBatch(
                        root=batch.root,
                        multiplicity=batch.multiplicity - mu,
                        members=set(batch.members),
                        edges=list(batch.edges),
                    )
                    forest.batches.insert(i + 1, copy)
                    batch.multiplicity = mu
                batch.edges.append(arc)
                batch.members.add(arc[1])
                residual[arc] -= mu
                if residual[arc] == 0:
                    del residual[arc]
                added = True
                break
            if not added:
                raise NoAddableEdge(batch.root, set(batch.members), frontier)
        i += 1
    return forest
