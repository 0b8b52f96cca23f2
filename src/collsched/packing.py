"""Spanning out-tree packing on the switch-free logical graph.

Every compute node must root k trees, each spanning all compute nodes,
with every logical arc used by at most its capacity worth of tree
multiplicity.  Trees are grown greedily in batches: a batch is a set of
identically-shaped partial trees (multiplicity m) sharing a root.  An arc
(x, y) from inside the growing batch to a new vertex is added at

    mu = min{ mu0, least slack of a vertex set X with x in X, y not in X },

where mu0 = min(g(x, y), m), g is the capacity left and the slack of X
is g(X) minus the sum of m_j over the unfinished batches j other than the
growing one whose members T_j all lie in X: each of those still needs m_j
units across X.  That is the largest multiplicity that provably leaves
the rest of the forest packable (Edmonds 1973, "Edge-disjoint
branchings").

The sigma-graph.  One flow graph per pack holds every slack: the logical
graph's capacity left plus a super source sigma and one gadget per batch
in sigma, that is per unfinished batch other than the growing one.  It
starts as `source_network(lt, lt.capacity, k)`, sigma being its source: a
root's first batch, while still a singleton, has the arc sigma -> root_j
at m_j = k.  A split copy has a hub of its own, sigma -> hub_j at m_j and
hub_j -> member at m_j for each member of T_j (a singleton copy's hub has
one member, the same gadget as an arc sigma -> root_j).  A cut X holding
sigma pays m_j for j's gadget exactly when T_j is not inside X (the hub
takes the cheaper side), so its capacity is slack(X) + V, V being the sum
of m_j over the batches in sigma, at first the demand N*k.

Kept flows.  The flow graph is the sigma-graph as it stands: the packer
edits it in place as the forest changes.  The growing batch taking (x, y)
at mu lowers that arc by mu; a batch that starts growing lowers its
gadget's arcs to zero and V by its m; a split copy of m' trees grows a
hub of its own and raises V by m'.  For each compute sink y it keeps a
flow into y on that graph, made when y is first read, of V units from
sigma and maybe some from one other vertex.  A sink maps to the flow's
state alone, which records what its last push asked for.

One push per read.  A question the arc alone leaves open (below) is one
`FlowGraph.keep` push of y's kept flow to V units from sigma and mu0
from x, given only those supplies and y.  From the state's record it
routes the imbalance the edits since y's last read left, the change of
V, the undo of the previous question's units at its tail and mu0 new
units at x, together.  It leaves unrouted the most by which the
supplies inside a set X without y exceed X's capacity (max-flow min-cut).
When a flow sigma -> y of value V exists, a set holding sigma but not x
has capacity V or more, one holding x but not sigma at least its slack,
and one holding both slack(X) + V, so the push falls short by exactly

    mu0 - mu(x, y).

A full push certifies mu = mu0 and is y's kept flow from then on.  After
a shortfall, one more push from the same state takes x's mu0 units back
out, leaving a flow of value V.  If that push falls short too, there is
no flow sigma -> y of value V: some cut holding sigma but not y has
negative slack, the forest cannot be completed, and NoAddableEdge is
raised for the growing batch.  A take at the exact mu never gets there,
since mu is at most the slack of every cut the take lowers.

The arc alone.  Most questions need no flow at all.  A cut X holding
sigma and x but not y is crossed by the arc (x, y), so g(X) >= g(x, y),
and no batch holding y lies in X, so the batches X must carry need at
most V - held(y), held(y) being the sum of m_j over the batches in sigma
whose members include y.  So

    slack(X) >= g(x, y) - V + held(y),

and when that is at least mu0, mu = mu0, and no kept flow is pushed.
held(v) starts at k for each root; a batch that starts growing takes
its m off each of its members and a split copy adds its m to each of its
members.

Which arc.  Any frontier arc taken at its exact mu leaves the rest of the
forest packable, so the choice shapes the output, never its validity.  A
batch takes the first frontier arc, in sorted order, at mu = m, which
keeps it whole; only when there is none does it split, at the first arc
at mu > 0: the new arc extends mu of the copies, the rest continue as a
separate batch.  While a batch grows every quantity entering mu only
shrinks (capacities, the batch's own multiplicity; a split copy raises
the flow by at most what it adds to the other-multiplicity sum), so an
arc once at mu = 0 stays there, and until the batch next splits, which
lowers m, an arc found short, at 0 < mu < m, cannot reach m.  So the
search for an arc at mu = m probes only the arcs of capacity m or more
not found short since the last split, and the split probes the others up
to its arc; no arc is probed twice for one take.  Batches are processed
one root at a time (roots in sorted order).

The frontier.  The sigma-graph is the one record of the capacity left,
and the growing batch's frontier, the sorted arcs of positive capacity
from its members to the rest, is read off it when the batch starts and
kept as it grows: a take drops the arcs into the new member and adds the
new member's arcs out, and an arc probed at mu = 0 leaves it.  A pack
resolves every vertex to its graph index once: an arc is its rank among
the logical arcs sorted, so the frontier is a sorted list of ranks, in
the order of the arcs, and the graph is read and edited by index.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .errors import CollschedError, NoAddableEdge
from .maxflow import fresh_name, source_network
from .topology import Topology, require_tree_count


@dataclass
class TreeBatch:
    """m identically-shaped (partial) out-trees rooted at `root`."""

    root: str
    multiplicity: int
    members: set[str]
    edges: list[tuple[str, str]]


@dataclass
class Forest:
    """Packing state: all batches over the compute-only network `lt` left
    by switch removal."""

    lt: Topology
    batches: list[TreeBatch]
    mu_evaluations: int = 0


class _Baselines:
    """The sigma-graph of one pack, its kept flows into each sink v and the
    growing batch's frontier (see the module docstring); the forest's
    batches are the first ones, a singleton per root at multiplicity k, and
    every mu evaluation is counted on it.  An arc is its rank in `arcs`
    (see "The frontier")."""

    def __init__(self, forest: Forest, k: int) -> None:
        self.forest = forest
        self.lt = lt = forest.lt
        self.graph, self.source, self.value = source_network(lt, lt.capacity, k)  # V
        vertex = self.graph._vertex
        self.sigma = vertex(self.source)
        self.index = {v: vertex(v) for v in lt.compute_ids}
        self.arcs = sorted(lt.capacity)  # rank -> (tail, head) by name
        self.tails = [self.index[x] for x, _ in self.arcs]
        self.heads = [self.index[y] for _, y in self.arcs]
        self.entries = [self.graph._arc(x, y) for x, y in zip(self.tails, self.heads)]
        size = 1 + max(self.index.values())
        self.out: list[list[int]] = [[] for _ in range(size)]  # v -> ranks of its arcs out
        for r, x in enumerate(self.tails):
            self.out[x].append(r)
        self.flows: dict[int, list] = {}  # sink -> its kept flow
        self.held = [k] * size  # v -> m_j summed over batches in sigma holding v
        self.gadgets = {id(b): self.index[b.root] for b in forest.batches}  # batch in sigma -> head
        self.hubs = 0
        self.growing: TreeBatch | None = None
        self.inside = [False] * size  # v -> whether the growing batch holds v
        self.frontier: list[int] = []
        self.short: set[int] = set()  # probed at 0 < mu < m since the last split

    def _arcs_out(self) -> list[int]:
        """The arcs of positive capacity from the growing batch to the rest,
        sorted."""
        cap, entries, heads, inside = self.graph._capacity, self.entries, self.heads, self.inside
        return sorted(
            r
            for v in map(self.index.__getitem__, self.growing.members)
            for r in self.out[v]
            if not inside[heads[r]] and cap(entries[r])
        )

    def stuck(self) -> NoAddableEdge:
        """The error of a growing batch that cannot grow, listing every arc
        of positive capacity out of it."""
        batch = self.growing
        return NoAddableEdge(batch.root, batch.members, [self.arcs[r] for r in self._arcs_out()])

    def mu(self, arc: int, mu0: int) -> int:
        """Largest multiplicity up to `mu0` at which the growing batch may
        take `arc`: by the arc alone, else by one `_keep` push of its head's
        kept flow, and one that repairs it after a shortfall (see the
        module docstring).  `Forest.mu_evaluations` counts every one."""
        self.forest.mu_evaluations += 1
        x, y = self.tails[arc], self.heads[arc]
        g, value = self.graph, self.value
        if g._capacity(self.entries[arc]) - value + self.held[y] >= mu0:
            return mu0
        flow = self.flows.get(y)
        if flow is None:
            flow = self.flows[y] = g.state()
        short = g._keep(flow, {self.sigma: value, x: mu0}, y)
        if short and g._keep(flow, {self.sigma: value}, y):
            raise self.stuck()
        return mu0 - short

    def choose(self, m: int) -> tuple[int, int]:
        """The arc the growing batch, of multiplicity `m`, takes next and
        its mu: the first frontier arc at mu = m, else the first at mu > 0
        (see the module docstring).  The first pass probes, in order, the
        arcs that can give m, and one found short joins `short`; the
        second probes the rest in order, up to the first at mu > 0.  An arc
        at mu = 0 leaves the frontier."""
        cap, entries, short = self.graph._capacity, self.entries, self.short
        known = {}
        for arc in list(self.frontier):
            if arc in short or cap(entries[arc]) < m:
                continue
            mu = known[arc] = self.mu(arc, m)
            if mu == m:
                return arc, mu
            if mu:
                short.add(arc)
            else:
                self.frontier.remove(arc)
        for arc in list(self.frontier):
            mu = known.get(arc) or self.mu(arc, min(cap(entries[arc]), m))
            if mu:
                return arc, mu
            self.frontier.remove(arc)
        raise self.stuck()

    def leave(self, batch: TreeBatch) -> None:
        """`batch` starts growing, so its gadget leaves sigma: every arc of
        it drops to zero, and so out of the graph's adjacency lists."""
        g, index = self.graph, self.index
        self.growing = batch
        m = batch.multiplicity
        self.value -= m
        head = self.gadgets.pop(id(batch))
        self.inside = inside = [False] * len(self.inside)
        for t in batch.members:
            self.held[index[t]] -= m
            inside[index[t]] = True
        g._lower(g._arc(self.sigma, head), m)
        if head != index[batch.root]:
            for t in sorted(batch.members):
                g._lower(g._arc(head, index[t]), m)
        self.frontier = self._arcs_out()
        self.short.clear()

    def take(self, arc: int, mu: int) -> None:
        """The growing batch takes `arc` at `mu`; the frontier trades the
        arcs into its head for the head's arcs out."""
        cap, entries, heads, inside = self.graph._capacity, self.entries, self.heads, self.inside
        y = heads[arc]
        self.graph._lower(entries[arc], mu)
        inside[y] = True
        self.frontier = [a for a in self.frontier if heads[a] != y]
        for a in self.out[y]:
            if not inside[heads[a]] and cap(entries[a]):
                insort(self.frontier, a)

    def enter(self, batch: TreeBatch) -> None:
        """`batch`, a split copy, joins sigma through a new hub."""
        hub = fresh_name(f"b{self.hubs}", self.lt.node_by_id)
        self.hubs += 1
        m = batch.multiplicity
        arcs = [(self.source, hub, m)] + [(hub, t, m) for t in sorted(batch.members)]
        self.graph.grow([hub], arcs)
        self.gadgets[id(batch)] = self.graph._vertex(hub)
        self.value += m
        for t in batch.members:
            self.held[self.index[t]] += m
        self.short.clear()


def pack_spanning_trees(lt: Topology, k: int) -> Forest:
    """Pack k spanning out-trees per compute node into `lt`, the
    compute-only network that `remove_switches` returns for the same k.

    Batches start as one singleton per root (multiplicity k) and are grown
    to completion root by root, as the module docstring says.  A full
    frontier of zero mu values, or a kept flow that can no longer carry
    what the unfinished batches need, raises NoAddableEdge (the capacity
    invariants rule both out for the k the network was split for, so
    either flags an upstream bug or a k that `lt` cannot carry).
    """
    require_tree_count(k)
    if lt.switch_ids:
        raise CollschedError("packing takes the compute-only network remove_switches returns")
    n = lt.num_compute
    forest = Forest(
        lt=lt,
        batches=[
            TreeBatch(root=r, multiplicity=k, members={r}, edges=[])
            for r in lt.compute_ids
        ],
    )
    baselines = _Baselines(forest, k)
    i = 0
    while i < len(forest.batches):
        batch = forest.batches[i]
        baselines.leave(batch)
        while len(batch.members) < n:
            rank, mu = baselines.choose(batch.multiplicity)
            baselines.take(rank, mu)
            arc = baselines.arcs[rank]
            if mu < batch.multiplicity:
                copy = TreeBatch(
                    root=batch.root,
                    multiplicity=batch.multiplicity - mu,
                    members=set(batch.members),
                    edges=list(batch.edges),
                )
                forest.batches.insert(i + 1, copy)
                batch.multiplicity = mu
                baselines.enter(copy)
            batch.edges.append(arc)
            batch.members.add(arc[1])
        i += 1
    return forest
