"""Switch removal by repeated edge splitting.

Switches only forward traffic, so for tree packing each switch w is
dissolved: an ingress arc (u, w) and an egress arc (w, t) are replaced by
gamma units of a direct logical arc (u, t), recording via the EMap that
those units physically route through w.  The split amount gamma is chosen
as the largest value that keeps the network able to support N*k units of
flow from the auxiliary source to every compute node — the same invariant
the optimality search certified — so packing feasibility survives every
split.  Splits with u == t would form a self-loop and are simply dropped;
balance and feasibility are unaffected.

After all switches dissolve, the remaining compute-only multigraph plus
the EMap is exactly what tree packing and path expansion consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityExhausted, CollschedError, StuckSplit
from .maxflow import INF, FlowGraph, fresh_name
from .topology import COMPUTE, Link, Node, ScaledTopology, Topology


@dataclass
class SplitState:
    """Mutable working copy of a scaled network mid-removal."""

    node_ids: tuple[str, ...]
    compute_ids: tuple[str, ...]
    switch_ids: tuple[str, ...]
    caps: dict[tuple[str, str], int]

    @classmethod
    def from_scaled(cls, d: ScaledTopology) -> "SplitState":
        t = d.topology
        return cls(
            node_ids=tuple(n.id for n in t.nodes),
            compute_ids=t.compute_ids,
            switch_ids=t.switch_ids,
            caps={k: v for k, v in d.capacity.items() if v > 0},
        )


class EMap:
    """Physical realization of logical arcs created by splitting.

    entries[(u, t)][w] = units of the logical arc (u, t) that traverse
    switch w.  Arcs of the original network have no entry; their capacity
    is consumed directly during path expansion.
    """

    def __init__(self) -> None:
        self.entries: dict[tuple[str, str], dict[str, int]] = {}

    def add(self, u: str, t: str, w: str, amount: int) -> None:
        if amount <= 0:
            raise CollschedError("emap amounts must be positive")
        self.entries.setdefault((u, t), {})
        self.entries[(u, t)][w] = self.entries[(u, t)].get(w, 0) + amount

    def routes(self, u: str, t: str) -> dict[str, int]:
        return dict(self.entries.get((u, t), {}))

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class LogicalTopology:
    """Compute-only multigraph left after all switches dissolve."""

    compute_ids: tuple[str, ...]
    capacity: dict[tuple[str, str], int]
    k: int

    @property
    def num_compute(self) -> int:
        return len(self.compute_ids)

    def as_topology(self) -> Topology:
        """Plain network view (for reuse of cut/flow machinery in checks)."""
        nodes = [Node(id=c, kind=COMPUTE) for c in self.compute_ids]
        links = [
            Link(src=a, dst=b, bandwidth=c)
            for (a, b), c in sorted(self.capacity.items())
            if c > 0
        ]
        return Topology(nodes=nodes, links=links)


# ---------------------------------------------------------------------------
# Split amounts
# ---------------------------------------------------------------------------

class _GammaOracle:
    """Evaluates split amounts for one egress arc (w, t) of switch w
    against a fixed network state, reusing one flow graph across all
    candidate ingress arcs.

    The graph holds the state's arcs, the auxiliary source with k-capacity
    arcs to every compute node, and zero-capacity placeholder arcs that
    individual probes raise to infinity via overrides.
    """

    def __init__(self, state: SplitState, w: str, t: str, k: int) -> None:
        self.state = state
        self.w = w
        self.t = t
        self.k = k
        self.target = len(state.compute_ids) * k
        names = list(state.node_ids)
        self.source = fresh_name("s", names)
        g = FlowGraph()
        for name in names:
            g.add_vertex(name)
        g.add_vertex(self.source)
        for (a, b), c in state.caps.items():
            g.add_arc(a, b, c)
        for c in state.compute_ids:
            g.add_arc(self.source, c, k)
        # Placeholders, activated per probe: (x, source) and (x, t) for
        # every node x, and (v, w) for every compute v.
        self.to_source = {x: g.add_arc(x, self.source, 0) for x in names}
        self.to_t = {x: g.add_arc(x, t, 0) for x in names}
        self.to_w = {v: g.add_arc(v, w, 0) for v in state.compute_ids}
        self.graph = g

    def gamma(self, u: str) -> int:
        """Largest amount of the pairing (u, w),(w, t) splittable while the
        min flow to every compute node stays at N*k:

        min{ c(u,w), c(w,t),
             min_v F(u -> w | inf (u,s),(u,t),(v,w)) - N*k,
             min_v F(w -> t | inf (w,s),(u,t),(v,t)) - N*k }
        """
        caps = self.state.caps
        best = min(caps.get((u, self.w), 0), caps.get((self.w, self.t), 0))
        if best <= 0:
            return 0
        best = self._min_slack(
            u,
            self.w,
            {self.to_source[u]: INF, self.to_t[u]: INF},
            [(v, self.to_w[v]) for v in self.state.compute_ids if v != u],
            best,
        )
        if best <= 0:
            return 0
        best = self._min_slack(
            self.w,
            self.t,
            {self.to_source[self.w]: INF, self.to_t[u]: INF},
            [(v, self.to_t[v]) for v in self.state.compute_ids],
            best,
        )
        return max(best, 0)

    def _min_slack(self, source, sink, base, boosts, best: int) -> int:
        """min(best, min over boost arcs of F(source -> sink with that arc
        infinite) - N*k).

        A boost arc only adds capacity, so F is bounded below by the
        unboosted flow F0: when F0 reaches the probing limit, every boost is
        certified at once, and otherwise F0's min cut settles every boost
        vertex outside its source side exactly (the cut survives the boost),
        leaving individual probes only for vertices inside.
        """
        g = self.graph
        res, state = g.run_keep(source, sink, overrides=base, limit=self.target + best)
        if res.value >= self.target + best:
            return best
        if any(v not in res.source_side for v, _ in boosts):
            # That vertex's boost arc does not cross F0's min cut, so its
            # boosted flow equals F0 — and monotonicity puts every other
            # boost at F0 or above, so the minimum is exactly F0.
            return min(best, res.value - self.target)
        for _, arc in boosts:
            room = self.target + best - res.value
            if room <= 0:
                # Every boosted flow is at least the base flow, so no probe
                # can improve on `best` any more.
                break
            if arc in base:
                # Already infinite in the base problem; the boost is a no-op.
                flow = res.value
            else:
                flow = res.value + g.resume(state, (arc,), room)
            best = min(best, flow - self.target)
            if best <= 0:
                return best
        return best


def compute_gamma(
    state: SplitState, k: int, e: tuple[str, str], f: tuple[str, str]
) -> int:
    """Split amount for ingress e = (u, w) and egress f = (w, t) in the
    given state; standalone form of the oracle for single queries."""
    u, w = e
    w2, t = f
    if w != w2:
        raise CollschedError(f"pairing must share the switch: {e} vs {f}")
    return _GammaOracle(state, w, t, k).gamma(u)


# ---------------------------------------------------------------------------
# Removal loop
# ---------------------------------------------------------------------------

def remove_switches(
    d: ScaledTopology,
    k: int | None = None,
    groups: dict[str, str] | None = None,
) -> tuple[LogicalTopology, EMap]:
    """Dissolve every switch of the scaled network into logical arcs.

    Switches go in sorted id order; within a switch, egress arcs are
    consumed in sorted head order, and candidate ingress tails are tried in
    sorted order (tails outside the egress head's declared group first,
    when `groups` is given — fewer same-group logical arcs tend to survive,
    which helps later multicast pruning; correctness never depends on it).

    Returns the compute-only multigraph and the EMap recording how each
    created arc routes physically.  Raises StuckSplit if no pairing for a
    remaining egress arc admits a positive amount, which a balanced input
    satisfying the N*k flow invariant never triggers.
    """
    state = SplitState.from_scaled(d)
    if k is None:
        k = d.k
    elif k != d.k:
        raise CollschedError(f"tree count {k} disagrees with the scaled network's {d.k}")
    emap = EMap()
    for w in sorted(state.switch_ids):
        while True:
            heads = sorted(t for (a, t), c in state.caps.items() if a == w and c > 0)
            if not heads:
                break
            _consume_egress(state, w, heads[0], k, emap, groups)
        leftovers = [p for p in state.caps if w in p]
        if leftovers:
            # Splits reduce a switch's in- and out-capacity in lockstep, so
            # draining the egress side must drain the ingress side too.
            raise CollschedError(f"switch {w} retained arcs after removal: {leftovers}")
    logical = {
        pair: c for pair, c in sorted(state.caps.items()) if c > 0
    }
    return LogicalTopology(compute_ids=state.compute_ids, capacity=logical, k=k), emap


def _consume_egress(
    state: SplitState,
    w: str,
    t: str,
    k: int,
    emap: EMap,
    groups: dict[str, str] | None,
) -> None:
    caps = state.caps

    def order(u: str):
        # Loop pairings (u == t) cannibalize t's own in-bandwidth, which sits
        # at the feasibility boundary, so their gamma is tiny and expensive
        # to certify; any other tail drains the egress arc in one cheap
        # probe.  Trying them last is purely an ordering choice — the split
        # invariant guarantees progress under any order.
        self_last = 1 if u == t else 0
        if groups is None:
            return (self_last, u)
        return (0 if groups.get(u) != groups.get(t) else 1, self_last, u)

    oracle = _GammaOracle(state, w, t, k)
    while caps.get((w, t), 0) > 0:
        tails = sorted(
            (u for (u, ww), c in caps.items() if ww == w and c > 0), key=order
        )
        progressed = False
        for u in tails:
            if caps.get((w, t), 0) == 0:
                break
            if caps.get((u, w), 0) == 0:
                continue
            amount = oracle.gamma(u)
            if amount <= 0:
                continue
            _apply_split(caps, u, w, t, amount)
            if u != t:
                emap.add(u, t, w, amount)
            progressed = True
            oracle = _GammaOracle(state, w, t, k)
        if not progressed:
            raise StuckSplit(w, (w, t), caps.get((w, t), 0))


def _apply_split(
    caps: dict[tuple[str, str], int], u: str, w: str, t: str, amount: int
) -> None:
    for pair in ((u, w), (w, t)):
        caps[pair] -= amount
        if caps[pair] == 0:
            del caps[pair]
    if u != t:
        caps[(u, t)] = caps.get((u, t), 0) + amount


# ---------------------------------------------------------------------------
# Path expansion
# ---------------------------------------------------------------------------

class PathExpander:
    """Stateful translator from logical arcs back to physical node paths.

    Holds the original scaled capacities plus all EMap entries as a
    consumable budget; each `expand` call eats from it, so one expander
    serves one entire schedule assembly and every unit is accounted for
    exactly once.  The EMap itself is never modified.
    """

    def __init__(self, emap: EMap, scaled: ScaledTopology) -> None:
        self._direct: dict[tuple[str, str], int] = {
            pair: c for pair, c in scaled.capacity.items() if c > 0
        }
        self._via: dict[tuple[str, str], dict[str, int]] = {
            pair: dict(ws) for pair, ws in emap.entries.items()
        }

    def expand(
        self, edge: tuple[str, str], multiplicity: int
    ) -> list[tuple[tuple[str, ...], int]]:
        """Consume `multiplicity` units of the logical arc, returning
        (node path, units) pairs whose units sum to `multiplicity`: direct
        capacity first, then EMap entries by switch id."""
        if multiplicity <= 0:
            raise CollschedError("multiplicity must be positive")
        remaining = multiplicity
        out: list[tuple[tuple[str, ...], int]] = []
        direct = min(self._direct.get(edge, 0), remaining)
        if direct > 0:
            self._direct[edge] -= direct
            out.append((edge, direct))
            remaining -= direct
        via = self._via.get(edge, {})
        for w in sorted(via):
            if remaining == 0:
                break
            take = min(via[w], remaining)
            if take == 0:
                continue
            u, t = edge
            left = self.expand((u, w), take)
            right = self.expand((w, t), take)
            via[w] -= take
            out.extend(_stitch(left, right))
            remaining -= take
        if remaining > 0:
            raise CapacityExhausted(
                f"logical arc {edge} lacks {remaining} of {multiplicity} units"
            )
        return out


def _stitch(
    left: list[tuple[tuple[str, ...], int]],
    right: list[tuple[tuple[str, ...], int]],
) -> list[tuple[tuple[str, ...], int]]:
    """Pair two path decompositions of equal total units end-to-end."""
    out: list[tuple[tuple[str, ...], int]] = []
    i = j = 0
    lneed = left[0][1] if left else 0
    rneed = right[0][1] if right else 0
    while i < len(left) and j < len(right):
        take = min(lneed, rneed)
        out.append((left[i][0] + right[j][0][1:], take))
        lneed -= take
        rneed -= take
        if lneed == 0:
            i += 1
            lneed = left[i][1] if i < len(left) else 0
        if rneed == 0:
            j += 1
            rneed = right[j][1] if j < len(right) else 0
    return out
