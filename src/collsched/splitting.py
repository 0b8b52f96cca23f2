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

One network type passes through: the scaled Topology goes in, the
working capacities live in a dict local to `remove_switches` while the
switches dissolve, and the compute-only Topology left over, plus the
EMap, is exactly what tree packing and path expansion consume.
"""

from __future__ import annotations

from .errors import CapacityExhausted, CollschedError, StuckSplit
from .maxflow import INF, FlowGraph, fresh_name
from .topology import COMPUTE, Link, Topology


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


# ---------------------------------------------------------------------------
# Split amounts
# ---------------------------------------------------------------------------

class _GammaOracle:
    """Evaluates split amounts for one egress arc (w, t) of switch w
    against fixed working capacities `caps` of the network `net`'s nodes,
    reusing one flow graph across all candidate ingress arcs.

    The graph holds the arcs of `caps`, the auxiliary source with
    k-capacity arcs to every compute node, and zero-capacity placeholder
    arcs that individual probes raise to infinity via overrides.
    """

    def __init__(self, net: Topology, caps: dict, w: str, t: str, k: int) -> None:
        self.caps = caps
        self.compute_ids = net.compute_ids
        self.w = w
        self.t = t
        self.target = net.num_compute * k
        names = [n.id for n in net.nodes]
        self.source = fresh_name("s", names)
        g = FlowGraph()
        for name in names:
            g.add_vertex(name)
        g.add_vertex(self.source)
        for (a, b), c in caps.items():
            g.add_arc(a, b, c)
        for c in net.compute_ids:
            g.add_arc(self.source, c, k)
        # Placeholders, activated per probe: (x, source) and (x, t) for
        # every node x, and (v, w) for every compute v.
        self.to_source = {x: g.add_arc(x, self.source, 0) for x in names}
        self.to_t = {x: g.add_arc(x, t, 0) for x in names}
        self.to_w = {v: g.add_arc(v, w, 0) for v in net.compute_ids}
        self.graph = g

    def gamma(self, u: str) -> int:
        """Largest amount of the pairing (u, w),(w, t) splittable while the
        min flow to every compute node stays at N*k:

        min{ c(u,w), c(w,t),
             min_v F(u -> w | inf (u,s),(u,t),(v,w)) - N*k,
             min_v F(w -> t | inf (w,s),(u,t),(v,t)) - N*k }
        """
        caps = self.caps
        best = min(caps.get((u, self.w), 0), caps.get((self.w, self.t), 0))
        if best <= 0:
            return 0
        best = self._min_slack(
            u,
            self.w,
            {self.to_source[u]: INF, self.to_t[u]: INF},
            [(v, self.to_w[v]) for v in self.compute_ids if v != u],
            best,
        )
        if best <= 0:
            return 0
        best = self._min_slack(
            self.w,
            self.t,
            {self.to_source[self.w]: INF, self.to_t[u]: INF},
            [(v, self.to_t[v]) for v in self.compute_ids],
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
    net: Topology, k: int, e: tuple[str, str], f: tuple[str, str]
) -> int:
    """Split amount for ingress e = (u, w) and egress f = (w, t) in the
    scaled network `net`; standalone form of the oracle for single queries."""
    u, w = e
    w2, t = f
    if w != w2:
        raise CollschedError(f"pairing must share the switch: {e} vs {f}")
    return _GammaOracle(net, dict(net.capacity), w, t, k).gamma(u)


# ---------------------------------------------------------------------------
# Removal loop
# ---------------------------------------------------------------------------

def remove_switches(scaled: Topology, k: int) -> tuple[Topology, EMap]:
    """Dissolve every switch of the scaled network into logical arcs.

    Switches go in sorted id order; within a switch, egress arcs are
    consumed in sorted head order, and candidate ingress tails are tried in
    sorted order, the egress head itself last.

    Returns the compute-only network left over, as a Topology whose
    capacities are the logical arcs, and the EMap recording how each
    created arc routes physically.  Raises StuckSplit if no pairing for a
    remaining egress arc admits a positive amount, which a balanced input
    satisfying the N*k flow invariant never triggers.
    """
    caps = dict(scaled.capacity)
    emap = EMap()
    for w in scaled.switch_ids:
        while True:
            heads = sorted(t for (a, t), c in caps.items() if a == w and c > 0)
            if not heads:
                break
            _consume_egress(scaled, caps, w, heads[0], k, emap)
        leftovers = [p for p in caps if w in p]
        if leftovers:
            # Splits reduce a switch's in- and out-capacity in lockstep, so
            # draining the egress side must drain the ingress side too.
            raise CollschedError(f"switch {w} retained arcs after removal: {leftovers}")
    compute = [n for n in scaled.nodes if n.kind == COMPUTE]
    return Topology(compute, [Link(a, b, c) for (a, b), c in sorted(caps.items())]), emap


def _consume_egress(net: Topology, caps: dict, w: str, t: str, k: int, emap: EMap) -> None:
    oracle = _GammaOracle(net, caps, w, t, k)
    while caps.get((w, t), 0) > 0:
        # Loop pairings (u == t) cannibalize t's own in-bandwidth, which sits
        # at the feasibility boundary, so their gamma is tiny and expensive
        # to certify; any other tail drains the egress arc in one cheap
        # probe.  Trying them last is purely an ordering choice — the split
        # invariant guarantees progress under any order.
        tails = sorted(
            (u for (u, ww), c in caps.items() if ww == w and c > 0),
            key=lambda u: (u == t, u),
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
            oracle = _GammaOracle(net, caps, w, t, k)
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

    def __init__(self, emap: EMap, scaled: Topology) -> None:
        self._direct: dict[tuple[str, str], int] = dict(scaled.capacity)
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
