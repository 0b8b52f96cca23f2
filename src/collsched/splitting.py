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

One network type passes through: the scaled Topology goes in, and the
compute-only Topology left over, plus the EMap, is exactly what tree
packing and path expansion consume.  In between, the working network is
one flow graph, built once per pass of the removal and edited in place by
every split: it is the only record of the capacities while the switches
dissolve, and the Topology left over is read off it.

No split raises the capacity of a vertex set (Frank 1992, "On a theorem
of Mader"), so a removal first takes every pairing at its cap
min(c(u,w), c(w,t)) with no flow, except those the search's witness cut
proves take 0, and then checks once, by one Hao-Orlin pass, that what is
left still delivers N*k to every compute node: then it is the exact
removal, split for split.  Otherwise it starts again on a fresh graph and
takes each gamma from the oracle, whose local bound settles most of them
with no flow either.  `_GammaOracle` gives the three arguments.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property

from .errors import CapacityExhausted, CollschedError, NotEulerianAfterFloor, StuckSplit
from .maxflow import short_sink, source_network
from .topology import COMPUTE, Link, Topology, require_tree_count


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


# ---------------------------------------------------------------------------
# Split amounts
# ---------------------------------------------------------------------------

class _GammaOracle:
    """Evaluates and makes the splits at every switch of the network `net`
    on one flow graph built once, `source_network(net, net.capacity, k)`
    with demand `target` = N*k.  The graph is the working network:
    `dissolve` drains every switch on it by one amount rule, `cap` or
    `gamma`, `split` edits it in place, and `remainder` reads off the
    compute-only network left over.  Before either rule, `_separated`
    answers 0 for a pairing that the kept tight set separates.  A γ that
    neither that nor the local bound settles runs two base flows on the
    graph, each between terminal sets (see `gamma`).

    The certificate.  `cap` takes every pairing that the kept set does
    not separate at min(c(u,w), c(w,t)), which bounds γ.  No split raises
    a cut (see tight sets below), so if the graph left by dissolving on
    `cap` passes `invariant_holds`, every graph on the way passed it too:
    the kept set stayed tight, so each 0 it gave was γ, and each cap was
    feasible and so was γ; by induction the pass made the very splits
    `gamma` would have.  One Hao-Orlin pass then stands in for every flow
    of the removal.  The exact splits never leave an egress arc that no
    tail may drain, so a cap pass that stalls on the kept set's zeros has
    left them, and fails the certificate like a remainder below N*k.

    The local bound.  Let L = c(u,w) + c(t,w) + c(w,u) + c(w,t) - in(w),
    or L = c(u,w) + c(w,u) - in(w) when u == t.  While every compute node
    receives N*k, γ = min(c(u,w), c(w,t)) whenever L is at least that min:
    - A split lowers only cuts X that hold u and t but not w, or w but
      neither u nor t (see below).
    - Moving w across such an X gives a set that still holds the source
      and misses a compute node, so its capacity is at least N*k.
    - The move changes the capacity by at least L.  For X holding u and
      t, cap(X) - cap(X + w) = c(X, w) - c(w, out of X + w), at least
      c(u,w) + c(t,w) - (out(w) - c(w,u) - c(w,t)); for X holding w the
      same holds with in(w).  Both are L, as in(w) = out(w), which
      `remove_switches` checks up front and every split keeps.
    So every such cut is at least N*k + L and takes the whole min.
    `_margin` reads in(w) off the graph, its one record, on each call, so
    it is right also after loop pairings at other switches lowered it.
    The invariant is checked once, when `gamma` first meets a positive
    pairing, before any split (`invariant_holds`); if it fails, every γ
    comes from the flows.

    Tight sets.  Call a vertex set X tight if it holds the source, misses
    a compute node and has capacity N*k in the graph, the least the
    invariant allows.  A split of a units of (u, w),(w, t) lowers cap(X)
    by a when X holds u and t but not w, or w but neither u nor t, and
    leaves every other cap(X) as it was: no split raises a cut.  So a
    tight set stays tight until the removal ends, and γ is 0 for every
    pairing it separates that way, since any split across it would take X
    below N*k (the "dangerous sets" of Frank 1992, "On a theorem of
    Mader").  `tight` is the set kept, or None, and `_separated` answers
    0 from it before any amount rule.  It is the search's witness cut S,
    given as `witness`: on an exact search B+(S) * inv_x_star = |S ∩ C|
    and U = k * inv_x_star, so S's exits carry k*|S ∩ C| once scaled, and
    S + {source} has capacity N*k.  It is checked when the oracle is
    built, and kept only if S is non-empty, names nodes of the network,
    misses a compute node and its exits carry exactly k*|S ∩ C|; a
    witness with unknown ids, or one that is not tight (a fixed-k witness
    whose floored exits exceed k*|S ∩ C|), is never trusted.  Every
    pairing the kept set separates takes 0, so no split lowers its
    capacity and the check at build holds for the whole removal.
    """

    def __init__(self, net: Topology, k: int, witness=frozenset()) -> None:
        self.net = net
        self.compute_ids = net.compute_ids
        self.graph, self.source, self.target = source_network(net, net.capacity, k)
        self.index = {n.id: self.graph._vertex(n.id) for n in net.nodes}  # read and split by index
        # The witness is kept if it is tight (see the class docstring).
        S = frozenset(witness)
        inside = sum(1 for c in self.compute_ids if c in S)
        exits = sum(c for (a, b), c in net.capacity.items() if a in S and b not in S)
        known = S and S <= net.node_by_id.keys()
        tight = known and inside < net.num_compute and exits == k * inside
        self.tight = S | {self.source} if tight else None

    @cached_property
    def invariant_holds(self) -> bool:
        """Whether N*k units flow from the source to every compute node of
        the graph as it stands when first asked: one Hao-Orlin pass
        (`short_sink`)."""
        return short_sink(self.graph, self.source, self.compute_ids, self.target) is None

    def _margin(self, u: str, w: str, t: str) -> int:
        """L = c(u,w) + c(t,w) + c(w,u) + c(w,t) - in(w), or
        c(u,w) + c(w,u) - in(w) when u == t: the least amount by which a
        cut the pairing lowers exceeds N*k (see the class docstring)."""
        g = self.graph
        inflow = sum(c for _, c in g.arcs_at(w)[1])
        cap, arc, index = g._capacity, g._arc, self.index
        u, w, t = index[u], index[w], index[t]
        margin = cap(arc(u, w)) + cap(arc(w, u)) - inflow
        if u != t:
            margin += cap(arc(t, w)) + cap(arc(w, t))
        return margin

    def cap(self, u: str, w: str, t: str) -> int:
        """min(c(u,w), c(w,t)): the most any split of the pairing can take,
        with no flow (see the class docstring)."""
        cap, arc, index = self.graph._capacity, self.graph._arc, self.index
        w = index[w]
        return min(cap(arc(index[u], w)), cap(arc(w, index[t])))

    def gamma(self, u: str, w: str, t: str) -> int:
        """Largest amount of the pairing (u, w),(w, t) splittable while the
        min flow to every compute node stays at N*k:

        min{ c(u,w), c(w,t),
             min_v F({u, s, t} -> {w} | inf (v,w)) - N*k,
             min_v F({w, s} -> {u, t} | inf (v,t)) - N*k }

        F(X -> Y | inf (v,y)) being the max flow from the vertex set X to
        the vertex set Y with an unbounded arc (v,y) added.  The two halves
        are the flows u -> w with unbounded arcs (u,s), (u,t), (v,w), and
        w -> t with unbounded arcs (w,s), (u,t), (v,t).  An arc (a,b) of
        capacity at least the probing limit puts b on a's side of every
        cut worth less than that limit.  So in the first half every such
        cut holds s and t with u, which is a flow from {u, s, t} to {w}
        with the same cuts at the same values; in the second, (w,s) puts s with w, and
        (u,t), with t the sink, forces u out of the source side: a flow
        from {w, s} to {u, t}.

        Before any flow, the local bound answers min(c(u,w), c(w,t)) when
        the invariant holds and L reaches it (see the class docstring).
        A pairing that the kept tight set separates never gets here:
        `dissolve` answers it 0 first.
        """
        best = self.cap(u, w, t)
        if best <= 0:
            return 0
        if self.invariant_holds and self._margin(u, w, t) >= best:
            return best
        best = self._min_slack(
            [u, self.source, t],
            [w],
            [v for v in self.compute_ids if v != u],
            best,
        )
        if best > 0:
            best = self._min_slack([w, self.source], [u, t], self.compute_ids, best)
        return max(best, 0)

    def _separated(self, u: str, w: str, t: str) -> bool:
        """Whether the kept tight set separates {u, t} from w, either way
        round, so that (u, w),(w, t) takes 0 by either amount rule."""
        X = self.tight
        return X is not None and (u in X) == (t in X) != (w in X)

    def dissolve(self, amount) -> EMap:
        """Drain every switch of the graph, each split taking 0 if the kept
        tight set separates the pairing and `amount(u, w, t)` otherwise,
        and return the EMap of the splits (see `remove_switches` for the
        order); StuckSplit if a pass over the tails drains nothing.  The
        heads and tails of w and the capacity left on each egress arc are
        read once, off w's adjacency: a split at w lowers only w's own
        arcs and adds arcs that bypass it, and only the pairings of (w, t)
        lower (w, t)."""
        emap = EMap()
        g = self.graph
        for w in self.net.switch_ids:
            out, into = g.arcs_at(w)
            tails = sorted(u for u, _ in into)
            for t, left in sorted(out):
                # Cyclically from t (see `remove_switches`).  The loop
                # pairing (u == t) comes last, as it spends t's own
                # in-bandwidth, which sits at the feasibility boundary, so
                # its gamma is small and costly to certify.  A drained
                # tail's amount is 0 without a flow.
                i = bisect_left(tails, t)
                j = i + (tails[i:i + 1] == [t])
                order = tails[j:] + tails[:i] + tails[i:j]
                while left:
                    progressed = False
                    for u in order:
                        a = 0 if self._separated(u, w, t) else amount(u, w, t)
                        if a > 0:
                            self.split(u, w, t, a, emap)
                            left -= a
                            progressed = True
                            if not left:
                                break
                    if not progressed:
                        raise StuckSplit(w, t, left)
        return emap

    def remainder(self) -> Topology:
        """The compute-only network the graph holds, its arcs sorted."""
        links = sorted(arc for arc in self.graph.arcs() if arc[0] != self.source)
        compute = [n for n in self.net.nodes if n.kind == COMPUTE]
        return Topology(compute, [Link(*arc) for arc in links])

    def split(self, u: str, w: str, t: str, amount: int, emap: EMap) -> None:
        """Replace `amount` units of (u, w),(w, t) by a direct arc (u, t) in
        the graph, recording in `emap` that they route through w; a pairing
        with u == t would form a self-loop and adds nothing.  The graph
        lowers (u, w) and (w, t) in place and grows (u, t), which merges
        into an earlier (u, t)."""
        g, index = self.graph, self.index
        iu, iw, it = index[u], index[w], index[t]
        g._lower(g._arc(iu, iw), amount)
        g._lower(g._arc(iw, it), amount)
        if u != t:
            g._raise([(iu, it, amount)])
            emap.add(u, t, w, amount)

    def _min_slack(self, sources, sinks, boosts, best: int) -> int:
        """min(best, min over boost vertices v of F(sources -> sinks with
        an unbounded arc from v to a sink) - N*k).

        A boost arc only adds capacity, so F is bounded below by the
        unboosted flow F0: when F0 reaches the probing limit, every boost is
        certified at once, and otherwise F0's min cut settles every boost
        vertex outside its source side exactly (the cut survives the boost),
        leaving probes only for vertices inside.  A boost vertex among the
        sources is settled from the start, since every cut holds it, and
        one among the sinks lies outside the source side.

        Boosting v raises the flow to F0 + min(room, lambda(sources, v)),
        where room = N*k + best - F0 and lambda(S, v) is the least capacity,
        in F0's residual graph R, of a cut that holds S but not v.  (R's
        reachable set from the sources holds every boost vertex but no sink,
        so by submodularity the cut may leave the sinks out too; that is
        why a probe can sink at v instead of boosting an arc from v.)

        The probes share R as in `short_sink`, vi resumed from S(i-1) =
        sources + {v1 .. v(i-1)}.  A probe that gains the full room settles
        vi; a short one sets the new minimum and the room, and vi still
        joins the source set, since lambda(S(i-1), vi) is that new room.

        A probe is skipped when v is reachable from S along residual arcs
        of at least the room: every cut that holds S but not v is crossed
        by that path, so lambda(S, v) >= room.
        """
        g = self.graph
        limit = self.target + best
        value, state = g.run_keep(sources, sinks, limit=limit)
        if value >= limit:
            return best
        side = g.reach(state, sources, 1)
        if any(v not in side for v in boosts):
            # That vertex's boost arc does not cross F0's min cut, so its
            # boosted flow equals F0 — and monotonicity puts every other
            # boost at F0 or above, so the minimum is exactly F0.
            return min(best, value - self.target)
        room = limit - value
        settled = list(sources)
        reached = g.reach(state, settled, room)
        for v in boosts:
            if v not in reached:
                gained = g.resume(state, settled, v, room)
                if gained < room:
                    # This boost sets the new minimum.
                    best = value + gained - self.target
                    room = gained
                    if best <= 0 or room == 0:
                        # The pairing is refused, or best is F0 - N*k,
                        # which no boost undercuts.
                        return best
                reached = g.reach(state, settled + [v], room)
            settled.append(v)
        return best


# ---------------------------------------------------------------------------
# Removal loop
# ---------------------------------------------------------------------------

def remove_switches(scaled: Topology, k: int, witness=frozenset()) -> tuple[Topology, EMap]:
    """Dissolve every switch of the scaled network into logical arcs.

    Switches go in sorted id order on a `_GammaOracle`, whose graph is
    the working network from a pass's first split to its last; a network
    without switches builds none.  Within a switch, egress arcs are
    consumed in sorted head order.  The egress arc to t tries the ingress
    tails cyclically from t: the sorted tails after t, then those before
    it, and t itself last, in passes until the arc is drained.  Heads thus
    start their scans at different tails, so on a symmetric switch each
    egress arc drains from one tail in one split, and the remainder has
    one logical arc per egress arc.  Any order keeps the invariant, so
    the order moves only the arcs left over, and with them the size of
    every flow graph that split and pack run on.

    `witness` is the search's witness cut S, or empty; S + {source} is
    kept as a tight set if it is one, and ignored otherwise.  The removal
    runs first on the caps, and again on a fresh oracle with the exact
    gamma if that pass fails its certificate or stalls (see
    `_GammaOracle`).  On the `boxes` networks the witness leaves out whole
    boxes, whose same-box pairings at the NIC switch have γ 0, so the caps
    alone certify; networks of two boxes, and those whose witness leaves
    out a single GPU, still fall back.

    Splitting needs in = out only at the switch being split (Mader 1982;
    Frank 1992), and a split changes no other node's in- or out-capacity
    while it lowers w's two in lockstep, so draining w's egress drains its
    ingress too.  Compute nodes need no balance: packing asks only for
    the cut condition.

    Returns the compute-only network left over, as a Topology whose
    capacities are the logical arcs, and the EMap recording how each
    created arc routes physically.  Raises NotEulerianAfterFloor (with
    ``result`` None) naming every switch whose in- and out-capacity
    differ, before any flow graph is built; StuckSplit if, in the exact
    pass, a full pass of tails admits no positive amount for a remaining
    egress arc, which a balanced switch under the N*k flow invariant
    never triggers; and CollschedError unless k is an int >= 1.
    """
    require_tree_count(k)
    unbalanced = [w for w in scaled.switch_ids if scaled.in_bw[w] != scaled.out_bw[w]]
    if unbalanced:
        raise NotEulerianAfterFloor(
            f"switch removal for k={k} needs in = out at every switch; "
            + ", ".join(f"{w} has in {scaled.in_bw[w]}, out {scaled.out_bw[w]}" for w in unbalanced)
        )
    if not scaled.switch_ids:
        compute = [n for n in scaled.nodes if n.kind == COMPUTE]
        links = [Link(a, b, c) for (a, b), c in sorted(scaled.capacity.items())]
        return Topology(compute, links), EMap()
    oracle = _GammaOracle(scaled, k, witness)
    try:
        emap = oracle.dissolve(oracle.cap)
        certified = oracle.invariant_holds
    except StuckSplit:
        # Only the witness's zeros can stall the caps, and the exact
        # splits never stall: this pass has left them.
        certified = False
    if not certified:
        oracle = _GammaOracle(scaled, k, witness)
        emap = oracle.dissolve(oracle.gamma)
    return oracle.remainder(), emap


# ---------------------------------------------------------------------------
# Path expansion
# ---------------------------------------------------------------------------

class PathExpander:
    """Stateful translator from logical arcs back to physical node paths.

    Holds the original scaled capacities plus all EMap entries as a
    consumable budget; each `expand` call eats from it, so one expander
    serves one entire schedule assembly and every unit is accounted for
    exactly once.  The EMap itself is never modified.

    Each arc's units are one list of [switch or None, units left, route]
    segments, built once: its direct capacity first, then its EMap entries
    by switch id.  A cursor per arc skips the segments already drained, so
    every arc is consumed front to back in that one order, whichever arcs
    route through it.  A segment whose every unit takes one physical route
    (direct, or through a switch whose two sub-arcs have one route each)
    keeps that route and the segments it draws from, and pays a request
    with one debit per segment, shared sub-arcs included; an arc with one
    segment of units is routed that way whole.  A request that some drawn
    segment cannot cover is expanded sub-arc by sub-arc, which names the
    arc that runs out.
    """

    def __init__(self, emap: EMap, scaled: Topology) -> None:
        self._segments: dict[tuple[str, str], list[list]] = {
            arc: [[None, c, _UNROUTED]] for arc, c in scaled.capacity.items()
        }
        for arc, ws in emap.entries.items():
            self._segments.setdefault(arc, []).extend(
                [w, ws[w], _UNROUTED] for w in sorted(ws)
            )
        self._cursor: dict[tuple[str, str], int] = {}
        self._routes: dict[tuple[str, str], tuple | None] = {}

    def _route(self, arc: tuple[str, str]):
        """The one route of every unit of `arc` (see `_segment_route`), or
        None.  An arc is read here before any of its units is spent."""
        if arc not in self._routes:
            live = [seg for seg in self._segments.get(arc, ()) if seg[1] > 0]
            self._routes[arc] = self._segment_route(arc, live[0]) if len(live) == 1 else None
        return self._routes[arc]

    def _segment_route(self, arc: tuple[str, str], seg: list):
        """(path, segments) when every unit of `arc`'s segment `seg` takes
        one route, the segments being the distinct ones it draws from, or
        None."""
        if seg[2] is _UNROUTED:
            w = seg[0]
            route = None
            if w is None:
                route = (arc, [seg])
            else:
                left = self._route((arc[0], w))
                right = self._route((w, arc[1]))
                if left is not None and right is not None:
                    drawn = [seg] + left[1] + right[1]
                    if len({id(d) for d in drawn}) == len(drawn):
                        route = (left[0] + right[0][1:], drawn)
            seg[2] = route
        return seg[2]

    def expand(
        self, edge: tuple[str, str], multiplicity: int
    ) -> list[tuple[tuple[str, ...], int]]:
        """Consume `multiplicity` units of the logical arc, returning
        (node path, units) pairs, each with positive units, whose units sum
        to `multiplicity`: direct capacity first, then EMap entries by
        switch id.  Raises CapacityExhausted naming the arc whose units run
        out."""
        if multiplicity <= 0:
            raise CollschedError("multiplicity must be positive")
        route = self._route(edge)
        if route is not None and _debit(route[1], multiplicity):
            return [(route[0], multiplicity)]
        segments = self._segments.get(edge, ())
        i = self._cursor.get(edge, 0)
        remaining = multiplicity
        out: list[tuple[tuple[str, ...], int]] = []
        while remaining and i < len(segments):
            seg = segments[i]
            take = min(seg[1], remaining)
            if take == 0:
                i += 1
                continue
            route = self._segment_route(edge, seg)
            if route is not None and _debit(route[1], take):
                out.append((route[0], take))
            else:
                # Only a segment through a switch can lack a route.
                u, t = edge
                left = self.expand((u, seg[0]), take)
                right = self.expand((seg[0], t), take)
                seg[1] -= take
                out.extend(_stitch(left, right))
            remaining -= take
        self._cursor[edge] = i
        if remaining > 0:
            raise CapacityExhausted(
                f"logical arc {edge} lacks {remaining} of {multiplicity} units"
            )
        return out


# A segment whose route `PathExpander._segment_route` has not read yet.
_UNROUTED = object()


def _debit(segments: list[list], units: int) -> bool:
    """Take `units` from each of `segments` if every one holds them."""
    for seg in segments:
        if seg[1] < units:
            return False
    for seg in segments:
        seg[1] -= units
    return True


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
