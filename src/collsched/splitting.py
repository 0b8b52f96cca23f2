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
of Mader"), and gamma is at most the cap min(c(u,w), c(w,t)).  For the
same reason a vertex set at the least capacity the invariant allows, a
tight set, stays there, and every pairing split across it has gamma 0.
The search proves one such set, its witness cut, and each zero the exact
flows find holds another; the oracle keeps each once checked, and in
either pass a pairing a kept set separates takes 0 with no flow (see
`_GammaOracle`).

So a removal first takes every other pairing at its cap, with no flow,
and then asks once, by one Hao-Orlin pass, whether what is left still
delivers N*k to every compute node.  If it does, no cut ever fell below
N*k on the way, so the witness stayed tight, every zero it gave and every
cap was feasible and was the exact gamma: the removal is the exact one,
split for split.  If it does not, or an egress arc stalls on the
witness's zeros, the removal starts again on a fresh graph and takes each
gamma from the oracle below.

Most positive gammas need no flow either.  With
L = c(u,w) + c(t,w) + c(w,u) + c(w,t) - in(w) (for u == t,
L = c(u,w) + c(w,u) - in(w)), gamma is min(c(u,w), c(w,t)) whenever L is
at least that min, since every cut a split lowers exceeds N*k by L or
more.  The argument needs the invariant to hold, so the oracle checks it
once per exact pass, and without it every gamma comes from the flows.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property

from .errors import CapacityExhausted, CollschedError, NotEulerianAfterFloor, StuckSplit
from .maxflow import source_network
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
    answers 0 for a pairing that a kept tight set separates.  A γ that
    neither that nor the local bound settles runs two base flows on the
    graph, each between terminal sets (see `gamma`).

    The certificate.  `cap` takes every pairing that no kept set
    separates at min(c(u,w), c(w,t)), which bounds γ.  No split raises a
    cut (see tight sets below), so if the graph left by dissolving on
    `cap` passes `invariant_holds`, every graph on the way passed it too:
    a kept set stayed tight, so each 0 it gave was γ, and each cap was
    feasible and so was γ; by induction the pass made the very splits
    `gamma` would have.  One Hao-Orlin pass then stands in for every flow
    of the removal.  The exact splits never leave an egress arc that no
    tail may drain, so a cap pass that stalls on kept-set zeros has left
    them, and fails the certificate like a remainder below N*k.

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
    `_margin` reads in(w) off the graph when `gamma` first meets w, and
    `split` lowers it by each split at w.  It is read afresh for each
    switch, never carried across: a loop pairing (u == t) at one switch
    lowers the in-capacity of u, which may be a switch removed later.
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
    Mader").  `tight` holds the sets kept so far, and `_separated` answers
    0 from them before any amount rule.  They come from two places:
    - The search's witness cut S, given as `witness`.  On an exact search
      B+(S) * inv_x_star = |S ∩ C| and U = k * inv_x_star, so S's exits
      carry k*|S ∩ C| once scaled, and S + {source} has capacity N*k.  It
      is checked the first time it separates a pairing with an amount to
      take, and kept only if S names nodes of the network and S + {source}
      misses a compute node and has capacity N*k as the graph then stands;
      an empty witness, one with unknown ids, or one that is not tight
      (a fixed-k witness whose floored exits exceed k*|S ∩ C|) is
      dropped, never trusted.  Removals it separates nothing in pay for
      no check.
    - Every zero that `_min_slack` finds, with the cut of its last flow;
      `_keep` keeps that cut once it is checked to be tight and to
      separate {u, t} from w.  A cut is kept only after the flows found a
      zero that no kept set certified, so no set is kept twice.
    """

    def __init__(self, net: Topology, k: int, witness=frozenset()) -> None:
        self.net = net
        self.compute_ids = net.compute_ids
        self.graph, self.source, self.target = source_network(net, net.capacity, k)
        self.tight: list[frozenset[str]] = []
        self.witness = frozenset(witness) or None  # checked when first used
        self.at: str | None = None  # the switch whose in-capacity is `inflow`
        self.inflow = 0

    @cached_property
    def invariant_holds(self) -> bool:
        """Whether N*k units flow from the source to every compute node of
        the graph as it stands when first asked: one flow to the first,
        then a resume to each further one on the same residual, its
        sources the source and every earlier compute node.  By the
        Hao-Orlin argument of `_min_slack`, the least of these terms is
        the least cut that holds the source and misses a compute node."""
        g = self.graph
        first, *rest = self.compute_ids
        value, state = g.run_keep([self.source], [first], limit=self.target)
        settled = [self.source, first]
        for v in rest:
            if value < self.target:
                break
            value = g.resume(state, settled, v, self.target)
            settled.append(v)
        return value >= self.target

    def _margin(self, u: str, w: str, t: str) -> int:
        """L = c(u,w) + c(t,w) + c(w,u) + c(w,t) - in(w), or
        c(u,w) + c(w,u) - in(w) when u == t: the least amount by which a
        cut the pairing lowers exceeds N*k (see the class docstring)."""
        g = self.graph
        if self.at != w:
            self.at = w
            self.inflow = sum(c for _, c in g.arcs_at(w)[1])
        margin = g.capacity(u, w) + g.capacity(w, u) - self.inflow
        if u != t:
            margin += g.capacity(t, w) + g.capacity(w, t)
        return margin

    def cap(self, u: str, w: str, t: str) -> int:
        """min(c(u,w), c(w,t)): the most any split of the pairing can take,
        with no flow (see the class docstring)."""
        return min(self.graph.capacity(u, w), self.graph.capacity(w, t))

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
        A pairing that a kept tight set separates never gets here:
        `dissolve` answers it 0 first.
        """
        best = self.cap(u, w, t)
        if best <= 0:
            return 0
        if self.invariant_holds and self._margin(u, w, t) >= best:
            return best
        best, cut = self._min_slack(
            [u, self.source, t],
            [w],
            [v for v in self.compute_ids if v != u],
            best,
        )
        if best > 0:
            best, cut = self._min_slack([w, self.source], [u, t], self.compute_ids, best)
        if best > 0:
            return best
        self._keep(cut, u, w, t)
        return 0

    def _keep(self, X: frozenset[str], u: str, w: str, t: str) -> None:
        """Keep X, the cut behind a zero γ of (u, w),(w, t), if it is tight
        and separates {u, t} from w."""
        if (u in X) == (t in X) != (w in X) and self._tight(X):
            self.tight.append(X)

    def _tight(self, X: frozenset[str]) -> bool:
        """Whether X holds the source, misses a compute node and has
        capacity N*k in the graph as it stands."""
        return (
            self.source in X
            and not X.issuperset(self.compute_ids)
            and sum(c for a, b, c in self.graph.arcs() if a in X and b not in X) == self.target
        )

    def _separated(self, u: str, w: str, t: str) -> bool:
        """Whether a kept tight set separates {u, t} from w, either way
        round, so that (u, w),(w, t) takes 0 by either amount rule.  The
        witness S is checked the first time it separates a pairing that
        has an amount to take: S + {source} is kept if S names only nodes
        of the network and the set is tight, and S is dropped either way
        (see the class docstring)."""
        for X in self.tight:
            if (u in X) == (t in X) != (w in X):
                return True
        S = self.witness
        if S is None or not (u in S) == (t in S) != (w in S) or not self.cap(u, w, t):
            return False
        self.witness = None
        X = S | {self.source}
        if S <= self.net.node_by_id.keys() and self._tight(X):
            self.tight.append(X)
            return True
        return False

    def dissolve(self, amount) -> EMap:
        """Drain every switch of the graph, each split taking 0 if a kept
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
                # Cyclically from t: if every head started at the first
                # sorted tail, the early tails would be split across many
                # heads and later heads would pick up fragments, each one
                # more logical arc; starting at t pairs heads with tails
                # one to one on a symmetric switch.  The loop pairing
                # (u == t) comes last, as it spends t's own in-bandwidth,
                # which sits at the feasibility boundary, so its gamma is
                # small and costly to certify.  A drained tail's amount
                # is 0 without a flow.
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
        into an earlier (u, t), and the tracked in(w) drops by `amount`."""
        g = self.graph
        g.lower(u, w, amount)
        g.lower(w, t, amount)
        if self.at == w:
            self.inflow -= amount
        if u != t:
            g.grow([], [(u, t, amount)])
            emap.add(u, t, w, amount)

    def _min_slack(self, sources, sinks, boosts, best: int) -> tuple[int, frozenset | None]:
        """min(best, min over boost vertices v of F(sources -> sinks with
        an unbounded arc from v to a sink) - N*k), with the source side of
        a cut that attains it, or None; never None when it is at most 0.

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

        Following Hao & Orlin (1994), "A faster algorithm for finding the
        minimum cut in a directed graph", the probes share R: put the boost
        vertices in order v1, v2, ... and let S(i) = sources + {v1 .. vi}.
        Then min over v of lambda(sources, v) = min over i of
        lambda(S(i-1), vi).  A larger source set only removes cuts, so no
        term undercuts the left side; and for a minimum cut X, the first vi
        outside X has S(i-1) inside it.  Flow pushed from S(i-1) to vi, in
        place on R, crosses no cut that holds both, so every later cut
        keeps its value in R; the engine's terminal rule checks exactly
        this.  A probe that gains the full room settles vi; a short one
        sets the new minimum and the room, and vi still joins the source
        set, since lambda(S(i-1), vi) is that new room.

        A probe is skipped when v is reachable from S along residual arcs
        of at least the room: every cut that holds S but not v is crossed
        by that path, so lambda(S, v) >= room.

        The cut of a result at most 0 is F0's min cut when it leaves out a
        boost vertex, and otherwise the source side of the short probe's
        min cut, reach(S(i-1)) right after it: that cut holds every
        earlier terminal, so the earlier flows do not cross it, and its
        capacity in the graph is F0 plus the probe's gain.
        """
        g = self.graph
        limit = self.target + best
        value, state = g.run_keep(sources, sinks, limit=limit)
        if value >= limit:
            return best, None
        side = g.reach(state, sources, 1)
        if any(v not in side for v in boosts):
            # That vertex's boost arc does not cross F0's min cut, so its
            # boosted flow equals F0 — and monotonicity puts every other
            # boost at F0 or above, so the minimum is exactly F0.
            return min(best, value - self.target), side
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
                    if best <= 0:
                        # The pairing is refused.
                        return best, g.reach(state, settled, 1)
                    if room == 0:
                        # best is F0 - N*k, which no boost undercuts.
                        return best, None
                reached = g.reach(state, settled + [v], room)
            settled.append(v)
        return best, None


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

    `witness` is the search's witness cut S, or empty.  Checked when a
    pairing it separates first has an amount to take, S + {source} is
    kept as a tight set if it is one, and every pairing it separates then
    takes 0; otherwise S is ignored.  The removal runs first with every
    other pairing at its cap, with no flow, and one Hao-Orlin pass then
    checks that what is left still delivers N*k to every compute node.
    No split raises a cut and the cap bounds the exact split amount, so a
    remainder that passes proves the witness stayed tight and every cap
    feasible: the result is the exact removal's, split for split, with no
    split-amount flow.  An egress arc that stalls on the witness's zeros
    proves they left the exact path, and fails the certificate too.
    Then the removal runs again on a fresh oracle, with the same witness,
    each amount the exact gamma (see `_GammaOracle`).  On the `boxes`
    networks the witness leaves out whole boxes, whose same-box pairings
    at the NIC switch have γ 0, so the caps alone certify; networks of
    two boxes, and those whose witness leaves out a single GPU, still
    fall back.

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
