"""Exact integer maximum flow (Dinic) plus the auxiliary-network builder.

The engine works on named vertices and paired forward/backward arc entries.
Capacities are non-negative integers; a distinguished INF marker denotes
unbounded arcs and is materialized as (sum of all finite capacities + 1),
which guarantees an INF arc can never be the binding element of a min cut
that could avoid it.  Everything is checked against the 63-bit budget.

`FlowGraph.run` never changes the graph (it runs on a copy of the
capacities).  Repeated queries that differ from a template by a handful of
arc capacities pass overrides, which is what the switch removal and tree
packing layers lean on; an optional `limit` makes the engine stop early
once `limit` units of flow are placed, returning min(true max flow, limit)
exactly, and `want_cut=True` adds a min-cut witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CollschedError, Overflow
from .topology import CAPACITY_BUDGET, Topology


class _Infinity:
    """Marker for unbounded arc capacity."""

    def __repr__(self):
        return "INF"


INF = _Infinity()


@dataclass(frozen=True)
class FlowResult:
    """Exact max-flow value plus (optionally) a min-cut witness: the set of
    vertex names on the source side of one minimum cut."""

    value: int
    source_side: frozenset[str] | None = None


def fresh_name(base: str, taken) -> str:
    """A vertex name not colliding with any existing id."""
    name = base
    while name in taken:
        name = "_" + name
    return name


class FlowGraph:
    """Directed flow network with named vertices.

    Arcs are stored as paired entries (forward at 2*i, residual at 2*i+1).
    ``add_arc`` returns the arc id i so callers can override its capacity in
    later `run` calls without rebuilding the graph.
    """

    def __init__(self):
        self._names: list[str] = []
        self._idx: dict[str, int] = {}
        self._to: list[int] = []
        self._cap0: list[int] = []  # -1 encodes INF (forward entries only)
        self._adj: list[list[int]] = []
        self._inf_entries: list[int] = []
        self._finite_sum = 0

    # -- construction -------------------------------------------------------
    def add_vertex(self, name: str) -> int:
        if name in self._idx:
            return self._idx[name]
        i = len(self._names)
        self._idx[name] = i
        self._names.append(name)
        self._adj.append([])
        return i

    def vertex(self, name: str) -> int:
        try:
            return self._idx[name]
        except KeyError:
            raise CollschedError(f"vertex {name!r} not in flow graph") from None

    def add_arc(self, src: str, dst: str, cap) -> int:
        """Add a directed arc; `cap` is a non-negative int or INF.

        Returns the arc id usable as an override key in `run`.
        """
        u = self.vertex(src)
        v = self.vertex(dst)
        entry = len(self._to)
        if cap is INF:
            self._inf_entries.append(entry)
            c0 = -1
        else:
            if not isinstance(cap, int) or cap < 0:
                raise CollschedError(f"arc capacity must be a non-negative int, got {cap!r}")
            if cap > CAPACITY_BUDGET:
                raise Overflow(f"arc capacity {cap} exceeds the 63-bit budget")
            self._finite_sum += cap
            c0 = cap
        self._to.append(v)
        self._cap0.append(c0)
        self._to.append(u)
        self._cap0.append(0)
        self._adj[u].append(entry)
        self._adj[v].append(entry + 1)
        return entry // 2

    @classmethod
    def from_arcs(cls, vertices, arcs) -> "FlowGraph":
        """Bulk constructor: `vertices` in order, `arcs` as (src, dst, cap)
        triples with int or INF capacities.

        Equivalent to repeated add_vertex/add_arc (arc ids are assigned in
        input order) but much cheaper, for hot paths that rebuild a graph
        per probe.
        """
        g = cls.__new__(cls)
        names = list(vertices)
        idx = {name: i for i, name in enumerate(names)}
        if len(idx) != len(names):
            raise CollschedError("duplicate vertex names")
        to: list[int] = []
        cap0: list[int] = []
        adj: list[list[int]] = [[] for _ in names]
        inf_entries: list[int] = []
        finite = 0
        entry = 0
        for src, dst, cap in arcs:
            u = idx[src]
            v = idx[dst]
            if cap is INF:
                inf_entries.append(entry)
                c0 = -1
            else:
                if cap < 0:
                    raise CollschedError(f"arc capacity must be non-negative, got {cap!r}")
                finite += cap
                c0 = cap
            to.append(v)
            cap0.append(c0)
            to.append(u)
            cap0.append(0)
            adj[u].append(entry)
            adj[v].append(entry + 1)
            entry += 2
        if finite + 1 > CAPACITY_BUDGET:
            raise Overflow(f"finite capacity sum {finite} exceeds the 63-bit budget")
        g._names = names
        g._idx = idx
        g._to = to
        g._cap0 = cap0
        g._adj = adj
        g._inf_entries = inf_entries
        g._finite_sum = finite
        return g

    # -- execution ----------------------------------------------------------
    def _materialize(self, overrides) -> tuple[list[int], int, int]:
        """Capacity array with overrides applied and INF made concrete.

        Returns (caps, inf_val, inf_count); caps is private to the caller
        and is consumed (mutated into a residual) by the engine.
        """
        caps = self._cap0.copy()
        finite = self._finite_sum
        inf_positions = list(self._inf_entries)
        if overrides:
            for arc_id, cap in overrides.items():
                pos = 2 * arc_id
                old = caps[pos]
                if old >= 0:
                    finite -= old
                else:
                    inf_positions.remove(pos)
                if cap is INF:
                    inf_positions.append(pos)
                    caps[pos] = -1
                else:
                    finite += cap
                    caps[pos] = cap
        if finite + 1 > CAPACITY_BUDGET:
            raise Overflow(f"finite capacity sum {finite} exceeds the 63-bit budget")
        inf_val = finite + 1
        for pos in inf_positions:
            caps[pos] = inf_val
        return caps, inf_val, len(inf_positions)

    def run(
        self,
        src: str,
        dst: str,
        overrides: dict[int, object] | None = None,
        limit: int | None = None,
        want_cut: bool = False,
    ):
        """Max flow src->dst on a copy of the capacities.

        overrides maps arc id -> new capacity (int or INF) applied to the
        forward entry before the run.  With `limit`, returns
        min(max flow, limit).  Returns the flow value, or a FlowResult when
        `want_cut` is set.
        """
        s = self.vertex(src)
        t = self.vertex(dst)
        if s == t:
            raise CollschedError("source and sink must differ")
        caps, inf_val, n_inf = self._materialize(overrides)
        cap_limit = inf_val * (n_inf + 1) if limit is None else limit
        value = _dinic(len(self._names), self._to, self._adj, caps, s, t, cap_limit)
        if not want_cut:
            return value
        side = _residual_side(len(self._names), self._to, self._adj, caps, s)
        return FlowResult(value=value, source_side=frozenset(self._names[i] for i in side))

    def run_keep(
        self,
        src: str,
        dst: str,
        overrides: dict[int, object] | None = None,
        limit: int | None = None,
    ) -> tuple[FlowResult, tuple]:
        """Like `run(want_cut=True)` but also returns the residual state so
        `resume` can answer capacity-increase what-ifs without a fresh run.

        The returned cut is only meaningful when the flow converged (value
        below `limit`); a limit-stopped run's state must not be resumed.
        """
        s = self.vertex(src)
        t = self.vertex(dst)
        if s == t:
            raise CollschedError("source and sink must differ")
        caps, inf_val, n_inf = self._materialize(overrides)
        cap_limit = inf_val * (n_inf + 1) if limit is None else limit
        value = _dinic(len(self._names), self._to, self._adj, caps, s, t, cap_limit)
        side = _residual_side(len(self._names), self._to, self._adj, caps, s)
        result = FlowResult(
            value=value, source_side=frozenset(self._names[i] for i in side)
        )
        return result, (caps, inf_val, s, t)

    def resume(self, state: tuple, boost_arcs, limit: int) -> int:
        """Extra flow after raising zero-capacity arcs to infinity.

        `state` must come from a `run_keep` whose flow converged; the boost
        arcs must have had zero capacity there (the residual is reused, so a
        previously-used arc cannot simply be rewritten).  Returns the flow
        gained, up to `limit`; the state itself is left untouched.
        """
        caps, inf_val, s, t = state
        work = caps.copy()
        for arc_id in boost_arcs:
            pos = 2 * arc_id
            if work[pos] != 0 or work[pos + 1] != 0:
                raise CollschedError("resume boosts must be unused zero-capacity arcs")
            work[pos] = inf_val
        return _dinic(len(self._names), self._to, self._adj, work, s, t, limit)


def _dinic(n, to, adj, cap, s, t, limit):
    """Dinic blocking-flow max flow, stopping once `limit` units are placed."""
    total = 0
    while total < limit:
        # BFS level graph
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            lu = level[u] + 1
            for e in adj[u]:
                if cap[e] > 0:
                    v = to[e]
                    if level[v] < 0:
                        level[v] = lu
                        queue.append(v)
        if level[t] < 0:
            break
        it = [0] * n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                f = limit - total
                for e in path:
                    c = cap[e]
                    if c < f:
                        f = c
                for e in path:
                    cap[e] -= f
                    cap[e ^ 1] += f
                total += f
                if total >= limit:
                    return total
                # retreat to just before the first saturated arc
                i = 0
                np = len(path)
                while i < np and cap[path[i]] > 0:
                    i += 1
                del path[i:]
                u = to[path[-1]] if path else s
                continue
            advanced = False
            au = adj[u]
            iu = it[u]
            nu = len(au)
            lu1 = level[u] + 1
            while iu < nu:
                e = au[iu]
                if cap[e] > 0 and level[to[e]] == lu1:
                    path.append(e)
                    u = to[e]
                    advanced = True
                    break
                iu += 1
            it[u if not advanced else to[path[-1] ^ 1]] = iu
            if not advanced:
                if not path:
                    break  # phase exhausted
                level[u] = -1  # dead end; prune for the rest of the phase
                e = path.pop()
                u = to[e ^ 1]
                it[u] += 1
    return total


def _residual_side(n, to, adj, cap, s):
    """Vertices reachable from s in the residual graph (= min-cut source side)."""
    seen = [False] * n
    seen[s] = True
    queue = [s]
    for u in queue:
        for e in adj[u]:
            if cap[e] > 0 and not seen[to[e]]:
                seen[to[e]] = True
                queue.append(to[e])
    return [i for i in range(n) if seen[i]]


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def min_flow_at_least(g: FlowGraph, s: str, sinks, target: int) -> bool:
    """True iff every sink's max flow is >= target (early-terminating)."""
    for sink in sorted(sinks):
        if g.run(s, sink, limit=target) < target:
            return False
    return True


def build_allgather_aux(t: Topology, inv_x: Fraction) -> tuple[FlowGraph, int, str]:
    """Build the feasibility network for probe value x = 1/inv_x.

    The network is the topology plus one source vertex with an arc of
    capacity x to every compute node.  All capacities are pre-multiplied by
    the denominator of x so the graph is integral; the multiplier is
    returned along with the source vertex name.  A probe is feasible iff
    the max flow from the source to every compute node is >= N*x*multiplier.
    """
    inv_x = Fraction(inv_x)
    if inv_x <= 0:
        raise CollschedError(f"inv_x must be positive, got {inv_x}")
    x = 1 / inv_x
    mult = x.denominator
    g = FlowGraph()
    for node in t.nodes:
        g.add_vertex(node.id)
    source = fresh_name("s", t.node_by_id)
    g.add_vertex(source)
    for l in t.links:
        c = l.bandwidth * mult
        if c > CAPACITY_BUDGET:
            raise Overflow(f"cleared capacity {c} on {l.src}->{l.dst} exceeds the budget")
        g.add_arc(l.src, l.dst, c)
    for c in t.compute_ids:
        g.add_arc(source, c, x.numerator)
    return g, mult, source
