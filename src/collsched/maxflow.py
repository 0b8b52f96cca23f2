"""Exact integer maximum flow (Dinic).

The engine works on named vertices and paired forward/backward arc entries.
A graph is built in one call, `FlowGraph(vertices, arcs)`, and an arc's id
is its position in `arcs`.  Capacities are non-negative ints; a
distinguished INF marker denotes unbounded arcs and is materialized as
(sum of all finite capacities + 1), which guarantees an INF arc can never
be the binding element of a min cut that could avoid it.  Everything is
checked against the 63-bit budget, and any other capacity, an unknown
vertex, a malformed arc, an arc id out of range or a `limit` that is not
a non-negative int raises CollschedError.

`FlowGraph.run` never changes the graph (it runs on a copy of the
capacities).  Repeated queries that differ from a template by a handful of
arc capacities pass overrides keyed by arc id, which is what the switch
removal and tree packing layers lean on; an optional `limit` makes the
engine stop early once `limit` units of flow are placed, returning
min(true max flow, limit) exactly, and `want_cut=True` adds a min-cut
witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CollschedError, Overflow
from .topology import CAPACITY_BUDGET


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

    `FlowGraph(vertices, arcs)` takes the vertex names in order and the arcs
    as (src, dst, cap) triples, cap a non-negative int or INF.  Arc i is the
    i-th triple: its id i is the key for overriding its capacity in later
    runs.  Arcs are stored as paired entries (forward at 2*i, residual at
    2*i+1).
    """

    def __init__(self, vertices, arcs):
        self._names = names = list(vertices)
        self._idx = idx = {name: i for i, name in enumerate(names)}
        if len(idx) != len(names):
            raise CollschedError("duplicate vertex names")
        self._to = to = []
        self._cap0 = cap0 = []  # -1 encodes INF (forward entries only)
        self._adj = adj = [[] for _ in names]
        self._inf_entries = inf_entries = []
        finite = 0
        entry = 0
        for arc in arcs:
            try:
                src, dst, cap = arc
                u = idx[src]
                v = idx[dst]
            except KeyError as exc:
                raise _unknown_vertex(exc) from None
            except (TypeError, ValueError):
                raise CollschedError(
                    f"arc {arc!r} is not a (src, dst, cap) triple with hashable endpoints"
                ) from None
            if type(cap) is int and cap >= 0:
                finite += cap
                c0 = cap
            elif cap is INF:
                inf_entries.append(entry)
                c0 = -1
            else:
                raise _bad_capacity(cap)
            to.append(v)
            cap0.append(c0)
            to.append(u)
            cap0.append(0)
            adj[u].append(entry)
            adj[v].append(entry + 1)
            entry += 2
        if finite + 1 > CAPACITY_BUDGET:
            raise Overflow(f"finite capacity sum {finite} exceeds the 63-bit budget")
        self._finite_sum = finite

    @classmethod
    def from_arcs(cls, vertices, arcs) -> "FlowGraph":
        """Same as `FlowGraph(vertices, arcs)`; perfbench's tracer wraps
        this name."""
        return cls(vertices, arcs)

    # -- execution ----------------------------------------------------------
    def _position(self, arc_id) -> int:
        """Forward entry of arc `arc_id`, an int in [0, number of arcs)."""
        if type(arc_id) is not int or not 0 <= 2 * arc_id < len(self._to):
            raise CollschedError(f"no arc with id {arc_id!r} in flow graph")
        return 2 * arc_id

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
                pos = self._position(arc_id)
                old = caps[pos]
                if old >= 0:
                    finite -= old
                else:
                    inf_positions.remove(pos)
                if type(cap) is int and cap >= 0:
                    finite += cap
                    caps[pos] = cap
                elif cap is INF:
                    inf_positions.append(pos)
                    caps[pos] = -1
                else:
                    raise _bad_capacity(cap)
        if finite + 1 > CAPACITY_BUDGET:
            raise Overflow(f"finite capacity sum {finite} exceeds the 63-bit budget")
        inf_val = finite + 1
        for pos in inf_positions:
            caps[pos] = inf_val
        return caps, inf_val, len(inf_positions)

    def _solve(self, src, dst, overrides, limit) -> tuple[int, tuple]:
        """Max flow src->dst on a fresh copy of the capacities: the value
        and the residual state (caps, inf_val, s, t)."""
        try:
            s = self._idx[src]
            t = self._idx[dst]
        except KeyError as exc:
            raise _unknown_vertex(exc) from None
        if s == t:
            raise CollschedError("source and sink must differ")
        caps, inf_val, n_inf = self._materialize(overrides)
        cap_limit = inf_val * (n_inf + 1) if limit is None else _checked_limit(limit)
        value = _dinic(len(self._names), self._to, self._adj, caps, s, t, cap_limit)
        return value, (caps, inf_val, s, t)

    def _source_side(self, state: tuple) -> frozenset[str]:
        """Vertices reachable from s in the residual graph (= min-cut
        source side)."""
        caps, _, s, _ = state
        to = self._to
        seen = [False] * len(self._names)
        seen[s] = True
        queue = [s]
        for u in queue:
            for e in self._adj[u]:
                if caps[e] > 0 and not seen[to[e]]:
                    seen[to[e]] = True
                    queue.append(to[e])
        return frozenset(self._names[i] for i in queue)

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
        value, state = self._solve(src, dst, overrides, limit)
        if not want_cut:
            return value
        return FlowResult(value=value, source_side=self._source_side(state))

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
        value, state = self._solve(src, dst, overrides, limit)
        return FlowResult(value=value, source_side=self._source_side(state)), state

    def resume(self, state: tuple, boost_arcs, limit: int) -> int:
        """Extra flow after raising zero-capacity arcs to infinity.

        `state` must come from a `run_keep` whose flow converged; the boost
        arcs must have had zero capacity there (the residual is reused, so a
        previously-used arc cannot simply be rewritten).  Returns the flow
        gained, up to `limit`; the state itself is left untouched.
        """
        limit = _checked_limit(limit)
        caps, inf_val, s, t = state
        work = caps.copy()
        for arc_id in boost_arcs:
            pos = self._position(arc_id)
            if work[pos] != 0 or work[pos + 1] != 0:
                raise CollschedError("resume boosts must be unused zero-capacity arcs")
            work[pos] = inf_val
        return _dinic(len(self._names), self._to, self._adj, work, s, t, limit)


def _bad_capacity(cap) -> CollschedError:
    return CollschedError(f"arc capacity must be a non-negative int or INF, got {cap!r}")


def _checked_limit(limit) -> int:
    if type(limit) is not int or limit < 0:
        raise CollschedError(f"flow limit must be a non-negative int, got {limit!r}")
    return limit


def _unknown_vertex(exc: KeyError) -> CollschedError:
    return CollschedError(f"vertex {exc.args[0]!r} not in flow graph")


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

