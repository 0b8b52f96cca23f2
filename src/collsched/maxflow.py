"""Exact integer maximum flow (Dinic).

The engine works on named vertices and paired forward/backward arc entries.
A graph is built in one call, `FlowGraph(vertices, arcs)`, and an arc's id
is its position in `arcs`.  Every capacity is a non-negative int, checked
against the 63-bit budget; any other capacity, an unhashable or unknown
vertex, a malformed arc, an arc id out of range, overrides that are not a
dict or a `limit` that is not a non-negative int raises CollschedError.

`FlowGraph.run` never changes the graph (it runs on a copy of the
capacities).  Repeated queries that differ from a template by a handful of
arc capacities pass overrides keyed by arc id, which is what the switch
removal and tree packing layers lean on; an optional `limit` makes the
engine stop early once `limit` units of flow are placed, returning
min(true max flow, limit) exactly.  `run` returns that value and
`run_keep` adds a min-cut witness and the residual state, on which
`resume` answers capacity-increase what-ifs and `reach` finds the
vertices reachable along arcs of at least a given residual capacity (at
1 from the source, the min-cut witness itself).

There is no infinite capacity.  An arc that must never bind is given a
capacity of at least the run's limit L: any cut through it is worth at
least L, so min(max flow, L) cannot change.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CollschedError, Overflow
from .topology import CAPACITY_BUDGET


@dataclass(frozen=True)
class FlowResult:
    """Exact max-flow value plus a min-cut witness: the set of vertex
    names on the source side of one minimum cut."""

    value: int
    source_side: frozenset[str]


def fresh_name(base: str, taken) -> str:
    """A vertex name not colliding with any existing id."""
    name = base
    while name in taken:
        name = "_" + name
    return name


class FlowGraph:
    """Directed flow network with named vertices.

    `FlowGraph(vertices, arcs)` takes the vertex names in order and the arcs
    as (src, dst, cap) triples, cap a non-negative int.  Arc i is the i-th
    triple: its id i is the key for overriding its capacity in later runs.
    Arcs are stored as paired entries (forward at 2*i, residual at 2*i+1).
    """

    def __init__(self, vertices, arcs):
        self._names = names = list(vertices)
        try:
            self._idx = idx = {name: i for i, name in enumerate(names)}
        except TypeError:
            raise CollschedError("flow graph vertices must be hashable") from None
        if len(idx) != len(names):
            raise CollschedError("duplicate vertex names")
        self._to = to = []
        self._cap0 = cap0 = []
        self._adj = adj = [[] for _ in names]
        total = 0
        entry = 0
        for arc in arcs:
            try:
                src, dst, cap = arc
                u = idx[src]
                v = idx[dst]
            except KeyError as exc:
                raise CollschedError(f"vertex {exc.args[0]!r} not in flow graph") from None
            except (TypeError, ValueError):
                raise CollschedError(
                    f"arc {arc!r} is not a (src, dst, cap) triple with hashable endpoints"
                ) from None
            if type(cap) is not int or cap < 0:
                raise _bad_capacity(cap)
            total += cap
            to.append(v)
            cap0.append(cap)
            to.append(u)
            cap0.append(0)
            adj[u].append(entry)
            adj[v].append(entry + 1)
            entry += 2
        self._total = _checked_total(total)

    @classmethod
    def from_arcs(cls, vertices, arcs) -> "FlowGraph":
        """Same as `FlowGraph(vertices, arcs)`; perfbench's tracer wraps
        this name."""
        return cls(vertices, arcs)

    # -- execution ----------------------------------------------------------
    def _vertex(self, name) -> int:
        try:
            return self._idx[name]
        except (KeyError, TypeError):
            raise CollschedError(f"vertex {name!r} not in flow graph") from None

    def _position(self, arc_id) -> int:
        """Forward entry of arc `arc_id`, an int in [0, number of arcs)."""
        if type(arc_id) is not int or not 0 <= 2 * arc_id < len(self._to):
            raise CollschedError(f"no arc with id {arc_id!r} in flow graph")
        return 2 * arc_id

    def _solve(self, src, dst, overrides, limit) -> tuple[int, tuple]:
        """Max flow src->dst on a fresh copy of the capacities with the
        overrides applied: the value and the residual state (caps, s, t).
        Without a limit the flow stops at the capacity sum, which it cannot
        exceed."""
        s = self._vertex(src)
        t = self._vertex(dst)
        if s == t:
            raise CollschedError("source and sink must differ")
        caps = self._cap0.copy()
        total = self._total
        if overrides is not None:
            if not isinstance(overrides, dict):
                raise CollschedError(f"overrides {overrides!r} do not map arc ids to capacities")
            for arc_id, cap in overrides.items():
                pos = self._position(arc_id)
                if type(cap) is not int or cap < 0:
                    raise _bad_capacity(cap)
                total += cap - caps[pos]
                caps[pos] = cap
            _checked_total(total)
        limit = total if limit is None else _checked_limit(limit)
        value = _dinic(len(self._names), self._to, self._adj, caps, s, t, limit)
        return value, (caps, s, t)

    def reach(self, state: tuple, starts, at_least: int) -> frozenset[str]:
        """Vertices reachable from the vertices `starts` in the residual
        graph of `state` (from `run_keep`) along arcs of residual capacity
        at least `at_least`, an int >= 1.

        With `at_least` = 1 from the source of a converged run this is the
        source side of a minimum cut.  Any cut that leaves out a vertex
        reached at `at_least` but holds one of `starts` costs at least
        `at_least` in the residual graph, since the path crosses it.
        """
        if type(at_least) is not int or at_least < 1:
            raise CollschedError(f"reach threshold must be an int >= 1, got {at_least!r}")
        caps = state[0]
        to = self._to
        adj = self._adj
        seen = [False] * len(self._names)
        queue = []
        try:
            names = iter(starts)
        except TypeError:
            raise CollschedError(f"reach starts {starts!r} are not an iterable of vertices") from None
        for name in names:
            i = self._vertex(name)
            if not seen[i]:
                seen[i] = True
                queue.append(i)
        for u in queue:
            for e in adj[u]:
                if caps[e] >= at_least and not seen[to[e]]:
                    seen[to[e]] = True
                    queue.append(to[e])
        return frozenset(self._names[i] for i in queue)

    def run(
        self,
        src: str,
        dst: str,
        overrides: dict[int, int] | None = None,
        limit: int | None = None,
    ) -> int:
        """Max flow src->dst on a copy of the capacities.

        overrides maps arc id -> new capacity applied to the forward entry
        before the run.  With `limit`, returns min(max flow, limit).
        """
        return self._solve(src, dst, overrides, limit)[0]

    def run_keep(
        self,
        src: str,
        dst: str,
        overrides: dict[int, int] | None = None,
        limit: int | None = None,
    ) -> tuple[FlowResult, tuple]:
        """Like `run`, but returns the value with a min-cut witness, plus
        the residual state so `resume` can answer capacity-increase
        what-ifs without a fresh run.

        The returned cut is only meaningful when the flow converged (value
        below `limit`); a limit-stopped run's state must not be resumed.
        """
        value, state = self._solve(src, dst, overrides, limit)
        return FlowResult(value=value, source_side=self.reach(state, (src,), 1)), state

    def resume(self, state: tuple, boost_arcs, limit: int) -> int:
        """Extra flow after raising zero-capacity arcs to `limit`.

        `state` must come from a `run_keep` whose flow converged; the boost
        arcs must have had zero capacity there (the residual is reused, so a
        previously-used arc cannot simply be rewritten).  Returns the flow
        gained, up to `limit`, which a boost arc can never bind; the state
        itself is left untouched.
        """
        limit = _checked_limit(limit)
        caps, s, t = state
        work = caps.copy()
        try:
            boosts = iter(boost_arcs)
        except TypeError:
            raise CollschedError(f"boost arcs {boost_arcs!r} are not an iterable of arc ids") from None
        for arc_id in boosts:
            pos = self._position(arc_id)
            if work[pos] != 0 or work[pos + 1] != 0:
                raise CollschedError("resume boosts must be unused zero-capacity arcs")
            work[pos] = limit
        return _dinic(len(self._names), self._to, self._adj, work, s, t, limit)


def _bad_capacity(cap) -> CollschedError:
    return CollschedError(f"arc capacity must be a non-negative int, got {cap!r}")


def _checked_total(total: int) -> int:
    if total > CAPACITY_BUDGET:
        raise Overflow(f"capacity sum {total} exceeds the 63-bit budget")
    return total


def _checked_limit(limit) -> int:
    if type(limit) is not int or limit < 0:
        raise CollschedError(f"flow limit must be a non-negative int, got {limit!r}")
    return limit


def _dinic(n, to, adj, cap, s, t, limit):
    """Dinic blocking-flow max flow, stopping once `limit` units are placed."""
    total = 0
    while total < limit:
        # BFS level graph, stopped once the sink has a level: no other
        # vertex at or past that level lies on a shortest augmenting path.
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
            if level[t] >= 0:
                break
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

