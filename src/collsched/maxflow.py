"""Exact integer maximum flow (Dinic).

The engine works on named vertices and paired forward/backward arc entries.
A graph is built in one call, `FlowGraph(vertices, arcs)`.  Every capacity
is a non-negative int, checked against the 63-bit budget; any other
capacity, an unhashable or unknown vertex, a malformed arc or a `limit`
that is not a non-negative int raises CollschedError.

A flow runs between terminal sets: `run(sources, sinks)` is the max flow
from the vertices `sources` to the vertices `sinks`, that is the least
capacity of a cut holding every source and no sink.  Each set is a
non-empty iterable of vertex names, and the two are disjoint; a bare
string, an empty or overlapping set or a non-iterable raises
CollschedError.  A run never changes the graph (it works on a copy of the
capacities), and an optional `limit` makes the engine stop early once
`limit` units of flow are placed, returning min(max flow, limit) exactly.

`run` returns that value and `run_keep` adds the residual state R.  On
that state `reach` finds the vertices reachable along arcs of at least a
given residual capacity; at 1 from the sources of a flow that stopped
short of its limit, that is the source side of a minimum cut, so a caller
that wants a min-cut witness asks `reach` for it.  `resume` pushes more
flow in place from a set of sources to a sink: the amount is the least
R-capacity of a cut holding the sources but not the sink, up to a limit.
Successive resumes share R as long as each one's sources hold every
earlier resume's sources and sink (Hao & Orlin's growing source set),
which the engine checks.

There is no infinite capacity.  An arc that must never bind is given a
capacity of at least the run's limit L: any cut through it is worth at
least L, so min(max flow, L) cannot change.  Where such an arc serves only
to put a vertex on a terminal's side of every cut below L, the vertex goes
into that terminal set instead.
"""

from __future__ import annotations

from .errors import CollschedError, Overflow
from .topology import CAPACITY_BUDGET


def fresh_name(base: str, taken) -> str:
    """A vertex name not colliding with any existing id."""
    name = base
    while name in taken:
        name = "_" + name
    return name


class FlowGraph:
    """Directed flow network with named vertices.

    `FlowGraph(vertices, arcs)` takes the vertex names in order and the arcs
    as (src, dst, cap) triples, cap a non-negative int.  Arcs are stored as
    paired entries (the i-th triple forward at 2*i, residual at 2*i+1).
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
                raise CollschedError(f"arc capacity must be a non-negative int, got {cap!r}")
            total += cap
            to.append(v)
            cap0.append(cap)
            to.append(u)
            cap0.append(0)
            adj[u].append(entry)
            adj[v].append(entry + 1)
            entry += 2
        if total > CAPACITY_BUDGET:
            raise Overflow(f"capacity sum {total} exceeds the 63-bit budget")
        self._total = total

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

    def _vertices(self, names, what: str) -> list[int]:
        """Indices of the vertex names `names`, a non-empty iterable that is
        not a string, in order with repeats dropped; `what` names the set in
        errors."""
        if isinstance(names, str):
            raise CollschedError(f"{what} {names!r} is a string, not a collection of vertices")
        try:
            found = list(map(self._idx.__getitem__, names))
        except KeyError as exc:
            raise CollschedError(f"vertex {exc.args[0]!r} not in flow graph") from None
        except TypeError:
            raise CollschedError(
                f"{what} {names!r} are not an iterable of hashable vertex names"
            ) from None
        if not found:
            raise CollschedError(f"{what} must hold at least one vertex")
        return found if len(found) == 1 else list(dict.fromkeys(found))

    def _solve(self, sources, sinks, limit) -> tuple[int, tuple]:
        """Max flow from `sources` to `sinks` on a fresh copy of the
        capacities: the value and the residual state (caps, pinned), pinned
        being the terminals later resumes must keep as sources.  Without a
        limit the flow stops at the capacity sum, which it cannot exceed."""
        starts = self._vertices(sources, "sources")
        ends = self._vertices(sinks, "sinks")
        if not set(starts).isdisjoint(ends):
            raise CollschedError("sources and sinks must be disjoint")
        limit = self._total if limit is None else _checked_limit(limit)
        caps = self._cap0.copy()
        value = _dinic(len(self._names), self._to, self._adj, caps, starts, ends, limit)
        return value, (caps, set())

    def reach(self, state: tuple, starts, at_least: int) -> frozenset[str]:
        """Vertices reachable from the vertices `starts` in the residual
        graph of `state` (from `run_keep`) along arcs of residual capacity
        at least `at_least`, an int >= 1.

        With `at_least` = 1 from the sources of a run that stopped short of
        its limit this is the source side of a minimum cut.  Any cut that
        leaves out a vertex reached at `at_least` but holds one of `starts`
        costs at least `at_least` in the residual graph, since the path
        crosses it.
        """
        if type(at_least) is not int or at_least < 1:
            raise CollschedError(f"reach threshold must be an int >= 1, got {at_least!r}")
        caps = state[0]
        to = self._to
        adj = self._adj
        queue = self._vertices(starts, "reach starts")
        seen = [False] * len(self._names)
        for i in queue:
            seen[i] = True
        for u in queue:
            for e in adj[u]:
                if caps[e] >= at_least and not seen[to[e]]:
                    seen[to[e]] = True
                    queue.append(to[e])
        return frozenset(self._names[i] for i in queue)

    def run(self, sources, sinks, limit: int | None = None) -> int:
        """Max flow from the vertices `sources` to the vertices `sinks` on
        a copy of the capacities.  With `limit`, returns
        min(max flow, limit)."""
        return self._solve(sources, sinks, limit)[0]

    def run_keep(self, sources, sinks, limit: int | None = None) -> tuple[int, tuple]:
        """Like `run`, but returns the value together with the residual
        state R for `reach` and `resume`.

        A caller that wants a min cut asks `reach(state, sources, 1)` for
        its source side, which is only meaningful when the flow came up
        short of `limit`.
        """
        return self._solve(sources, sinks, limit)

    def resume(self, state: tuple, sources, sink, limit: int) -> int:
        """Push up to `limit` more units from the vertices `sources` to
        `sink` into `state` (from `run_keep`), in place; returns the amount
        pushed: min(limit, least residual capacity in R of a cut X that
        holds every source but not the sink), R being the residual
        `run_keep` left.

        Terminal rule: `sources` must hold every source and the sink of
        each earlier resume on the same state.  Flow pushed between
        vertices of X leaves X's residual capacity as it was in R, but a
        cut that splits an earlier call's terminals has lost that flow's
        worth, so such a call is refused, as is a sink among the sources.
        """
        limit = _checked_limit(limit)
        caps, pinned = state
        starts = self._vertices(sources, "resume sources")
        t = self._vertex(sink)
        if t in starts:
            raise CollschedError(f"resume sink {sink!r} is among its sources")
        if not pinned.issubset(starts):
            raise CollschedError(
                "resume sources must hold every source and sink of earlier resumes on this state"
            )
        pushed = _dinic(len(self._names), self._to, self._adj, caps, starts, [t], limit)
        pinned.update(starts)
        pinned.add(t)
        return pushed


def _checked_limit(limit) -> int:
    if type(limit) is not int or limit < 0:
        raise CollschedError(f"flow limit must be a non-negative int, got {limit!r}")
    return limit


def _dinic(n, to, adj, cap, sources, sinks, limit):
    """Dinic blocking-flow max flow from the vertices `sources` to the
    vertices `sinks`, in place on `cap`, stopping once `limit` units are
    placed."""
    is_sink = [False] * n
    for t in sinks:
        is_sink[t] = True
    total = 0
    while total < limit:
        # BFS level graph, stopped once every sink has a level or the level
        # of the nearest sinks is complete: no vertex past it lies on a
        # shortest augmenting path.
        level = [-1] * n
        for s in sources:
            level[s] = 0
        queue = list(sources)
        last = n
        missing = len(sinks)
        for u in queue:
            lu = level[u] + 1
            if lu > last or not missing:
                break
            for e in adj[u]:
                if cap[e] > 0:
                    v = to[e]
                    if level[v] < 0:
                        level[v] = lu
                        queue.append(v)
                        if is_sink[v]:
                            last = lu
                            missing -= 1
        if last == n:
            break
        it = [0] * n
        for s in sources:
            path: list[int] = []
            u = s
            while True:
                if is_sink[u]:
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
                        break  # this source is exhausted for the phase
                    level[u] = -1  # dead end; prune for the rest of the phase
                    e = path.pop()
                    u = to[e ^ 1]
                    it[u] += 1
    return total
