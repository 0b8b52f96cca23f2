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
`run_keep` adds a min-cut witness and the residual state R.  On that state
`reach` finds the vertices reachable along arcs of at least a given
residual capacity (at 1 from the source, the min-cut witness itself), and
`resume` pushes more flow in place from a set of sources to a sink: the
amount is the least R-capacity of a cut holding the sources but not the
sink, up to a limit.  Successive resumes share R as long as each one's
sources hold every earlier resume's sources and sink (Hao & Orlin's
growing source set), which the engine checks.

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
        overrides applied: the value and the residual state (caps, pinned),
        pinned being the terminals later resumes must keep as sources.
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
        value = _dinic(len(self._names), self._to, self._adj, caps, [s], t, limit)
        return value, (caps, set())

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
        the residual state R for `reach` and `resume`.

        The returned cut is only meaningful when the flow converged (value
        below `limit`).
        """
        value, state = self._solve(src, dst, overrides, limit)
        return FlowResult(value=value, source_side=self.reach(state, (src,), 1)), state

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
        try:
            names = iter(sources)
        except TypeError:
            raise CollschedError(f"resume sources {sources!r} are not an iterable of vertices") from None
        starts = list(dict.fromkeys(self._vertex(name) for name in names))
        t = self._vertex(sink)
        if t in starts:
            raise CollschedError(f"resume sink {sink!r} is among its sources")
        if not pinned.issubset(starts):
            raise CollschedError(
                "resume sources must hold every source and sink of earlier resumes on this state"
            )
        pushed = _dinic(len(self._names), self._to, self._adj, caps, starts, t, limit)
        pinned.update(starts)
        pinned.add(t)
        return pushed


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


def _dinic(n, to, adj, cap, sources, t, limit):
    """Dinic blocking-flow max flow from the vertices `sources` to t, in
    place on `cap`, stopping once `limit` units are placed."""
    total = 0
    while total < limit:
        # BFS level graph, stopped once the sink has a level: no other
        # vertex at or past that level lies on a shortest augmenting path.
        level = [-1] * n
        for s in sources:
            level[s] = 0
        queue = list(sources)
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
        for s in sources:
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
                        break  # this source is exhausted for the phase
                    level[u] = -1  # dead end; prune for the rest of the phase
                    e = path.pop()
                    u = to[e ^ 1]
                    it[u] += 1
    return total

