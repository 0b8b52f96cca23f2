"""Exact integer maximum flow (Dinic).

The engine works on vertex indices and paired forward/backward arc
entries.  A graph is built in one call, `FlowGraph(vertices, arcs)`.
Every capacity is a non-negative int, checked against the 63-bit budget;
any other capacity, a string given as the vertex list, an unhashable or
unknown vertex, a malformed arc or a `limit` that is not a non-negative
int raises CollschedError.  The public methods take vertex names, check
their input where it enters and call an index-level twin: `_capacity`,
`_lower`, `_keep`, and `_raise` for `grow`'s arcs (`_arc` finds a pair's
entry).  The packer and the splitter resolve their vertices once and call
the twins, which still refuse a cut that is not an int in [0, cap] and a
sink among the supplies.

The graph is the network as it stands, and every flow is a residual state
on it.  Each vertex pair has at most one arc, and an arc is in the
adjacency lists exactly while its capacity is positive; `capacity`, `arcs`
and `arcs_at` read it.  `state()` carries no flow.  `grow` adds vertices
and arcs, which every state gains carrying no flow, or raises the arc of a
pair that has one.  `lower` cuts one arc's capacity.  Both edit the graph
only, and an arc edited in place goes on the graph's edit log; a state
remembers how far into the log it has been brought.  `keep` holds a flow
into a sink through edits and changes of its supplies: it brings the state
to the end of the log, clamping its flow on every arc edited since to the
arc's new capacity, which leaves d units of imbalance at the tail and -d
at the head of an arc that dropped d (a raised arc drops nothing), and
routes that imbalance and the change of supplies in one push; what it
leaves unrouted is a cut question's answer, and the state owes it to the
next `keep`.  A state records the supplies and the sink of its last `keep`,
so the next routes the change from that flow, into the same sink or
another.  Every other call on a state refuses one that is behind the
log, and a later state starts from the edited network.

A flow runs between terminal sets: `run(sources, sinks)` is the max flow
from the vertices `sources` to the vertices `sinks`, that is the least
capacity of a cut holding every source and no sink.  Each set is a
non-empty iterable of vertex names, and the two are disjoint; a bare
string, an empty or overlapping set or a non-iterable raises
CollschedError.  A run works on a fresh state, and an optional `limit`
makes the engine stop early once `limit` units of flow are placed,
returning min(max flow, limit) exactly.

`run_keep` also returns that state R.  On it `reach` finds the vertices
reachable along arcs of at least a given residual capacity; at 1 from the
sources of a flow that stopped short of its limit, that is the source side
of a minimum cut.  `resume` pushes more flow in place from a set of
sources to a sink: the amount is the least R-capacity of a cut holding the
sources but not the sink, up to a limit.  Successive resumes share R as
long as each one's sources hold every earlier resume's sources and sink
(Hao & Orlin's growing source set), which the engine checks; a fresh
state has no earlier terminals.  These are the engine's cut questions.
`short_sink` asks the one the search and the splitter share: the first of
a list of sinks short of a demand, and its cut, by one pass of resumes.

`push` moves more flow between vertex sets in place with no terminal
rule.  Either set may give each vertex an amount, the most it sends or
takes, so one push routes every excess to every deficit at once (a
transshipment: the max flow from a super source with an arc of each
source's amount to a super sink with an arc of each sink's).  `run_keep`
is a fresh state plus one push; `resume` and `keep` resolve their
terminals once and run push's last step, the one caller of Dinic
(`_dinic`, which finds the textbook Dinic's augmenting paths).  The
search, the splitter and the packer build their graphs in one place,
`source_network`.

There is no infinite capacity.  An arc that must never bind is given a
capacity of at least the run's limit L: any cut through it is worth at
least L, so min(max flow, L) cannot change.  Where such an arc serves only
to put a vertex on a terminal's side of every cut below L, the vertex goes
into that terminal set instead.
"""

from __future__ import annotations

from .errors import CollschedError, Overflow
from .topology import CAPACITY_BUDGET, Topology


def fresh_name(base: str, taken) -> str:
    """A vertex name not colliding with any existing id."""
    name = base
    while name in taken:
        name = "_" + name
    return name


def source_network(t: Topology, capacity: dict, supply: int) -> tuple[FlowGraph, str, int]:
    """`t`'s nodes with the arcs `capacity`, a dict from (src, dst) to
    capacity, and a fresh source with a `supply` arc into each compute
    node, as (graph, source, demand), the demand being N * supply."""
    source = fresh_name("s", t.node_by_id)
    arcs = [(a, b, c) for (a, b), c in capacity.items()]
    arcs += [(source, c, supply) for c in t.compute_ids]
    graph = FlowGraph([n.id for n in t.nodes] + [source], arcs)
    return graph, source, t.num_compute * supply


class FlowGraph:
    """Directed flow network with named vertices.

    `FlowGraph(vertices, arcs)` takes the vertex names in order (not as a
    string) and the arcs as (src, dst, cap) triples, cap a non-negative
    int; the arcs given for one pair merge into one.  An arc is stored as
    a forward entry and its residual twin right after it.
    """

    def __init__(self, vertices, arcs):
        self._names = []
        self._idx = {}
        self._to = []
        self._cap0 = []
        self._adj = []
        self._entry = {}  # (tail, head) by index -> the pair's forward entry
        self._total = 0
        self._log = []  # forward entries of the arcs edited in place, in order
        self.grow(vertices, arcs)

    def grow(self, vertices, arcs) -> None:
        """Add the vertices `vertices` and the arcs `arcs`, checked as the
        constructor checks them; on any error nothing changes.  An arc for a
        pair that has one already raises that arc in place and is logged
        for `keep`; a state made before gains a new arc carrying no
        flow."""
        if isinstance(vertices, str):
            raise CollschedError(f"vertices {vertices!r} are a string, not a collection")
        idx = self._idx
        new = {}
        for name in vertices:
            try:
                known = name in idx or name in new
            except TypeError:
                raise CollschedError("flow graph vertices must be hashable") from None
            if known:
                raise CollschedError("duplicate vertex names")
            new[name] = len(idx) + len(new)
        checked = []
        total = self._total
        for arc in arcs:
            try:
                src, dst, cap = arc
                u = new[src] if src in new else idx[src]
                v = new[dst] if dst in new else idx[dst]
            except KeyError as exc:
                raise CollschedError(f"vertex {exc.args[0]!r} not in flow graph") from None
            except (TypeError, ValueError):
                raise CollschedError(
                    f"arc {arc!r} is not a (src, dst, cap) triple with hashable endpoints"
                ) from None
            if type(cap) is not int or cap < 0:
                raise CollschedError(f"arc capacity must be a non-negative int, got {cap!r}")
            total += cap
            checked.append((u, v, cap))
        if total > CAPACITY_BUDGET:
            raise Overflow(f"capacity sum {total} exceeds the 63-bit budget")
        idx.update(new)
        self._names += new
        self._adj += ([] for _ in new)
        self._raise(checked)

    def _raise(self, arcs: list[tuple[int, int, int]]) -> None:
        """`grow`'s arc step: raise u -> v by `amount` for each (u, v,
        amount) by index.  The caller keeps the capacity sum within the
        budget: `grow` checks it, and a split raises what it lowered."""
        to, cap0, adj, entry, log = self._to, self._cap0, self._adj, self._entry, self._log
        total = self._total
        for u, v, amount in arcs:
            e = entry.get((u, v))
            if e is None:
                entry[u, v] = e = len(to)
                to += (v, u)
                cap0 += (0, 0)
            elif amount:
                log.append(e)
            if amount and not cap0[e]:
                adj[u].append(e)
                adj[v].append(e + 1)
            cap0[e] += amount
            total += amount
        self._total = total

    @classmethod
    def from_arcs(cls, vertices, arcs) -> "FlowGraph":
        """Same as `FlowGraph(vertices, arcs)`; perfbench's tracer wraps
        this name."""
        return cls(vertices, arcs)

    def capacity(self, src, dst) -> int:
        """Capacity of the arc from `src` to `dst` as it stands, 0 if there
        is none."""
        return self._capacity(self._arc(self._vertex(src), self._vertex(dst)))

    def _arc(self, u: int, v: int) -> int | None:
        """The forward entry of the pair (u, v) by index, or None."""
        return self._entry.get((u, v))

    def _capacity(self, e: int | None) -> int:
        """Capacity of the arc of forward entry `e`, 0 for None."""
        return 0 if e is None else self._cap0[e]

    def arcs(self) -> list[tuple]:
        """The arcs of positive capacity as (src, dst, cap) triples, in the
        order their pairs were first added."""
        names, cap0 = self._names, self._cap0
        return [(names[u], names[v], cap0[e]) for (u, v), e in self._entry.items() if cap0[e]]

    def arcs_at(self, v) -> tuple[list[tuple], list[tuple]]:
        """The arcs of positive capacity at `v`, read off its adjacency
        list: (head, cap) for each arc out of v and (tail, cap) for each
        arc into it."""
        names, to, cap0 = self._names, self._to, self._cap0
        out, into = [], []
        for e in self._adj[self._vertex(v)]:
            if e & 1:
                into.append((names[to[e]], cap0[e ^ 1]))
            else:
                out.append((names[to[e]], cap0[e]))
        return out, into

    # -- execution ----------------------------------------------------------
    def _vertex(self, name) -> int:
        try:
            return self._idx[name]
        except (KeyError, TypeError):
            raise CollschedError(f"vertex {name!r} not in flow graph") from None

    def _rooms(self, names, what: str, room: int) -> dict[int, int]:
        """The vertices `names` by index, each with its room: its amount if
        `names` is a dict from vertex name to amount, else `room`.  `names`
        is a non-empty iterable of vertex names, not a string, and repeats
        are dropped; `what` names the set in errors."""
        if isinstance(names, str):
            raise CollschedError(f"{what} {names!r} is a string, not a collection of vertices")
        idx = self._idx
        try:
            if type(names) is not dict:
                rooms = {idx[name]: room for name in names}
            else:
                rooms = {}
                for name, amount in names.items():
                    if type(amount) is not int or amount < 0:
                        raise CollschedError(
                            f"{what} amount of {name!r} must be a non-negative int, got {amount!r}"
                        )
                    rooms[idx[name]] = amount
        except KeyError as exc:
            raise CollschedError(f"vertex {exc.args[0]!r} not in flow graph") from None
        except TypeError:
            raise CollschedError(
                f"{what} {names!r} are not an iterable of hashable vertex names"
            ) from None
        if not rooms:
            raise CollschedError(f"{what} must hold at least one vertex")
        return rooms

    def _caps(self, state: list) -> list[int]:
        """The residual capacities of `state`, first given the entries of
        arcs grown since it was made, which carry no flow; a state behind
        the edit log is refused."""
        caps = state[0]
        if state[2] != len(self._log):
            raise CollschedError(
                "the state is behind the graph's edits; only keep brings a state up to them"
            )
        if len(caps) < len(self._cap0):
            caps += self._cap0[len(caps):]
        return caps

    def state(self) -> list:
        """A residual state that carries no flow: every arc at its
        capacity.  A state is [caps, pinned, seen, owed, kept], pinned
        being the terminals later resumes on it must keep as sources, seen
        the length of the edit log it has been brought to, owed the
        imbalance, by vertex index, that its last `keep` left unrouted, and
        kept the flow that `keep` asked for: each supply's units and the
        sink at minus their sum, by vertex index, empty until the first
        `keep`.  `push` and `resume` leave kept as it is, so a state they
        add flow to carries more than it records."""
        return [self._cap0.copy(), set(), len(self._log), {}, {}]

    def lower(self, src, dst, amount: int) -> None:
        """Lower the capacity of the arc from `src` to `dst` in the graph by
        `amount`, in place, and log the arc for `keep`; an arc lowered
        to zero leaves the adjacency lists.  `amount` must be a
        non-negative int no larger than the arc's capacity; otherwise
        nothing changes."""
        e = self._arc(self._vertex(src), self._vertex(dst))
        if e is None:
            raise CollschedError(f"no arc from {src!r} to {dst!r} in the flow graph")
        self._lower(e, amount)

    def _lower(self, e: int, amount: int) -> None:
        """`lower` on the arc of forward entry `e`."""
        cap = self._cap0[e]
        if type(amount) is not int or not 0 <= amount <= cap:
            tail, head = self._names[self._to[e ^ 1]], self._names[self._to[e]]
            raise CollschedError(f"cannot lower {tail!r} -> {head!r} of capacity {cap} by {amount!r}")
        self._cap0[e] = cap - amount
        self._total -= amount
        self._log.append(e)
        if amount and amount == cap:
            self._adj[self._to[e ^ 1]].remove(e)
            self._adj[self._to[e]].remove(e + 1)

    def _catch_up(self, state: list) -> dict[int, int]:
        """Bring `state` to the graph's edits, in place, cutting its flow on
        every arc edited since to the arc's capacity.  Returns the imbalance
        left by vertex index, balanced vertices left out: what the state
        owed, plus d at a and -d at b for a drop of d units on an arc
        (a, b).  A push from the vertices above zero to those below, at
        these amounts, routes them again; the state owes nothing more."""
        log = self._log
        seen = state[2]
        state[2] = len(log)  # up to date before `_caps`, which refuses a stale state
        caps = self._caps(state)
        cap0, to = self._cap0, self._to
        need: dict = state[3]
        state[3] = {}
        for e in log[seen:]:
            cap = cap0[e]
            flow = caps[e ^ 1]
            if flow > cap:
                tail, head = to[e ^ 1], to[e]
                need[tail] = need.get(tail, 0) + flow - cap
                need[head] = need.get(head, 0) - flow + cap
                flow = cap
                caps[e ^ 1] = cap
            caps[e] = cap - flow
        return {v: d for v, d in need.items() if d}

    def keep(self, state: list, supplies: dict, sink) -> int:
        """Bring `state` from the flow its last `keep` asked for (none on a
        fresh state) to a flow of `supplies` into `sink` on the graph as it
        stands, in place, by catching it up and one push, and record the
        new flow in the state.  Supplies map vertex names to units, each a
        non-negative int, and the sink takes their sum.  Returns the units
        the push left unrouted, which the state owes: 0 when it carries the
        flow asked for, else the most by which `supplies` inside a vertex
        set without the sink exceed the set's capacity.  Arguments refused
        with CollschedError leave `state` as it was."""
        if type(supplies) is not dict:
            raise CollschedError("supplies must be a dict from vertex name to units")
        return self._keep(state, self._rooms(supplies, "supplies", 0), self._vertex(sink))

    def _keep(self, state: list, supplies: dict, t: int) -> int:
        """`keep` by vertex index; a sink among the supplies is refused
        before the state is touched."""
        if t in supplies:
            raise CollschedError(f"sink {self._names[t]!r} is among the supplies")
        need = self._catch_up(state)
        for v, units in supplies.items():
            need[v] = need.get(v, 0) + units
        for v, units in state[4].items():
            need[v] = need.get(v, 0) - units
        need[t] = need.get(t, 0) - sum(supplies.values())
        state[4] = {**supplies, t: -sum(supplies.values())}
        excess = {v: d for v, d in need.items() if d > 0}
        deficit = {v: -d for v, d in need.items() if d < 0}
        want = sum(excess.values())
        short = want and want - self._push(state, excess, deficit, want)
        if short:
            state[3] = {v: d for v, d in excess.items() if d}
            state[3].update((v, -d) for v, d in deficit.items() if d)
        return short

    def push(self, state: list, sources, sinks, limit: int) -> int:
        """Push up to `limit` more units from the vertices `sources` to the
        vertices `sinks` into `state`, in place; returns the amount pushed.
        Either set may be a dict from vertex name to the most that vertex
        sends or takes; a vertex listed without an amount may send or take
        up to `limit`.

        Unlike `resume` this answers no cut question and keeps no terminal
        rule.
        """
        limit = _checked_limit(limit)
        starts = self._rooms(sources, "sources", limit)
        ends = self._rooms(sinks, "sinks", limit)
        if not starts.keys().isdisjoint(ends):
            raise CollschedError("sources and sinks must be disjoint")
        return self._push(state, starts, ends, limit)

    def _push(self, state: list, starts: dict, ends: dict, limit: int) -> int:
        """`push` on disjoint terminals resolved to {index: room}, as
        `resume` and `keep` run it too; the state must be caught up."""
        caps = self._caps(state)
        return _dinic(len(self._names), self._to, self._adj, caps, starts, ends, limit)

    def reach(self, state: list, starts, at_least: int) -> frozenset[str]:
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
        caps = self._caps(state)
        to = self._to
        adj = self._adj
        queue = list(self._rooms(starts, "reach starts", 0))
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
        the network as it stands.  With `limit`, returns
        min(max flow, limit)."""
        return self.run_keep(sources, sinks, limit)[0]

    def run_keep(self, sources, sinks, limit: int | None = None) -> tuple[int, list]:
        """Like `run`, but returns the value together with the residual
        state R for `reach` and `resume`: a fresh `state()` and one `push`.
        Without a limit the flow stops at the capacity sum, which it cannot
        exceed.
        """
        state = self.state()
        return self.push(state, sources, sinks, self._total if limit is None else limit), state

    def resume(self, state: list, sources, sink, limit: int) -> int:
        """Push up to `limit` more units from the vertices `sources` to
        `sink` into `state`, in place; returns the amount pushed:
        min(limit, least residual capacity in R of a cut X that holds every
        source but not the sink), R being the state's residual before its
        first resume.

        Terminal rule: `sources` must hold every source and the sink of
        each earlier resume on the same state.  Flow pushed between
        vertices of X leaves X's residual capacity as it was in R, but a
        cut that splits an earlier call's terminals has lost that flow's
        worth, so such a call is refused, as is a sink among the sources.
        A source given an amount could send less than the cut, so `sources`
        may not be a dict.
        """
        limit = _checked_limit(limit)
        if type(sources) is dict:
            raise CollschedError("resume sources take no amounts")
        starts = self._rooms(sources, "resume sources", limit)
        t = self._vertex(sink)
        if t in starts:
            raise CollschedError("sources and sinks must be disjoint")
        pinned = state[1]
        if not pinned.issubset(starts):
            raise CollschedError(
                "resume sources must hold every source and sink of earlier resumes on this state"
            )
        pushed = self._push(state, starts, {t: limit}, limit)
        pinned.update(starts)
        pinned.add(t)
        return pushed


def short_sink(graph: FlowGraph, source, sinks, demand: int) -> tuple | None:
    """The first of `sinks` to which less than `demand` flows from
    `source` in `graph`, with the source side of its least cut, as
    (sink, side); None when every sink receives the demand.

    The sinks share one residual state, following Hao & Orlin (1994), "A
    faster algorithm for finding the minimum cut in a directed graph":
    with the sinks in order v1, v2, ... and S(i) = {source, v1 .. vi},
    each vi is resumed from S(i-1), in place.  Flow pushed from S(i-1) to
    vi crosses no cut that holds both, so every later cut keeps its value
    in the residual; `resume`'s terminal rule checks exactly this.  Then
    min over v of lambda(source, v) = min over i of lambda(S(i-1), vi),
    lambda(X, v) being the least capacity of a cut that holds X but not
    v: a larger source set only removes cuts, and the first vi outside a
    least cut X has S(i-1) inside it.  Let v be the first sink whose min
    cut from the source is below the demand.  A cut missing an earlier
    sink costs at least the demand, so every cut below it that holds the
    source but not v holds S(i-1): from S(i-1), v fails as from the
    source, with the same least min cut, which `reach` reads after v's
    resume.  So the failing sink and its cut are those of a fresh flow
    per sink.
    """
    state, settled = graph.state(), [source]
    for sink in sinks:
        if graph.resume(state, settled, sink, demand) < demand:
            return sink, graph.reach(state, settled, 1)
        settled.append(sink)
    return None


def _checked_limit(limit) -> int:
    if type(limit) is not int or limit < 0:
        raise CollschedError(f"flow limit must be a non-negative int, got {limit!r}")
    return limit


def _dinic(n, to, adj, cap, sources, sinks, limit):
    """Dinic blocking-flow max flow from the vertices `sources` to the
    vertices `sinks`, in place on `cap`, stopping once `limit` units are
    placed.  Both map vertex indices to rooms, the most each still sends
    or takes, and are left holding the rooms unspent; a terminal whose
    room is spent is an ordinary vertex, as in a network with a super
    source and a super sink joined to the terminals by arcs of those
    rooms.

    A phase labels each vertex with its residual distance to the nearest
    sink with room (a BFS back from those sinks: e in adj[v] with
    cap[e ^ 1] > 0 is the arc to[e] -> v), up to the level D of the nearest
    source with room.  Walks from the sources at D step along positive arcs
    one closer: the live arcs of levels counted from the sources, scanned
    in the same order, so the same augmenting paths in the same order."""
    give, take = [0] * n, [0] * n
    for s, room in sources.items():
        give[s] = room
    for t, room in sinks.items():
        take[t] = room
    starts = [s for s in sources if give[s]]
    total = 0
    while total < limit and starts:
        # -1 marks a vertex unlabelled or, later, a dead end: never a distance
        dist = [-1] * n
        queue = [t for t in sinks if take[t]]
        for t in queue:
            dist[t] = 0
        last = n
        for v in queue:
            dv = dist[v] + 1
            if dv > last:
                break
            for e in adj[v]:
                if cap[e ^ 1] > 0:
                    u = to[e]
                    if dist[u] < 0:
                        dist[u] = dv
                        queue.append(u)
                        if give[u]:
                            last = dv
        if last == n:
            break
        it = [0] * n
        for s in starts:
            if dist[s] != last:
                continue  # no shortest augmenting path starts here
            room = give[s]
            path: list[int] = []
            u = s
            while True:
                if take[u]:
                    f = limit - total
                    if room < f:
                        f = room
                    if take[u] < f:
                        f = take[u]
                    for e in path:
                        c = cap[e]
                        if c < f:
                            f = c
                    for e in path:
                        cap[e] -= f
                        cap[e ^ 1] += f
                    total += f
                    room -= f
                    take[u] -= f
                    if total >= limit or not room:
                        break
                    if not take[u]:
                        it[u] = len(adj[u])  # spent: 0 - 1 would match unlabelled
                    # retreat to just before the first saturated arc
                    i = 0
                    np = len(path)
                    while i < np and cap[path[i]] > 0:
                        i += 1
                    del path[i:]
                    u = to[path[-1]] if path else s
                    continue
                au = adj[u]
                iu = it[u]
                nu = len(au)
                du = dist[u] - 1
                while iu < nu:
                    e = au[iu]
                    if cap[e] > 0 and dist[to[e]] == du:
                        break
                    iu += 1
                it[u] = iu
                if iu < nu:
                    path.append(e)
                    u = to[e]
                elif path:
                    dist[u] = -1  # dead end; prune for the rest of the phase
                    u = to[path.pop() ^ 1]
                    it[u] += 1
                else:
                    break  # this source is exhausted for the phase
            give[s] = room
            if total >= limit:
                break
        starts = [s for s in starts if give[s]]
    for s in sources:
        sources[s] = give[s]
    for t in sinks:
        sinks[t] = take[t]
    return total
