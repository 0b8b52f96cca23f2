"""Tree packing: growth amounts, forest invariants, counters, which arc a
batch takes, and the packer against the gadget-graph oracle it replaced."""

import copy
from collections import Counter

import pytest

from collsched import (
    COMPUTE,
    FlowGraph,
    Forest,
    Link,
    Node,
    NotEulerianAfterFloor,
    Topology,
    TreeBatch,
    bottleneck_search,
    fixed_k_search,
    generate,
    pack_spanning_trees,
    remove_switches,
    scale_capacities,
    synth_topology,
    validate_schedule,
)
from collsched.errors import CollschedError, NoAddableEdge
from collsched.maxflow import fresh_name
from collsched.packing import _Baselines
from collsched.pipeline import COLLECTIVES

from conftest import catch_up


def compute_mu(
    forest: Forest, residual: dict[tuple[str, str], int], batch: TreeBatch, arc: tuple[str, str]
) -> int:
    """Oracle: largest multiplicity at which `batch` may take `arc` while
    the rest of the forest stays completable, from a gadget graph built
    for this one evaluation; `residual` holds what is left of each
    logical arc's capacity.

    The gadget graph augments the residual logical graph, per other batch
    i, with a node s_i, an arc x -> s_i of capacity m_i, and arcs of
    capacity m_i from s_i to each member of batch i; then
    mu = min{ g(x,y), m, F(x,y) - sum of other multiplicities }.  A batch
    already spanning everything always contributes m_i to the flow
    (counted directly, no gadget), and a still-singleton batch's gadget
    collapses to the single arc x -> root_i (omitted when its root is x,
    where it can never cross an x/y cut).  The flow is capped early,
    which cannot change the final min."""
    x, y = arc
    g_xy = residual.get(arc, 0)
    if g_xy < 1:
        raise CollschedError(f"arc {arc} has no residual capacity")
    if x not in batch.members or y in batch.members:
        raise CollschedError(f"arc {arc} does not extend the batch at {batch.root}")
    forest.mu_evaluations += 1
    mu0 = min(g_xy, batch.multiplicity)
    n = forest.lt.num_compute
    vertices = list(forest.lt.compute_ids)
    taken = set(vertices)
    arcs = [(a, b, c) for (a, b), c in residual.items() if c > 0]
    sum_other = 0
    free = 0
    for other in forest.batches:
        if other is batch:
            continue
        m = other.multiplicity
        sum_other += m
        size = len(other.members)
        if size == n:
            free += m
        elif size == 1:
            if other.root != x:
                arcs.append((x, other.root, m))
        else:
            hub = fresh_name(f"b{len(vertices)}", taken)
            taken.add(hub)
            vertices.append(hub)
            arcs.append((x, hub, m))
            for member in sorted(other.members):
                arcs.append((hub, member, m))
    g = FlowGraph(vertices, arcs)
    flow = g.run([x], [y], limit=sum_other + mu0 - free) + free
    return max(0, min(mu0, flow - sum_other))


def oracle_pack(lt: Topology, k: int) -> Forest:
    """Oracle packer: `pack_spanning_trees`'s growth loop with every mu
    from `compute_mu`, probing in the same order.  Each step takes the
    first frontier arc at mu = m, probing in order only the arcs of
    capacity m or more not found short (0 < mu < m) since the batch last
    split; failing that, it splits at the first arc at mu > 0, probing
    the arcs not yet probed in the step up to it."""
    n = lt.num_compute
    residual = dict(lt.capacity)
    forest = Forest(
        lt=lt,
        batches=[TreeBatch(root=r, multiplicity=k, members={r}, edges=[]) for r in lt.compute_ids],
    )
    i = 0
    while i < len(forest.batches):
        batch = forest.batches[i]
        dead, short = set(), set()
        while len(batch.members) < n:
            m = batch.multiplicity
            frontier = sorted(
                pair
                for pair, c in residual.items()
                if c > 0 and pair[0] in batch.members and pair[1] not in batch.members
                and pair not in dead
            )
            probed = {}

            def mu_of(arc):
                if arc not in probed:
                    probed[arc] = compute_mu(forest, residual, batch, arc)
                    if not probed[arc]:
                        dead.add(arc)
                return probed[arc]

            whole = (a for a in frontier if a not in short and residual[a] >= m)
            arc = next((a for a in whole if mu_of(a) == m), None)
            short |= {a for a, mu in probed.items() if 0 < mu < m}
            if arc is None:
                arc = next((a for a in frontier if mu_of(a)), None)
            if arc is None:
                raise NoAddableEdge(batch.root, set(batch.members), frontier)
            mu = probed[arc]
            if mu < m:
                copy = TreeBatch(
                    root=batch.root,
                    multiplicity=m - mu,
                    members=set(batch.members),
                    edges=list(batch.edges),
                )
                forest.batches.insert(i + 1, copy)
                batch.multiplicity = mu
                short.clear()
            batch.edges.append(arc)
            batch.members.add(arc[1])
            residual[arc] -= mu
            if residual[arc] == 0:
                del residual[arc]
        i += 1
    return forest


def remainder(t: Topology, fixed_k: int | None) -> tuple[Topology, int]:
    """The compute-only network and tree count that `generate` packs for t."""
    res = bottleneck_search(t) if fixed_k is None else fixed_k_search(t, fixed_k)
    lt, _ = remove_switches(scale_capacities(t, res.U), res.k)
    return lt, res.k


def shape(forest: Forest):
    """Everything a pack decides: batch order, roots, multiplicities,
    members and edges, and the mu evaluation count (the capacity left on
    each arc follows from the edges and multiplicities)."""
    return (
        [(b.root, b.multiplicity, sorted(b.members), b.edges) for b in forest.batches],
        forest.mu_evaluations,
    )


def two_node_logical(cap=3):
    return Topology(
        [Node("a", COMPUTE), Node("b", COMPUTE)],
        [Link("a", "b", cap), Link("b", "a", cap)],
    )


def fresh_forest(lt, k=3):
    return Forest(
        lt=lt,
        batches=[
            TreeBatch(root=r, multiplicity=k, members={r}, edges=[])
            for r in lt.compute_ids
        ],
    )


def compute_only(capacity: dict[str, int]) -> Topology:
    """A compute-only network with one link per entry "xy": capacity."""
    nodes = sorted({v for pair in capacity for v in pair})
    return Topology([Node(v, COMPUTE) for v in nodes], [Link(*pair, c) for pair, c in capacity.items()])


def probed_pack(lt: Topology, k: int, monkeypatch) -> tuple[Forest, list]:
    """`pack_spanning_trees(lt, k)` and its mu evaluations in order, each
    as (root, multiplicity of the growing batch, arc, mu)."""
    probes = []
    mu = _Baselines.mu

    def recorded(self, arc, mu0):
        got = mu(self, arc, mu0)
        probes.append((self.growing.root, self.growing.multiplicity, self.arcs[arc], got))
        return got

    monkeypatch.setattr(_Baselines, "mu", recorded)
    return pack_spanning_trees(lt, k), probes


def named(g: FlowGraph, supplies: dict) -> dict:
    """Supplies by vertex index, as the packer passes them to
    `FlowGraph._keep` and a state records them, by vertex name instead."""
    return {g._names[v]: units for v, units in supplies.items()}


def arc_usage(forest: Forest) -> dict[tuple[str, str], int]:
    """Tree multiplicity routed over each arc by the forest's batches."""
    used = {}
    for batch in forest.batches:
        for arc in batch.edges:
            used[arc] = used.get(arc, 0) + batch.multiplicity
    return used


def arc_alone(baselines: _Baselines, arc: tuple[str, str], mu0: int) -> bool:
    """Whether the arc alone settles mu at mu0, worked out from the forest:
    its capacity left is at least mu0 plus the trees of the batches yet to
    grow (those after the growing one) that do not hold its head.  Each of
    those batches crosses a cut holding its members, and no cut the arc
    crosses holds one that holds the head."""
    forest, (x, y) = baselines.forest, arc
    i = next(i for i, b in enumerate(forest.batches) if b is baselines.growing)
    left = forest.lt.capacity[arc] - arc_usage(forest).get(arc, 0)
    return left - sum(b.multiplicity for b in forest.batches[i + 1:] if y not in b.members) >= mu0


class TestComputeMu:
    def test_hand_checked_value(self):
        # batch a (m=3) takes (a, b): mu0 = min(3, 3); the other batch is a
        # singleton rooted at b, so the gadget is one extra a->b arc of
        # capacity 3, flow = 3 + 3, and mu = min(3, 6 - 3) = 3
        lt = two_node_logical()
        forest = fresh_forest(lt)
        assert compute_mu(forest, dict(lt.capacity), forest.batches[0], ("a", "b")) == 3

    def test_capped_by_residual_capacity(self):
        # with only 1 unit left on (a, b) the flow term is 1 + 3 (direct
        # plus b's gadget arc) against sum_other = 3, so mu = 1
        lt = two_node_logical()
        forest = fresh_forest(lt)
        residual = dict(lt.capacity)
        residual[("a", "b")] = 1
        assert compute_mu(forest, residual, forest.batches[0], ("a", "b")) == 1

    def test_completed_batches_count_without_gadget(self):
        lt = two_node_logical()
        forest = fresh_forest(lt)
        done = forest.batches[1]
        done.members = {"a", "b"}
        done.edges = [("b", "a")]
        residual = dict(lt.capacity)
        residual[("b", "a")] -= 3
        assert compute_mu(forest, residual, forest.batches[0], ("a", "b")) == 3

    def test_rejects_spent_arcs_and_non_frontier_arcs(self):
        lt = two_node_logical()
        forest = fresh_forest(lt)
        residual = dict(lt.capacity)
        with pytest.raises(CollschedError):
            compute_mu(forest, residual, forest.batches[0], ("b", "a"))  # tail not in batch
        residual[("a", "b")] = 0
        with pytest.raises(CollschedError):
            compute_mu(forest, residual, forest.batches[0], ("a", "b"))

    def test_counter_increments(self):
        lt = two_node_logical()
        forest = fresh_forest(lt)
        before = forest.mu_evaluations
        compute_mu(forest, dict(lt.capacity), forest.batches[0], ("a", "b"))
        assert forest.mu_evaluations == before + 1


class TestPackSpanningTrees:
    def test_two_node_packs_all_trees(self):
        lt = two_node_logical()
        forest = pack_spanning_trees(lt, 3)
        for root in ("a", "b"):
            batches = [b for b in forest.batches if b.root == root]
            assert sum(b.multiplicity for b in batches) == 3
            for b in batches:
                assert b.members == {"a", "b"}
        # the trees use up every arc
        assert arc_usage(forest) == lt.capacity

    def test_k_mismatch_and_bad_k_rejected(self):
        # k is an argument only: a k beyond what the capacities carry (3
        # units each way hold at most 3 trees per root) fails loudly
        with pytest.raises(NoAddableEdge):
            pack_spanning_trees(two_node_logical(), 4)
        for k in (0, 2.5, True):
            with pytest.raises(CollschedError, match=f"got {k!r}"):
                pack_spanning_trees(two_node_logical(), k)

    def test_switched_network_rejected(self, fig3a):
        # a network that still has switches, e.g. the scaled one, is refused
        # before any tree grows
        res = bottleneck_search(fig3a)
        with pytest.raises(CollschedError, match="compute-only"):
            pack_spanning_trees(scale_capacities(fig3a, res.U), res.k)

    def test_forest_invariants_across_the_suite(self, random_suite):
        for t in random_suite[:60]:
            res = bottleneck_search(t)
            scaled = scale_capacities(t, res.U)
            lt, _ = remove_switches(scaled, res.k)
            forest = pack_spanning_trees(lt, res.k)
            n = lt.num_compute
            # every batch is a spanning out-tree of positive multiplicity
            for batch in forest.batches:
                assert batch.multiplicity >= 1
                assert batch.members == set(lt.compute_ids)
                parents = {}
                for (x, y) in batch.edges:
                    assert y not in parents
                    parents[y] = x
                assert len(parents) == n - 1 and batch.root not in parents
                reached = {batch.root}
                for _ in range(n):
                    reached |= {y for y, x in parents.items() if x in reached}
                assert reached == set(lt.compute_ids)
            # k trees per root
            for root in lt.compute_ids:
                assert sum(b.multiplicity for b in forest.batches if b.root == root) == res.k
            # arc usage within capacity
            for arc, units in arc_usage(forest).items():
                assert units <= lt.capacity[arc]

    def test_batch_splitting_occurs_when_capacity_forces_it(self):
        # suite seed 1 (4 compute nodes, 7 trees per root) forces one batch
        # split: frozen here as a regression anchor for the split path
        from collsched import random_eulerian_topology

        t = random_eulerian_topology(1)
        res = bottleneck_search(t)
        assert res.k == 7
        lt, _ = remove_switches(scale_capacities(t, res.U), res.k)
        forest = pack_spanning_trees(lt, res.k)
        assert lt.num_compute == 4
        assert len(forest.batches) == 5
        assert any(b.multiplicity < res.k for b in forest.batches)
        for root in lt.compute_ids:
            assert sum(b.multiplicity for b in forest.batches if b.root == root) == res.k

    def test_a_k_the_network_cannot_carry_names_its_root(self):
        # batch a takes (a, b) at 3 of its 4 trees; the last tree's copy
        # cannot join sigma, as (a, b) is spent
        with pytest.raises(NoAddableEdge) as exc:
            pack_spanning_trees(two_node_logical(), 4)
        assert exc.value.root == "a"
        assert exc.value.frontier == []

    def test_a_stuck_batch_lists_its_whole_frontier(self):
        """A batch that cannot grow reports every arc of capacity left out
        of it, the arcs it probed at mu = 0 included: suite seed 1's
        remainder carries 7 trees per root, and at 8 the first batch to
        stall is c0's, at three members with two arcs out."""
        from collsched import random_eulerian_topology

        lt, k = remainder(random_eulerian_topology(1), None)
        assert k == 7
        with pytest.raises(NoAddableEdge) as exc:
            pack_spanning_trees(lt, 8)
        assert exc.value.root == "c0"
        assert exc.value.members == ["c0", "c1", "c5"]
        assert exc.value.frontier == [("c0", "c4"), ("c5", "c4")]

    def test_a_take_beyond_the_least_slack_fails_its_reroute(self, monkeypatch):
        """The kept flows can be repaired to V only because every mu is the
        least slack.  With every probe overstated to mu0, batch b's third
        arc (a, d) is taken at 1 where its slack is 0, and d's kept flow is
        read right after.  Its `keep` push, to V units from sigma and 1
        from c, has to route the unit dropped on (a, d) from a to d as well
        and falls short, and so does the push back to V that follows: the
        vertices a still reaches hold sigma but not d, so no push could
        restore V, and the read stops the pack with NoAddableEdge."""
        lt = Topology(
            [Node(v, COMPUTE) for v in "abcd"],
            [
                Link("a", "c", 3), Link("a", "d", 3), Link("b", "a", 6), Link("c", "b", 3),
                Link("c", "d", 3), Link("d", "b", 3), Link("d", "c", 3),
            ],
        )
        probe = _Baselines.mu
        monkeypatch.setattr(_Baselines, "mu", lambda self, arc, mu0: (probe(self, arc, mu0), mu0)[1])
        take = _Baselines.take

        def take_then_read(self, arc, mu):
            take(self, arc, mu)
            if self.arcs[arc] == ("a", "d") and self.growing.root == "b":
                self.mu(self.arcs.index(("c", "d")), 1)

        monkeypatch.setattr(_Baselines, "take", take_then_read)
        keeps = []
        keep = FlowGraph._keep

        def recorded(g, state, supplies, sink):
            # a copy as the push finds it, maybe behind the graph's edits
            before = copy.deepcopy(state)
            short = keep(g, state, supplies, sink)
            keeps.append((g, before, state, named(g, supplies), g._names[sink], named(g, before[4]), short))
            return short

        monkeypatch.setattr(FlowGraph, "_keep", recorded)
        with pytest.raises(NoAddableEdge) as exc:
            pack_spanning_trees(lt, 2)
        assert exc.value.root == "b"
        # the read of (c, d) at 1 falls short, and so does the repair after it
        (g, before, state, asked, sink, _, short), repair = keeps[-2:]
        (sigma,) = set(asked) - {"c"}
        read = {**asked, "d": -sum(asked.values())}  # the record the repair starts from
        assert (sink, asked["c"], repair[4], repair[5]) == ("d", 1, "d", read)
        assert repair[3] == {sigma: asked[sigma]} and repair[2] is state
        assert short > 0 and repair[-1] > 0
        # one unit to route from a to d, and the state still owes it at a
        assert catch_up(g, before) == {"a": 1, "d": -1}
        owed = {g._names[v]: d for v, d in state[3].items()}
        assert owed["a"] == 1 == sum(d for d in owed.values() if d > 0)
        side = g.reach(state, ["a"], 1)
        assert sigma in side and "d" not in side

    def test_its_flow_calls_are_its_cut_questions(self, random_suite, monkeypatch):
        """A pack asks its cut questions through `FlowGraph._keep` alone.  Each mu
        evaluation is exactly one of three kinds: the arc alone settles it
        at mu0 and it asks nothing; one push of its head's kept flow, to V
        units from sigma and mu0 from the arc's tail, comes up full and
        certifies mu0; or that push falls short by mu0 - mu and one more,
        back to V from sigma, comes up full.  No other flow call is made."""
        calls, kinds = [], []
        keep, mu = FlowGraph._keep, _Baselines.mu
        others = {name: getattr(FlowGraph, name) for name in ("run", "run_keep", "resume", "push", "keep")}

        def kept(g, state, supplies, sink):
            record = dict(state[4])
            short = keep(g, state, supplies, sink)
            calls.append((supplies, sink, record, short))
            return short

        def other(name):
            def called(*args, **kwargs):
                calls.append(name)
                return others[name](*args, **kwargs)
            return called

        def evaluated(self, arc, mu0):
            x, y = self.tails[arc], self.heads[arc]
            alone, before = arc_alone(self, self.arcs[arc], mu0), len(calls)
            value = self.value
            got = mu(self, arc, mu0)
            asked = calls[before:]
            read = {self.sigma: value, x: mu0}
            back = ({self.sigma: value}, y, {**read, y: -value - mu0})  # from the read's record
            if alone:
                kinds.append("alone" if (asked, got) == ([], mu0) else None)
            elif [call[:2] for call in asked] == [(read, y)] and asked[0][3] == 0 and got == mu0:
                kinds.append("full")
            elif [call[:3] for call in asked] == [asked[0][:3], back]:
                full = asked[0][:2] == (read, y) and asked[1][3] == 0
                kinds.append("short" if full and got == mu0 - asked[0][3] > -1 else None)
            else:
                kinds.append(None)
            return got

        for name in others:
            monkeypatch.setattr(FlowGraph, name, other(name))
        monkeypatch.setattr(FlowGraph, "_keep", kept)
        monkeypatch.setattr(_Baselines, "mu", evaluated)
        total = Counter()
        for t in random_suite:
            lt, k = remainder(t, None)
            calls.clear()
            kinds.clear()
            forest = pack_spanning_trees(lt, k)
            assert None not in kinds and len(kinds) == forest.mu_evaluations, t
            assert not set(others).intersection(c for c in calls if type(c) is str), t
            total.update(kinds)
        assert min(total[kind] for kind in ("alone", "full", "short")) > 0

    def test_kept_flows_are_repaired_only_when_read(self, random_suite, monkeypatch):
        """Edits only reach the graph; a kept flow is pushed when a mu
        evaluation reads its head.  So an evaluation the arc alone settles
        pushes nothing, and every other pushes the one state kept for its
        head: a fresh one recording no flow at the head's first read, later
        the state the head's last push left, recording what that push asked
        for, each supply and the head at minus their sum.  A flow whose
        sink is never read again is never pushed."""
        events = []
        keep, mu = FlowGraph._keep, _Baselines.mu

        def kept(g, state, supplies, sink):
            before = named(g, state[4])
            short = keep(g, state, supplies, sink)
            events.append(("keep", id(state[0]), g._names[sink], named(g, supplies), before, named(g, state[4])))
            return short

        def evaluated(self, arc, mu0):
            events.append(("mu", self.arcs[arc], arc_alone(self, self.arcs[arc], mu0)))
            return mu(self, arc, mu0)

        monkeypatch.setattr(FlowGraph, "_keep", kept)
        monkeypatch.setattr(_Baselines, "mu", evaluated)
        later = settled = 0
        for t in random_suite:
            lt, k = remainder(t, None)
            events.clear()
            forest = pack_spanning_trees(lt, k)
            evaluations = [i for i, e in enumerate(events) if e[0] == "mu"]
            assert len(evaluations) == forest.mu_evaluations, t
            state_of, asked_of = {}, {}
            for i, j in zip(evaluations, evaluations[1:] + [len(events)]):
                _, (x, y), alone = events[i]
                pushes = events[i + 1:j]
                if alone:
                    assert pushes == [], t
                    settled += 1
                    continue
                assert 1 <= len(pushes) <= 2, t
                for _, state, sink, supplies, before, after in pushes:
                    assert sink == y and state_of.setdefault(y, state) == state, t
                    assert before == asked_of.get(y, {}), t
                    assert after == {**supplies, y: -sum(supplies.values())}, t
                    later += bool(before)
                    asked_of[y] = after
        assert later > 0 and settled > 0

    def test_every_repair_is_catch_up_and_one_push(self, random_suite, monkeypatch):
        """Each `keep` a pack makes leaves the state that `catch_up` and one
        push of the imbalance, with the change of each supply at its vertex
        and of their sum at the sink, leave on a copy: the same units routed
        in the same order.  It returns what that push leaves unrouted."""
        keep = FlowGraph._keep
        repairs = []

        def compared(g, state, supplies, sink):
            twin = copy.deepcopy(state)
            short = keep(g, state, supplies, sink)
            supplies, sink, record = named(g, supplies), g._names[sink], named(g, twin[4])
            need = catch_up(g, twin)
            for v, units in supplies.items():
                need[v] = need.get(v, 0) + units
            for v, units in record.items():
                need[v] = need.get(v, 0) - units
            need[sink] = need.get(sink, 0) - sum(supplies.values())
            excess = {v: d for v, d in need.items() if d > 0}
            deficit = {v: -d for v, d in need.items() if d < 0}
            want = sum(excess.values())
            assert short == want - (g.push(twin, excess, deficit, want) if want else 0)
            assert twin[:3] == state[:3]
            repairs.append(len(excess))
            return short

        monkeypatch.setattr(FlowGraph, "_keep", compared)
        for t in random_suite:
            lt, k = remainder(t, None)
            pack_spanning_trees(lt, k)
        assert sum(n > 1 for n in repairs) > 0

    @pytest.mark.parametrize("networks", ["random_suite", "clustered_suite", "boxes_8x4", "fat_tree"])
    def test_every_read_mu_is_a_fresh_flows_resume(self, request, networks, monkeypatch):
        """Every mu that a read of a kept flow returns, full or short, is
        what a resume of at most mu0 units from the arc's tail to its head
        gives on a flow sigma -> head of value V made fresh on the graph as
        it stands.  The suites and boxes 8x4 have both full and short
        reads; the 4-pod fat-tree's 60 reads all come up full."""
        kinds = Counter()
        mu = _Baselines.mu

        def evaluated(self, arc, mu0):
            (x, y), g = self.arcs[arc], self.graph
            if arc_alone(self, self.arcs[arc], mu0):
                return mu(self, arc, mu0)
            got = mu(self, arc, mu0)
            value, flow = g.run_keep([g._names[self.sigma]], [y], self.value)
            assert value == self.value, arc
            assert got == g.resume(flow, [x], y, mu0), arc
            kinds[got == mu0] += 1
            return got

        monkeypatch.setattr(_Baselines, "mu", evaluated)
        found = globals().get(networks)
        for t in [found()] if found else request.getfixturevalue(networks):
            pack_spanning_trees(*remainder(t, None))
        assert kinds[True] > 0 and (kinds[False] > 0) == (networks != "fat_tree"), kinds

    def test_mu_evaluation_counter_reports_work(self):
        forest = pack_spanning_trees(two_node_logical(), 3)
        assert forest.mu_evaluations >= 2


def boxes_8x4() -> Topology:
    return synth_topology("boxes", boxes=8, gpus_per_box=4, intra=8, inter=1)


def fat_tree() -> Topology:
    return synth_topology("fat-tree", pods=4, gpus=16, spines=4, leaf_bw=4, spine_bw=3)


class TestTheArcAlone:
    """An arc with room for mu0 and every batch yet to grow that does not
    hold its head settles mu at mu0 with no flow (the `packing` module
    docstring, "The arc alone")."""

    def settled(self, networks, monkeypatch) -> int:
        """Packs each network.  Every evaluation the arc alone settles keeps
        no flow, and its mu0 is what a resume from the arc's tail to its
        head gives on a flow sigma -> head of value V made fresh on the
        graph as it stands; every other evaluation pushes its head's kept
        flow.  Returns how many evaluations the arc alone settled."""
        keeps, settled = [], []
        keep, mu = FlowGraph._keep, _Baselines.mu

        def kept(g, state, supplies, sink):
            keeps.append(g._names[sink])
            return keep(g, state, supplies, sink)

        def evaluated(self, rank, mu0):
            (x, y), g, before = self.arcs[rank], self.graph, len(keeps)
            arc = self.arcs[rank]
            got = mu(self, rank, mu0)
            assert (len(keeps) == before) == arc_alone(self, arc, mu0), arc
            if len(keeps) == before:
                value, flow = g.run_keep([g._names[self.sigma]], [y], self.value)
                assert value == self.value, arc
                assert got == mu0 == g.resume(flow, [x], y, mu0), arc
                settled.append(arc)
            return got

        monkeypatch.setattr(FlowGraph, "_keep", kept)
        monkeypatch.setattr(_Baselines, "mu", evaluated)
        for t in networks:
            pack_spanning_trees(*remainder(t, None))
        return len(settled)

    @pytest.mark.parametrize("suite, floor", [("random_suite", 5000), ("clustered_suite", 4600)])
    def test_settled_mu_is_a_fresh_flows_resume_on_the_suites(self, request, suite, floor, monkeypatch):
        assert self.settled(request.getfixturevalue(suite), monkeypatch) >= floor

    @pytest.mark.parametrize("network, floor", [(boxes_8x4, 750), (fat_tree, 190)])
    def test_settled_mu_is_a_fresh_flows_resume_on_switched_networks(self, network, floor, monkeypatch):
        assert self.settled([network()], monkeypatch) >= floor

    def test_the_bound_is_met_at_equality(self, monkeypatch):
        """a's batch of 2 takes (a, b) at 2 and then probes (a, c), c's only
        in-arc, at mu0 = 2.  b's and c's batches of 2 are yet to grow, so
        V = 4, c's batch holds c, and the arc alone gives 4 - 4 + 2 = 2:
        settled with no flow.  The cut holding every vertex but c (and
        sigma) has slack exactly 2, the arc's 4 less b's 2 trees: the
        bound is met at equality, and mu is exactly mu0."""
        lt = compute_only({"ab": 2, "ac": 4, "ba": 2, "ca": 2, "cb": 2})
        keeps, asked = [], []
        keep, mu = FlowGraph._keep, _Baselines.mu

        def kept(g, state, supplies, sink):
            keeps.append(g._names[sink])
            return keep(g, state, supplies, sink)

        def evaluated(self, rank, mu0):
            g, before, arc = self.graph, len(keeps), self.arcs[rank]
            sigma = g._names[self.sigma]
            got = mu(self, rank, mu0)
            asked.append((self.growing.root, arc, mu0, g.capacity(*arc), self.value, keeps[before:], got))
            if asked[-1][:2] == ("a", ("a", "c")):
                # the least slack of a cut holding a but not c, and that cut
                value, flow = g.run_keep([sigma], ["c"], self.value)
                assert value == self.value
                asked.append((g.resume(flow, ["a"], "c", 10), g.reach(flow, ["a"], 1) - {sigma}))
            return got

        monkeypatch.setattr(FlowGraph, "_keep", kept)
        monkeypatch.setattr(_Baselines, "mu", evaluated)
        pack_spanning_trees(lt, 2)
        assert asked[:3] == [
            ("a", ("a", "b"), 2, 2, 4, ["b"], 2),
            ("a", ("a", "c"), 2, 4, 4, [], 2),
            (2, {"a", "b"}),
        ]


class TestWholeBatchesFirst:
    """A batch takes the first frontier arc at mu = m, its multiplicity,
    and splits, at the first arc at mu > 0, only when there is none."""

    def test_a_later_arc_at_mu_m_keeps_the_batch_whole(self, monkeypatch):
        """a's and b's batches of 2 grow first, a's taking 2 of the 4 units
        on (a, b).  c's batch takes (c, a), and its first frontier arc is
        then (a, b): 2 units left, but {a, d} has 3 units out, (a, b) 2 and
        (d, c) 1, and d's 2 trees still need 2 of them, so (a, b) admits 1
        tree.  The later arc (c, b) admits both, so the batch takes it and
        stays whole: one batch per root."""
        lt = compute_only({
            "ab": 4, "ac": 2, "ba": 4, "bc": 4, "bd": 4, "ca": 4, "cb": 3, "cd": 3, "da": 3, "dc": 1,
        })
        forest, probes = probed_pack(lt, 2, monkeypatch)
        i = probes.index(("c", 2, ("a", "b"), 1))
        assert probes[i + 1] == ("c", 2, ("c", "b"), 2)
        assert [(b.root, b.multiplicity) for b in forest.batches] == [(r, 2) for r in "abcd"]
        assert forest.batches[2].edges == [("c", "a"), ("c", "b"), ("c", "d")]

    def test_with_no_arc_at_mu_m_the_batch_splits_at_the_first(self, monkeypatch):
        """a has 1 unit on each of its arcs, so no arc admits both of its
        trees.  Only arcs of capacity 2 could, so nothing is probed before
        the split, which is at the first arc, (a, b), at its exact mu of 1;
        the other tree leaves through (a, c)."""
        lt = compute_only({"ab": 1, "ac": 1, "ba": 1, "bc": 3, "ca": 3, "cb": 3})
        forest, probes = probed_pack(lt, 2, monkeypatch)
        assert probes[0] == ("a", 2, ("a", "b"), 1)
        assert [(b.root, b.multiplicity, b.edges) for b in forest.batches[:2]] == [
            ("a", 1, [("a", "b"), ("b", "c")]),
            ("a", 1, [("a", "c"), ("c", "b")]),
        ]

    def test_an_arc_short_before_a_split_is_taken_at_the_new_m(self, monkeypatch):
        """a's batch of 3 takes 3 of the 5 units on (a, c).  b's batch of 3,
        holding {b, a}, finds no arc at mu = 3: (a, d) admits 2 and is
        found short, and (a, c) has 2 units left.  The batch splits at
        (a, c), the first arc, at 2.  Its short list is cleared by the
        split, so (a, d) is probed again at the new m of 2, admits it and
        is taken: kept short, it would not be probed, and (b, d) would be
        taken instead."""
        lt = compute_only({
            "ab": 3, "ac": 5, "ad": 3, "ba": 6, "bd": 5, "ca": 4,
            "cb": 1, "cd": 1, "da": 4, "db": 6, "dc": 4,
        })
        forest, probes = probed_pack(lt, 3, monkeypatch)
        assert [p for p in probes if p[0] == "b"][:4] == [
            ("b", 3, ("b", "a"), 3),
            ("b", 3, ("a", "d"), 2),
            ("b", 3, ("a", "c"), 2),
            ("b", 2, ("a", "d"), 2),
        ]
        b = [batch for batch in forest.batches if batch.root == "b"]
        assert (b[0].multiplicity, b[0].edges) == (2, [("b", "a"), ("a", "c"), ("a", "d")])

    def test_the_suites_compile_as_before_in_fewer_batches(self, random_suite, clustered_suite):
        """Every op of the random and clustered suites, in every collective
        at fixed_k None, 2 and 3, compiles to what it compiled to before
        whole batches were preferred: each allgather validates with
        `expected` or is refused, and a reduction validates exactly on
        the 13 clustered networks where it did (elsewhere its reversed
        forest overdraws asymmetric links).  The valid schedules hold 7,023
        batches, against 7,757 when every batch took its first arc at
        μ > 0."""
        lucky = {15, 21, 28, 49, 54, 55, 59, 72, 78, 79, 85, 89, 90}
        networks = [(t, False) for t in random_suite]
        networks += [(t, i in lucky) for i, t in enumerate(clustered_suite)]
        outcomes, batches = Counter(), 0
        for t, reductions_validate in networks:
            for collective in COLLECTIVES:
                for fixed_k in (None, 2, 3):
                    try:
                        s, meta = generate(t, collective, fixed_k=fixed_k)
                    except NotEulerianAfterFloor:
                        outcomes["refused"] += 1
                        continue
                    ok = validate_schedule(s, t, meta).ok
                    assert ok == (collective == "allgather" or reductions_validate), t
                    outcomes["valid" if ok else "invalid"] += 1
                    if ok:
                        phases = s.phases or (s,)
                        batches += sum(len(rt.batches) for p in phases for rt in p.roots)
        assert outcomes == {"valid": 952, "invalid": 1670, "refused": 78}
        assert batches == 7023


class TestAgainstTheOracle:
    @pytest.mark.parametrize("fixed_k", [None, 1, 2, 3])
    @pytest.mark.parametrize("suite", ["random_suite", "clustered_suite"])
    def test_forests_equal_the_oracle_packers(self, request, suite, fixed_k):
        """On every network of the suite whose floored capacities balance
        at every switch, the packer decides exactly what the gadget-graph
        packer decides."""
        packed = 0
        for i, t in enumerate(request.getfixturevalue(suite)):
            try:
                lt, k = remainder(t, fixed_k)
            except NotEulerianAfterFloor:
                continue
            assert shape(pack_spanning_trees(lt, k)) == shape(oracle_pack(lt, k)), (suite, i)
            packed += 1
        # 181-200 of the 200 random networks and all 100 clustered ones
        # balance at every switch, depending on fixed_k
        assert packed >= 0.85 * len(request.getfixturevalue(suite))
