"""Flow engine: exact values, terminal sets, cut witnesses, early stops,
resume, residual reach, pushes with per-vertex amounts, one arc per vertex
pair, states that are grown, caught up to edited arcs and pushed on,
Dinic phases that find the forward-level Dinic's paths, calls refused
where they enter, and a library that reads the engine through its public
methods alone."""

import ast
import copy
import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import collsched
from collsched import (
    COMPUTE,
    SWITCH,
    FlowGraph,
    Link,
    Node,
    Topology,
)
from collsched.errors import CollschedError, Overflow
from collsched.maxflow import fresh_name, source_network
from collsched.topology import CAPACITY_BUDGET

from conftest import catch_up, entry, keep


def brute_min_cut(vertices, arcs, sources, sinks):
    """Least exit capacity of a vertex set holding every source and no
    sink, by subset enumeration."""
    others = [v for v in vertices if v not in sources and v not in sinks]
    return min(
        cut_capacity(arcs, {*sources, *combo})
        for r in range(len(others) + 1)
        for combo in itertools.combinations(others, r)
    )


def cut_capacity(arcs, side):
    return sum(c for a, b, c in arcs if a in side and b not in side)


def random_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    vertices = [f"v{i}" for i in range(n)]
    arcs = [
        (a, b, rng.randint(0, 9))
        for a in vertices
        for b in vertices
        if a != b and rng.random() < 0.45
    ]
    return vertices, arcs


class TestFlowValues:
    def test_diamond(self):
        arcs = [("s", "a", 3), ("s", "b", 2), ("a", "b", 1), ("a", "t", 2), ("b", "t", 3)]
        g = FlowGraph([*"sabt"], arcs)
        value, state = g.run_keep(["s"], ["t"])
        assert value == 5
        assert cut_capacity(arcs, g.reach(state, ["s"], 1)) == 5

    def test_textbook_network(self):
        arcs = [
            ("s", "a", 10), ("s", "c", 10), ("a", "b", 4), ("a", "c", 2),
            ("c", "d", 9), ("b", "t", 10), ("d", "b", 6), ("d", "t", 10),
        ]
        g = FlowGraph(["s", "a", "b", "c", "d", "t"], arcs)
        # min cut {s, a, c}: a->b (4) + c->d (9)
        assert g.run_keep(["s"], ["t"])[0] == 13

    def test_disconnected_sink(self):
        g = FlowGraph([*"sxt"], [("s", "x", 7)])
        value, state = g.run_keep(["s"], ["t"])
        assert value == 0
        assert g.reach(state, ["s"], 1) == {"s", "x"}

    def test_infinite_arcs_never_bind(self):
        """An arc raised to the run's limit L acts as an unbounded arc: any
        cut through it is worth at least L, so raising it further changes
        neither min(max flow, L) nor, below L, the cut found."""
        for seed in range(60):
            vertices, arcs = random_instance(seed)
            s, t = vertices[0], vertices[-1]
            full = FlowGraph(vertices, arcs).run([s], [t])
            for limit in (1, full, full + 5, sum(c for *_, c in arcs) + 1):
                for i, (a, b, _) in enumerate(arcs):
                    at_g = FlowGraph(vertices, arcs[:i] + [(a, b, limit)] + arcs[i + 1:])
                    above_g = FlowGraph(vertices, arcs[:i] + [(a, b, limit + 7)] + arcs[i + 1:])
                    at, at_state = at_g.run_keep([s], [t], limit=limit)
                    above, above_state = above_g.run_keep([s], [t], limit=limit)
                    assert at_g.run([s], [t], limit=limit) == at
                    assert above_g.run([s], [t], limit=limit) == at
                    assert above == at, (seed, limit, i)
                    if at < limit:
                        assert above_g.reach(above_state, [s], 1) == at_g.reach(
                            at_state, [s], 1
                        ), (seed, limit, i)

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_cut_enumeration(self, seed):
        vertices, arcs = random_instance(seed)
        g = FlowGraph(vertices, arcs)
        s, t = vertices[0], vertices[-1]
        value, state = g.run_keep([s], [t])
        assert value == brute_min_cut(vertices, arcs, [s], [t])
        # the witness is itself a cut of exactly that capacity
        side = g.reach(state, [s], 1)
        assert s in side
        assert t not in side
        assert cut_capacity(arcs, side) == value

    @pytest.mark.parametrize("seed", range(60))
    def test_terminal_sets_match_cut_enumeration(self, seed):
        """A run between disjoint sets of one or two sources and sinks is
        min(limit, least exit capacity of a set holding every source and
        no sink); a converged run's reach from the sources is such a set
        of exactly that capacity."""
        vertices, arcs = random_instance(seed)
        g = FlowGraph(vertices, arcs)
        rng = random.Random(seed)
        for _ in range(4):
            n_sources = rng.randint(1, 2)
            n_sinks = rng.randint(1, min(2, len(vertices) - n_sources))
            picked = rng.sample(vertices, n_sources + n_sinks)
            sources, sinks = picked[:n_sources], picked[n_sources:]
            want = brute_min_cut(vertices, arcs, sources, sinks)
            for limit in (None, want + 2, want, max(want - 1, 0)):
                value, state = g.run_keep(sources, sinks, limit=limit)
                assert value == (want if limit is None else min(limit, want)), (
                    seed, sources, sinks, limit
                )
                assert g.run(tuple(sources), set(sinks), limit=limit) == value
                if limit is None or value < limit:
                    side = g.reach(state, sources, 1)
                    assert set(sources) <= side and side.isdisjoint(sinks)
                    assert cut_capacity(arcs, side) == value, (seed, sources, sinks, limit)


class TestRunControls:
    def test_limit_truncates_exactly(self):
        vertices, arcs = random_instance(11)
        g = FlowGraph(vertices, arcs)
        full = g.run([vertices[0]], [vertices[-1]])
        for lim in (0, 1, full // 2, full, full + 3):
            assert g.run([vertices[0]], [vertices[-1]], limit=lim) == min(full, lim)

    def test_runs_do_not_mutate_the_graph(self):
        g = FlowGraph([*"sat"], [("s", "a", 4), ("a", "t", 4)])
        assert g.run(["s"], ["t"]) == 4
        assert g.run(["s"], ["t"]) == 4

    def test_same_source_and_sink_rejected(self):
        g = FlowGraph([*"st"], [("s", "t", 1)])
        with pytest.raises(CollschedError):
            g.run(["s"], ["s"])

    def test_unknown_vertex_rejected(self):
        g = FlowGraph([*"st"], [("s", "t", 1)])
        with pytest.raises(CollschedError):
            g.run(["s"], ["nope"])
        with pytest.raises(CollschedError):
            g.run_keep(["nope"], ["t"])
        # an unhashable name is not a vertex either
        with pytest.raises(CollschedError):
            g.run([["s"]], ["t"])
        with pytest.raises(CollschedError):
            g.run_keep([["s"]], ["t"])
        with pytest.raises(CollschedError):
            FlowGraph([["s"]], [])

    @pytest.mark.parametrize("method", ["run", "run_keep"])
    @pytest.mark.parametrize(
        "sources, sinks",
        [
            ("s", ["t"]),
            (["s"], "t"),
            ([], ["t"]),
            (["s"], set()),
            (["s", "a"], ["a", "t"]),
            (7, ["t"]),
            (["s"], None),
        ],
        ids=[
            "str-sources", "str-sinks", "empty-sources", "empty-sinks", "overlap",
            "int-sources", "none-sinks",
        ],
    )
    def test_bad_terminal_sets_rejected(self, method, sources, sinks):
        """A bare string (which would name vertices by its characters), an
        empty or overlapping set and a non-iterable are refused; unknown
        vertices are `test_unknown_vertex_rejected`'s."""
        g = FlowGraph([*"sat"], [("s", "a", 4), ("a", "t", 4)])
        with pytest.raises(CollschedError):
            getattr(g, method)(sources, sinks)

    def test_bad_capacities_rejected(self):
        # (vertices, arc): a float, a Fraction, a bool, a str and a negative
        # capacity, an unknown endpoint, a duplicate vertex, an arc that is
        # not a triple, an unhashable endpoint and a string as the vertex
        # list, which would name vertices by its characters
        cases = [
            ([*"st"], ("s", "t", 1.5)),
            ([*"st"], ("s", "t", Fraction(1, 2))),
            ([*"st"], ("s", "t", True)),
            ([*"st"], ("s", "t", "3")),
            ([*"st"], ("s", "t", -1)),
            ([*"st"], ("s", "nope", 1)),
            ([*"sst"], ("s", "t", 1)),
            ([*"st"], ("s", "t")),
            ([*"st"], (["s"], "t", 1)),
            ("st", ("s", "t", 3)),
        ]
        for vertices, arc in cases:
            with pytest.raises(CollschedError):
                FlowGraph(vertices, [arc])
        with pytest.raises(Overflow):
            FlowGraph([*"st"], [("s", "t", CAPACITY_BUDGET + 1)])

    def test_infinity_is_not_a_capacity(self):
        with pytest.raises(CollschedError):
            FlowGraph([*"st"], [("s", "t", float("inf"))])

    @pytest.mark.parametrize("limit", [2.5, True, -3], ids=["float", "bool", "negative"])
    def test_bad_limits_rejected(self, limit):
        g = FlowGraph([*"sat"], [("s", "a", 5), ("a", "t", 5), ("s", "t", 0)])
        with pytest.raises(CollschedError):
            g.run(["s"], ["t"], limit=limit)
        with pytest.raises(CollschedError):
            g.run_keep(["s"], ["t"], limit=limit)
        _, state = g.run_keep(["s"], ["t"])
        with pytest.raises(CollschedError):
            g.resume(state, ["s"], "a", limit)

    def test_from_arcs_equals_incremental(self):
        vertices, arcs = random_instance(37)
        g1 = FlowGraph(vertices, arcs)
        g2 = FlowGraph.from_arcs(vertices, arcs)
        assert g1.run([vertices[0]], [vertices[-1]]) == g2.run([vertices[0]], [vertices[-1]])
        with pytest.raises(CollschedError):
            FlowGraph.from_arcs(["a", "a"], [])


def residual_cut(arcs, caps, side):
    """Exit capacity of `side` in a residual state: arc i's forward entry
    caps[2*i] runs a -> b, its backward entry caps[2*i+1] runs b -> a."""
    return sum(
        residual
        for i, (a, b, _) in enumerate(arcs)
        for tail, head, residual in ((a, b, caps[2 * i]), (b, a, caps[2 * i + 1]))
        if tail in side and head not in side
    )


def brute_resume(vertices, arcs, caps, sources, sink):
    """Least residual exit capacity over the sets holding every source but
    not the sink, by subset enumeration."""
    free = [v for v in vertices if v not in sources and v != sink]
    return min(
        residual_cut(arcs, caps, {*sources, *combo})
        for r in range(len(free) + 1)
        for combo in itertools.combinations(free, r)
    )


class TestResume:
    @pytest.mark.parametrize("seed", range(60))
    def test_resume_matches_cut_enumeration(self, seed):
        """A chain of resumes from {s}, {s, v1}, {s, v1, v2} on one state
        each returns min(limit, the least cut holding its sources but not
        its sink) in the residual `run_keep` left, capped calls included."""
        vertices, arcs = random_instance(seed)
        g = FlowGraph(vertices, arcs)
        s, t = vertices[0], vertices[-1]
        rng = random.Random(seed)
        for run_limit in (None, 2):
            _, state = g.run_keep([s], [t], limit=run_limit)
            base = state[0].copy()
            sinks = rng.sample(vertices[1:], min(3, len(vertices) - 1))
            sources = [s]
            for i, sink in enumerate(sinks):
                want = brute_resume(vertices, arcs, base, sources, sink)
                # every other call is capped one short of the cut, when it can be
                limit = max(want - 1, 0) if (seed + i) % 2 else want + 3
                assert g.resume(state, sources, sink, limit) == min(limit, want), (
                    seed, run_limit, sources, sink
                )
                sources = sources + [sink]

    @pytest.mark.parametrize("seed", range(25))
    def test_resume_matches_override_rerun(self, seed):
        """After a converged run, resuming from the source to v gains what
        an arc (v, t) wider than every cut adds, in a fresh run on a graph
        built with that arc."""
        vertices, arcs = random_instance(seed)
        s, t = vertices[0], vertices[-1]
        g = FlowGraph(vertices, arcs)
        big = sum(c for *_, c in arcs) + 5
        for v in vertices[1:-1]:
            value, state = g.run_keep([s], [t])
            boosted = FlowGraph(vertices, arcs + [(v, t, big)])
            assert value + g.resume(state, [s], v, big) == boosted.run([s], [t]), (seed, v)

    def test_resume_respects_limit(self):
        g = FlowGraph([*"sat"], [("s", "a", 6), ("a", "t", 0)])
        value, state = g.run_keep(["s"], ["t"])
        assert value == 0
        assert g.resume(state, ["s"], "a", 4) == 4
        # the pushed units stay in the state: 2 of s -> a are left
        assert state[0][:2] == [2, 4]
        _, state = g.run_keep(["s"], ["t"])
        assert g.resume(state, ["s"], "a", 100) == 6

    def test_resume_rejects_a_sink_among_the_sources(self):
        g = FlowGraph([*"sat"], [("s", "a", 3), ("a", "t", 3)])
        _, state = g.run_keep(["s"], ["t"])
        with pytest.raises(CollschedError):
            g.resume(state, ["s", "a"], "a", 10)

    @pytest.mark.parametrize("vertex", [-1, 2, True, "nope"])
    def test_resume_rejects_unknown_vertices(self, vertex):
        g = FlowGraph([*"sat"], [("a", "t", 6), ("s", "a", 0)])
        _, state = g.run_keep(["s"], ["t"])
        with pytest.raises(CollschedError):
            g.resume(state, ["s", vertex], "a", 10)
        with pytest.raises(CollschedError):
            g.resume(state, ["s"], vertex, 10)

    def test_resume_rejects_non_iterable_sources(self):
        g = FlowGraph([*"sat"], [("a", "t", 6), ("s", "a", 0)])
        _, state = g.run_keep(["s"], ["t"])
        with pytest.raises(CollschedError):
            g.resume(state, 7, "a", 3)

    def test_resume_keeps_earlier_terminals_among_the_sources(self):
        """Flow pushed s -> a changes the residual value of any cut that
        splits s from a, so a later call on the state must source both."""
        g = FlowGraph([*"sabt"], [("s", "a", 4), ("a", "b", 4), ("s", "b", 1), ("b", "t", 0)])
        _, state = g.run_keep(["s"], ["t"])
        assert g.resume(state, ["s"], "a", 10) == 4
        for sources, sink in ((["s"], "b"), (["a"], "b"), (["b"], "t")):
            with pytest.raises(CollschedError):
                g.resume(state, sources, sink, 10)
        # a refused call leaves the state as it was
        assert g.resume(state, ["s", "a"], "b", 10) == 5
        assert g.resume(state, ["a", "s", "b"], "t", 10) == 0


def brute_reach(vertices, arcs, caps, starts, at_least):
    """Fixpoint of residual reachability over the arc list: arc i's
    forward residual is caps[2*i], its backward residual caps[2*i+1]."""
    seen = set(starts)
    grew = True
    while grew:
        grew = False
        for i, (a, b, _) in enumerate(arcs):
            for tail, head, residual in ((a, b, caps[2 * i]), (b, a, caps[2 * i + 1])):
                if tail in seen and head not in seen and residual >= at_least:
                    seen.add(head)
                    grew = True
    return seen


class TestReach:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_brute_force_reachability(self, seed):
        vertices, arcs = random_instance(seed)
        g = FlowGraph(vertices, arcs)
        s, t = vertices[0], vertices[-1]
        rng = random.Random(seed)
        for limit in (None, 1, 4):
            _, state = g.run_keep([s], [t], limit=limit)
            caps = state[0]
            for at_least in (1, 2, 3, 5, 9):
                for starts in ([s], [s, t], rng.sample(vertices, 2)):
                    assert g.reach(state, starts, at_least) == brute_reach(
                        vertices, arcs, caps, starts, at_least
                    ), (seed, limit, at_least, starts)

    def test_rejects_bad_thresholds_and_vertices(self):
        g = FlowGraph([*"sat"], [("s", "a", 4), ("a", "t", 4)])
        _, state = g.run_keep(["s"], ["t"])
        for at_least in (0, -1, 1.5, True):
            with pytest.raises(CollschedError):
                g.reach(state, ["s"], at_least)
        for starts in (["nope"], 7, "s", []):
            with pytest.raises(CollschedError):
                g.reach(state, starts, 1)


class TestStates:
    @pytest.mark.parametrize("seed", range(60))
    def test_lowered_arc_and_repair_match_a_fresh_run(self, seed):
        """Lower an arc of a converged flow, catch the flow up, route the
        dropped flow again (around the arc, else back to s and out of t)
        and push on: the value equals a fresh run on a graph built with the
        lowered arc.  Three edits per seed; 24 of the 180 drop flow, 23 of
        those reroute short.  The lowered graph itself runs to the same
        value."""
        vertices, arcs = random_instance(seed)
        s, t = vertices[0], vertices[-1]
        g = FlowGraph(vertices, arcs)
        rng = random.Random(seed)
        value, state = g.run_keep([s], [t])
        for _ in range(3):
            i = rng.randrange(len(arcs))
            a, b, cap = arcs[i]
            amount = rng.randint(0, cap)
            g.lower(entry(g, a, b), amount)
            need = catch_up(g, state)
            drop = need.get(a, 0)
            assert need == ({a: drop, b: -drop} if drop else {}), (seed, a, b, amount)
            arcs = arcs[:i] + [(a, b, cap - amount)] + arcs[i + 1:]
            short = drop - g.push(state, [a], [b], drop) if drop else 0
            if short:
                # the units stuck at a go back to s, those missing at b come
                # back out of t, and the flow is that much smaller
                for start, end in ((a, s), (t, b)):
                    if start != end:
                        assert g.push(state, [start], [end], short) == short
                value -= short
            value += g.push(state, [s], [t], CAPACITY_BUDGET)
            assert value == FlowGraph(vertices, arcs).run([s], [t]), (seed, a, b, amount)
            assert g.run([s], [t]) == value, (seed, a, b, amount)

    def test_lower_reports_the_flow_it_had_to_drop(self):
        g = FlowGraph([*"sat"], [("s", "a", 4), ("a", "t", 4)])
        _, state = g.run_keep(["s"], ["t"])
        base = g.state()
        # the flow fills (a, t): lowering it by 3 drops 3 of its 4 units in
        # the flow, which catching up reports, and nothing in the state
        # carrying no flow
        g.lower(entry(g, "a", "t"), 3)
        assert catch_up(g, state) == {"a": 3, "t": -3}
        assert catch_up(g, base) == {}
        assert state[0][2:] == [0, 1] and base[0][2:] == [1, 0]
        # a caught-up state has nothing left to report
        assert catch_up(g, state) == {}
        g.lower(entry(g, "s", "a"), 0)
        assert catch_up(g, state) == {}
        # the graph carries the lowered capacity
        assert g.run(["s"], ["t"]) == 1

    def test_copies_are_independent_and_grow_with_the_graph(self):
        g = FlowGraph([*"sat"], [("s", "a", 4), ("a", "t", 2)])
        value, state = g.run_keep(["s"], ["t"])
        twin = copy.deepcopy(state)
        g.grow(["b"], [("a", "b", 5), ("b", "t", 1)])
        # both states gain the new arcs carrying no flow
        assert value + g.push(state, ["s"], ["t"], 10) == 3
        assert g.push(twin, ["s"], ["t"], 10) == 1
        assert g.push(g.state(), ["s"], ["t"], 10) == 3 == g.run(["s"], ["t"])
        assert g.reach(state, ["s"], 1) == {"s", "a", "b"}

    @pytest.mark.parametrize(
        "src, dst, amount",
        [
            ("s", "a", -1),
            ("s", "a", 1.5),
            ("s", "a", True),
            ("s", "a", 5),
            ("s", "nope", 1),
            ("a", "s", 1),
            ("s", "t", 4),
        ],
        ids=["negative", "float", "bool", "above-capacity", "unknown-vertex", "no-arc", "parallel"],
    )
    def test_lower_rejects_bad_arguments(self, src, dst, amount):
        # the two arcs s -> t merge into one of capacity 3, which 4 exceeds
        g = FlowGraph([*"sat"], [("s", "a", 4), ("a", "t", 4), ("s", "t", 1), ("s", "t", 2)])
        _, state = g.run_keep(["s"], ["t"])
        before = list(state[0])
        with pytest.raises(CollschedError):
            g.lower(entry(g, src, dst), amount)
        # a refused cut logs nothing: the state has nothing to catch up
        assert catch_up(g, state) == {}
        assert state[0] == before
        assert g.run(["s"], ["t"]) == 7

    def test_a_state_behind_the_edits_is_refused_until_caught_up(self):
        g = FlowGraph([*"sat"], [("s", "a", 4), ("a", "t", 4)])
        _, state = g.run_keep(["s"], ["t"])
        g.lower(entry(g, "a", "t"), 1)
        for call in (
            lambda: g.push(state, ["a"], ["t"], 1),
            lambda: g.resume(state, ["s"], "t", 1),
            lambda: g.reach(state, ["s"], 1),
        ):
            with pytest.raises(CollschedError, match="only keep brings"):
                call()
        assert catch_up(g, state) == {"a": 1, "t": -1}
        # the unit stuck at a goes back to s, leaving a max flow of 3
        assert g.push(state, ["a"], ["s"], 1) == 1
        assert g.push(copy.deepcopy(state), ["s"], ["t"], 5) == 0
        assert g.reach(state, ["s"], 1) == {"s", "a"}

    @pytest.mark.parametrize(
        "sources, sinks, limit",
        [
            ("s", ["t"], 1),
            (["s"], "t", 1),
            ([], ["t"], 1),
            (["s", "a"], ["a"], 1),
            (["nope"], ["t"], 1),
            (["s"], ["t"], -1),
            (["s"], ["t"], 1.5),
            (["s"], ["t"], None),
        ],
        ids=[
            "str-sources", "str-sinks", "empty-sources", "overlap", "unknown-vertex",
            "negative-limit", "float-limit", "no-limit",
        ],
    )
    def test_push_rejects_bad_arguments(self, sources, sinks, limit):
        g = FlowGraph([*"sat"], [("s", "a", 4), ("a", "t", 4)])
        state = g.state()
        with pytest.raises(CollschedError):
            g.push(state, sources, sinks, limit)
        assert state[0] == g.state()[0]

    @pytest.mark.parametrize(
        "vertices, arcs",
        [
            (["a"], []),
            (["x", "x"], []),
            ([["x"]], []),
            (["x"], [("x", "nope", 1)]),
            (["x"], [("x", "s", -1)]),
            (["x"], [("x", "s", 2.0)]),
            (["x"], [("x", "s")]),
            ("xy", [("x", "y", 1)]),
        ],
        ids=[
            "known-vertex", "repeated-vertex", "unhashable-vertex", "unknown-endpoint",
            "negative-capacity", "float-capacity", "not-a-triple", "string-vertices",
        ],
    )
    def test_grow_rejects_bad_input_and_leaves_the_graph_as_it_was(self, vertices, arcs):
        g = FlowGraph([*"sat"], [("s", "a", 4), ("a", "t", 4)])
        with pytest.raises(CollschedError):
            g.grow(vertices, arcs)
        with pytest.raises(Overflow):
            g.grow(["x"], [("s", "x", CAPACITY_BUDGET)])
        assert g.run(["s"], ["t"]) == 4
        g.grow(["x"], [("s", "x", 3), ("x", "t", 3)])
        assert g.run(["s"], ["t"]) == 7


def listed(g):
    """The arcs in the adjacency lists of `g` by (tail, head) name, checking
    that each forward entry's residual twin is listed at its head and
    nothing else is listed."""
    names, to, adj = g._names, g._to, g._adj
    found = set()
    for u, entries in enumerate(adj):
        for e in entries:
            if e % 2 == 0:
                assert e + 1 in adj[to[e]]
                found.add((names[u], names[to[e]]))
    assert sum(map(len, adj)) == 2 * len(found)
    return found


class TestOneArcPerPair:
    def test_repeated_pairs_merge_into_one_arc(self):
        g = FlowGraph([*"sat"], [("s", "a", 2), ("a", "t", 4), ("s", "a", 3)])
        assert g.arcs() == [("s", "a", 5), ("a", "t", 4)]
        assert (g.capacity(entry(g, "s", "a")), g.capacity(entry(g, "t", "a"))) == (5, 0)
        g.grow(["b"], [("s", "a", 1), ("a", "b", 2), ("a", "b", 1), ("b", "t", 3)])
        assert g.arcs() == [("s", "a", 6), ("a", "t", 4), ("a", "b", 3), ("b", "t", 3)]
        # a state holds two entries per arc, one pair per vertex pair
        assert len(g.state()[0]) == 8
        assert g.run(["s"], ["t"]) == 6
        # a grow refused late merges nothing
        with pytest.raises(CollschedError):
            g.grow([], [("s", "a", 1), ("s", "nope", 1)])
        assert g.capacity(entry(g, "s", "a")) == 6
        # the merged arc lowers as one
        g.lower(entry(g, "s", "a"), 6)
        assert g.run(["s"], ["t"]) == 0

    def test_an_arc_at_zero_leaves_the_adjacency_lists_until_raised(self):
        g = FlowGraph([*"sat"], [("s", "a", 3), ("a", "t", 3), ("s", "t", 1)])
        value, state = g.run_keep(["s"], ["t"])
        g.lower(entry(g, "a", "t"), 3)
        assert listed(g) == {("s", "a"), ("s", "t")}
        assert g.arcs() == [("s", "a", 3), ("s", "t", 1)]
        assert g.run(["s"], ["t"]) == 1
        assert g.reach(g.state(), ["a"], 1) == {"a"}
        assert catch_up(g, state) == {"a": 3, "t": -3}
        assert g.push(state, ["a"], ["s"], 3) == 3
        g.grow([], [("a", "t", 2)])
        assert listed(g) == {("s", "a"), ("s", "t"), ("a", "t")}
        assert g.run(["s"], ["t"]) == 3
        assert g.reach(g.state(), ["a"], 1) == {"a", "t"}
        # the kept flow, caught up to the raise, pushes on to a max flow
        assert catch_up(g, state) == {}
        assert value - 3 + g.push(state, ["s"], ["t"], 10) == 3

    def test_a_state_behind_a_merging_grow_is_refused_until_caught_up(self):
        g = FlowGraph([*"sat"], [("s", "a", 4), ("a", "t", 2)])
        value, state = g.run_keep(["s"], ["t"])
        g.grow([], [("a", "t", 3)])
        for call in (
            lambda: g.push(state, ["s"], ["t"], 1),
            lambda: g.resume(state, ["s"], "t", 1),
            lambda: g.reach(state, ["s"], 1),
        ):
            with pytest.raises(CollschedError, match="only keep brings"):
                call()
        # a raise drops no flow
        assert catch_up(g, state) == {}
        assert value + g.push(state, ["s"], ["t"], 10) == 4 == g.run(["s"], ["t"])

    def test_a_new_arc_at_zero_never_enters_the_adjacency_lists(self):
        g = FlowGraph([*"sat"], [("s", "a", 4), ("a", "t", 0)])
        g.grow(["b"], [("a", "b", 0), ("b", "t", 0), ("s", "a", 0)])
        assert listed(g) == {("s", "a")}
        assert g.arcs() == [("s", "a", 4)]
        assert g.capacity(entry(g, "a", "t")) == 0 == g.run(["s"], ["t"])
        # a raise from zero lists the arc
        g.grow([], [("a", "t", 1)])
        assert listed(g) == {("s", "a"), ("a", "t")}
        assert g.run(["s"], ["t"]) == 1


def net_sent(arcs, before, after):
    """Units each vertex sent, net, between two residual states of the
    arcs `arcs`: the flow arc i gained is before[2*i] - after[2*i]."""
    sent = {}
    for i, (a, b, _) in enumerate(arcs):
        gained = before[2 * i] - after[2 * i]
        sent[a] = sent.get(a, 0) + gained
        sent[b] = sent.get(b, 0) - gained
    return sent


class TestAmounts:
    @pytest.mark.parametrize("seed", range(60))
    def test_push_with_amounts_matches_a_super_terminal_run(self, seed):
        """A push whose terminals carry amounts moves what a run on the
        state's residual network moves from a super source, with an arc of
        each source's amount, to a super sink, with an arc of each sink's;
        a terminal listed without an amount has an arc of the limit.  No
        source sends and no sink takes more than its amount, and every
        other vertex stays balanced.  The states start empty or carrying a
        max flow between two other vertices.  Pushing again from the
        start at the amounts each terminal moved serves every one of them in
        full."""
        vertices, arcs = random_instance(seed)
        g = FlowGraph(vertices, arcs)
        rng = random.Random(seed)
        for _ in range(6):
            n_sources = rng.randint(1, min(3, len(vertices) - 1))
            n_sinks = rng.randint(1, min(3, len(vertices) - n_sources))
            picked = rng.sample(vertices, n_sources + n_sinks)
            sources = {v: rng.randint(0, 5) for v in picked[:n_sources]}
            sinks = {v: rng.randint(0, 5) for v in picked[n_sources:]}
            state = g.state()
            if rng.random() < 0.5:
                a, b = rng.sample(vertices, 2)
                state = g.run_keep([a], [b])[1]
            before = list(state[0])
            residual = [
                arc
                for i, (a, b, _) in enumerate(arcs)
                for arc in ((a, b, before[2 * i]), (b, a, before[2 * i + 1]))
            ]
            listed = rng.random() < 0.3  # the sinks go as a list
            for limit in (sum(sources.values()) + 1, 3, 1):
                rooms = dict.fromkeys(sinks, limit) if listed else sinks
                oracle = FlowGraph(
                    [*vertices, "S", "T"],
                    residual
                    + [("S", v, amount) for v, amount in sources.items()]
                    + [(v, "T", amount) for v, amount in rooms.items()],
                )
                want = oracle.run(["S"], ["T"], limit=limit)
                twin = copy.deepcopy(state)
                pushed = g.push(twin, sources, list(sinks) if listed else sinks, limit)
                assert pushed == want, (seed, sources, sinks, limit)
                sent = net_sent(arcs, before, twin[0])
                moved = {v: abs(sent.get(v, 0)) for v in (*sources, *sinks)}
                for v in vertices:
                    if v in sources:
                        assert 0 <= sent.get(v, 0) <= sources[v], (seed, v)
                    elif v in sinks:
                        assert 0 <= -sent.get(v, 0) <= rooms[v], (seed, v)
                    else:
                        assert sent.get(v, 0) == 0, (seed, v)
                assert sum(moved[v] for v in sources) == pushed
                exact = {v: moved[v] for v in sources}, {v: moved[v] for v in sinks}
                assert g.push(copy.deepcopy(state), *exact, pushed) == pushed, (seed, exact)

    def test_amounts_are_checked(self):
        g = FlowGraph([*"sat"], [("s", "a", 4), ("a", "t", 4)])
        state = g.state()
        for sources, sinks in (
            ({"s": -1}, {"t": 1}),
            ({"s": 1.5}, {"t": 1}),
            ({"s": True}, {"t": 1}),
            ({"s": 1}, {"t": None}),
            ({}, {"t": 1}),
            ({"s": 1, "a": 1}, {"a": 1}),
            ({"nope": 1}, {"t": 1}),
        ):
            with pytest.raises(CollschedError):
                g.push(state, sources, sinks, 5)
        assert state[0] == g.state()[0]
        # a spent terminal is an ordinary vertex the flow may cross
        assert g.push(state, {"s": 3}, {"a": 0, "t": 5}, 5) == 3


class TestCatchUp:
    @pytest.mark.parametrize("seed", range(60))
    def test_a_stale_state_caught_up_and_repaired_is_a_max_flow(self, seed):
        """Lower random arcs, and grow some, while a kept max flow s -> t
        sits stale; then catch it up once.  The imbalance it reports, with
        the change of the max flow value added at s and taken at t, is
        routed by one push with those amounts, exactly, and the state then
        carries a max flow of the edited graph: s sends and t takes what
        `run` on the graph, and on a graph built fresh from its arcs,
        reports, every other vertex is balanced and no augmenting path is
        left.  Asking one unit more of the same push comes up short.  The
        catch-up finds dropped flow on 27 of the 60 seeds."""
        vertices, arcs = random_instance(seed)
        s, t = vertices[0], vertices[-1]
        g = FlowGraph(vertices, arcs)
        rng = random.Random(seed)
        value, state = g.run_keep([s], [t])
        for _ in range(rng.randint(2, 8)):
            a, b = rng.sample(vertices, 2)
            if rng.random() < 0.25 and all((x, y) != (a, b) for x, y, _ in arcs):
                cap = rng.randint(0, 4)
                g.grow([], [(a, b, cap)])
                arcs = arcs + [(a, b, cap)]
                continue
            i = rng.randrange(len(arcs))
            a, b, cap = arcs[i]
            amount = rng.choice([rng.randint(0, cap), cap])
            g.lower(entry(g, a, b), amount)
            arcs = arcs[:i] + [(a, b, cap - amount)] + arcs[i + 1:]
        new = g.run([s], [t])
        assert new == FlowGraph(vertices, arcs).run([s], [t])
        need = catch_up(g, state)
        for ask, twin in ((new + 1, copy.deepcopy(state)), (new, state)):
            moves = dict(need)
            moves[s] = moves.get(s, 0) + ask - value
            moves[t] = moves.get(t, 0) - ask + value
            excess = {v: d for v, d in moves.items() if d > 0}
            deficit = {v: -d for v, d in moves.items() if d < 0}
            want = sum(excess.values())
            if want:
                pushed = g.push(twin, excess, deficit, want)
                assert pushed < want if ask > new else pushed == want, (seed, ask)
        sent = net_sent(arcs, [entry for *_, c in arcs for entry in (c, 0)], state[0])
        assert sent.get(s, 0) == new == -sent.get(t, 0), seed
        assert all(sent.get(v, 0) == 0 for v in vertices[1:-1]), seed
        assert all(c >= 0 for c in state[0])
        assert g.push(state, [s], [t], CAPACITY_BUDGET) == 0

    @pytest.mark.parametrize("seed", range(60))
    def test_keep_is_that_repair(self, seed):
        """`keep` on a stale state is the repair above with the change of
        supplies added: `catch_up` and one push of the imbalance plus each
        supply vertex's change from the flow the state records, the sink
        taking the change of their sum, on a twin, routed in the same order
        to the same residual state.  It returns what that push leaves
        unrouted, 0 for a flow the edited graph carries, the state owes the
        rest and records what was asked.  On a fresh state it is that push
        from nothing."""
        vertices, arcs = random_instance(seed)
        s, x, t = vertices[0], vertices[1], vertices[-1]
        g = FlowGraph(vertices, arcs)
        rng = random.Random(seed)
        first = {s: g.run([s], [t])}
        state = g.state()
        assert keep(g, state, first, t) == 0
        assert state[0] == g.run_keep([s], [t])[1][0]
        assert state[4] == {g.vertex(s): first[s], g.vertex(t): -first[s]}
        for _ in range(rng.randint(1, 6)):
            a, b, cap = rng.choice(arcs)
            g.lower(entry(g, a, b), rng.randint(0, g.capacity(entry(g, a, b))))
        new = g.run([s], [t])
        shorts = []
        for asked in ({s: new}, {s: new + 1}, {s: rng.randint(0, new), x: rng.randint(0, 9)}):
            kept = copy.deepcopy(state)
            twin = copy.deepcopy(state)
            short = keep(g, kept, asked, t)
            moves = catch_up(g, twin)
            for v, units in asked.items():
                moves[v] = moves.get(v, 0) + units
            for v, units in first.items():
                moves[v] = moves.get(v, 0) - units
            moves[t] = moves.get(t, 0) + sum(first.values()) - sum(asked.values())
            excess = {v: d for v, d in moves.items() if d > 0}
            deficit = {v: -d for v, d in moves.items() if d < 0}
            want = sum(excess.values())
            pushed = g.push(twin, excess, deficit, want) if want else 0
            assert short == want - pushed, (seed, asked)
            assert kept[:3] == twin[:3], (seed, asked)
            owed = {g._names[v]: d for v, d in kept[3].items()}
            assert sum(d for d in owed.values() if d > 0) == short, (seed, asked)
            record = {g._names[v]: d for v, d in kept[4].items()}
            assert record == {**asked, t: -sum(asked.values())}, (seed, asked)
            shorts.append(short)
        assert shorts[:2] == [0, 1], seed

    @pytest.mark.parametrize("seed", range(60))
    def test_a_second_keep_of_the_same_supplies_moves_nothing(self, seed):
        """With no edit between them, a second `keep` of the supplies the
        first one asked for pushes no unit: it returns 0 after a full
        first `keep`, and after a short one the same debt, which no push
        can route, and it leaves the state as it was."""
        vertices, arcs = random_instance(seed)
        s, x, t = vertices[0], vertices[1], vertices[-1]
        g = FlowGraph(vertices, arcs)
        rng = random.Random(seed)
        asked = {s: rng.randint(0, g.run([s], [t]) + 2), x: rng.randint(0, 3)}
        state = g.state()
        short = keep(g, state, asked, t)
        before = copy.deepcopy(state)
        assert keep(g, state, dict(asked), t) == short, seed
        assert state == before, seed

    @pytest.mark.parametrize("seed", range(60))
    def test_a_state_aimed_at_another_sink_answers_as_a_fresh_one(self, seed):
        """A state kept into t, through random edits, and then asked for a
        flow into another sink r falls short by what a fresh state does,
        and its net flow is then exactly the new supplies, r taking their
        sum, plus the imbalance it owes."""
        vertices, arcs = random_instance(seed)
        s, x, r, t = vertices[0], vertices[1], vertices[-2], vertices[-1]
        g = FlowGraph(vertices, arcs)
        rng = random.Random(seed)
        state = g.state()
        keep(g, state, {s: g.run([s], [t]), x: rng.randint(0, 3)}, t)
        for _ in range(rng.randint(0, 4)):
            a, b, cap = rng.choice(arcs)
            g.lower(entry(g, a, b), rng.randint(0, g.capacity(entry(g, a, b))))
        asked = {s: rng.randint(0, g.run([s], [r]) + 2)}
        if x != r:
            asked[x] = rng.randint(0, 3)
        short = keep(g, state, asked, r)
        assert short == keep(g, g.state(), asked, r), seed
        owed = {g._names[v]: d for v, d in state[3].items()}
        assert sum(d for d in owed.values() if d > 0) == short, seed
        lowered = [(a, b, g.capacity(entry(g, a, b))) for a, b, _ in arcs]
        sent = net_sent(lowered, [e for *_, c in lowered for e in (c, 0)], state[0])
        want = {**asked, r: -sum(asked.values())}
        for v, d in owed.items():
            want[v] = want.get(v, 0) - d
        assert {v: d for v, d in sent.items() if d} == {v: d for v, d in want.items() if d}, seed

    @staticmethod
    def shortfall_questions(seed):
        """Keep a flow of V units s -> t, V at most the max flow, through
        random edits, and ask each time for mu0 more units from a random x:
        the push falls short by mu0 less what a resume of at most mu0 units
        from x to t gains on a fresh flow of V units, the least slack of the
        cuts holding x but not t.  A full push is kept as asked; after a
        shortfall one more push from the same state takes x's units back
        out, and comes up full.  The state then carries exactly what was
        asked: s and x send their units, t takes their sum and every other
        vertex is balanced.  Four questions; returns how many pushes came
        up full (False) and short (True)."""
        pushes = Counter()
        vertices, arcs = random_instance(seed)
        s, t = vertices[0], vertices[-1]
        g = FlowGraph(vertices, arcs)
        rng = random.Random(seed)
        state = g.state()
        for _ in range(4):
            a, b, cap = rng.choice(arcs)
            g.lower(entry(g, a, b), rng.randint(0, g.capacity(entry(g, a, b))))
            value = rng.randint(0, g.run([s], [t]))
            x, mu0 = rng.choice(vertices[1:-1]), rng.randint(0, 9)
            asked = {s: value, x: mu0}
            short = keep(g, state, asked, t)
            got, fresh = g.run_keep([s], [t], value)
            assert got == value, seed
            assert short == mu0 - g.resume(fresh, [x], t, mu0), (seed, x, mu0)
            pushes[bool(short)] += 1
            if short:
                asked = {s: value}
                assert keep(g, state, asked, t) == 0, seed
            lowered = [(a, b, g.capacity(entry(g, a, b))) for a, b, _ in arcs]
            sent = net_sent(lowered, [e for *_, c in lowered for e in (c, 0)], state[0])
            want = {**asked, t: -sum(asked.values())}
            assert {v: d for v, d in sent.items() if d} == {
                v: d for v, d in want.items() if d
            }, seed
        return pushes

    @pytest.mark.parametrize("seed", range(60))
    def test_the_shortfall_is_mu0_less_a_resumes_gain(self, seed):
        self.shortfall_questions(seed)

    def test_the_random_graphs_ask_both_full_and_short_pushes(self):
        """The 60 random graphs above meet both outcomes, so neither side
        of the shortfall rule goes unchecked."""
        pushes = sum((self.shortfall_questions(seed) for seed in range(60)), Counter())
        assert pushes[False] > 0 and pushes[True] > 0, pushes

    def test_a_shortfall_is_owed_and_routed_by_the_next_keep(self):
        """A kept flow of 3 runs s -> a -> t; with (a, t) lowered to 1, the
        repair must route 2 units from a to t, and only a -> b -> t, of 1,
        is left.  `keep` returns 1, having brought the state to the log and
        pushed that 1 unit: a still holds 1 unit of imbalance, which the
        state owes.  The next `keep`, down to 2 units, routes it back to s."""
        arcs = [("s", "a", 3), ("a", "t", 3), ("a", "b", 1), ("b", "t", 1)]
        g = FlowGraph([*"sabt"], arcs)

        def flows(state):
            return [g.capacity(entry(g, a, b)) - state[0][2 * i] for i, (a, b, _) in enumerate(arcs)]

        state = g.state()
        assert keep(g, state, {"s": 3}, "t") == 0
        assert flows(state) == [3, 3, 0, 0]
        # the state records its 3 units, so asking them again moves none
        assert keep(g, state, {"s": 3}, "t") == 0
        assert flows(state) == [3, 3, 0, 0]
        g.lower(entry(g, "a", "t"), 2)
        assert keep(g, state, {"s": 3}, "t") == 1
        assert state[2] == len(g._log) == 1
        # (a, t) clamped to its 1 unit, then 1 of the 2 units routed round
        assert flows(state) == [3, 1, 1, 1]
        assert {g._names[v]: d for v, d in state[3].items()} == {"a": 1, "t": -1}
        assert keep(g, state, {"s": 2}, "t") == 0
        assert flows(state) == [2, 1, 1, 1] and state[3] == {}


# ---------------------------------------------------------------------------
# Phases labelled from the sinks find the forward-level Dinic's paths
# ---------------------------------------------------------------------------

def forward_dinic(n, to, adj, cap, sources, sinks, limit):
    """The engine's Dinic as it was before its phases were labelled from
    the sinks, kept as the oracle that pins the paths it finds.

    Dinic blocking-flow max flow from the vertices `sources` to the
    vertices `sinks`, in place on `cap`, stopping once `limit` units are
    placed.  Both map vertex indices to rooms, the most each still sends
    or takes; a terminal whose room is spent is an ordinary vertex, as in
    a network with a super source and a super sink joined to the
    terminals by arcs of those rooms."""
    take = [0] * n
    open_sinks = 0  # sinks with room left
    for t, room in sinks.items():
        take[t] = room
        if room:
            open_sinks += 1
    starts = [s for s, room in sources.items() if room]
    total = 0
    while total < limit:
        # BFS level graph, stopped once every sink with room has a level or
        # the level of the nearest ones is complete: no vertex past it lies
        # on a shortest augmenting path.
        level = [-1] * n
        for s in starts:
            level[s] = 0
        queue = list(starts)
        last = n
        missing = open_sinks
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
                        if take[v]:
                            last = lu
                            missing -= 1
        if last == n:
            break
        it = [0] * n
        spent = False  # a source ran out of room this phase
        for s in starts:
            room = sources[s]
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
                    if not take[u]:
                        open_sinks -= 1
                    if total >= limit or not room:
                        break
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
                lu1 = level[u] + 1
                while iu < nu:
                    e = au[iu]
                    if cap[e] > 0 and level[to[e]] == lu1:
                        break
                    iu += 1
                it[u] = iu
                if iu < nu:
                    path.append(e)
                    u = to[e]
                elif path:
                    level[u] = -1  # dead end; prune for the rest of the phase
                    u = to[path.pop() ^ 1]
                    it[u] += 1
                else:
                    break  # this source is exhausted for the phase
            sources[s] = room
            if total >= limit:
                return total
            if not room:
                spent = True
        if spent:
            starts = [s for s in starts if sources[s]]
    return total


def network(seed):
    """A random network of 4 to 14 vertices, sparse or dense."""
    rng = random.Random(seed)
    vertices = [f"v{i}" for i in range(rng.randint(4, 14))]
    density = rng.choice([0.15, 0.3, 0.6])
    arcs = [
        (a, b, rng.randint(0, 7))
        for a in vertices
        for b in vertices
        if a != b and rng.random() < density
    ]
    return vertices, arcs


def forward(g, state, sources, sinks, limit):
    """The amount and residual caps the forward-level Dinic leaves on a
    copy of `state` for the same terminals: a dict gives rooms, a list
    gives every vertex the limit."""
    idx = g._idx

    def rooms(names):
        if type(names) is dict:
            return {idx[v]: amount for v, amount in names.items()}
        return dict.fromkeys((idx[v] for v in names), limit)

    caps = g._caps(copy.deepcopy(state))
    pushed = forward_dinic(len(idx), g._to, g._adj, caps, rooms(sources), rooms(sinks), limit)
    return pushed, caps


def terminals(rng, vertices):
    """Disjoint random sources and sinks, each a list or a dict of rooms
    that may hold zeros."""
    k = rng.randint(2, min(6, len(vertices)))
    picked = rng.sample(vertices, k)
    cut = rng.randint(1, k - 1)
    sets = []
    for part in (picked[:cut], picked[cut:]):
        if rng.random() < 0.3:
            sets.append(part)
        else:
            sets.append({v: rng.choice([0, rng.randint(1, 9), 50]) for v in part})
    return sets


class TestSinkLabelledPhases:
    """Every call returns what the forward-level Dinic returns and leaves
    the identical residual caps, so the paths are the same, in the same
    order: the byte and counter identity of every schedule rests on it."""

    @pytest.mark.parametrize("seed", range(80))
    def test_pushes_match_the_forward_level_oracle(self, seed):
        """Chained pushes on one state, with limits below, at and above
        what the push can move."""
        vertices, arcs = network(seed)
        g = FlowGraph(vertices, arcs)
        rng = random.Random(seed)
        state = g.state()
        for _ in range(6):
            sources, sinks = terminals(rng, vertices)
            most = forward(g, state, sources, sinks, CAPACITY_BUDGET)[0]
            limit = max(0, most + rng.choice([-2, -1, 0, 0, 1, 5]))
            want = forward(g, state, sources, sinks, limit)
            assert (g.push(state, sources, sinks, limit), state[0]) == want, (seed, limit)

    @pytest.mark.parametrize("seed", range(40))
    def test_resume_chains_match_the_forward_level_oracle(self, seed):
        """`run_keep` and then resumes whose sources grow by each earlier
        sink, as the terminal rule asks."""
        vertices, arcs = network(seed)
        g = FlowGraph(vertices, arcs)
        rng = random.Random(seed)
        order = rng.sample(vertices, len(vertices))
        s, t = order[0], order[-1]
        limit = rng.choice([1, 3, CAPACITY_BUDGET])
        want = forward(g, g.state(), [s], [t], limit)
        value, state = g.run_keep([s], [t], limit)
        assert (value, state[0]) == want, seed
        sources = [s]
        for sink in order[1:5]:
            limit = rng.choice([0, 1, 2, 4, CAPACITY_BUDGET])
            want = forward(g, state, sources, [sink], limit)
            assert (g.resume(state, sources, sink, limit), state[0]) == want, (seed, sink)
            sources = [*sources, sink]

    @pytest.mark.parametrize("seed", range(40))
    def test_catch_up_and_repair_push_match_the_forward_level_oracle(self, seed):
        """A kept max flow, lowered arcs, `catch_up`, then one repair push
        of the imbalance with the excesses as sources and the deficits as
        sinks."""
        vertices, arcs = network(seed)
        g = FlowGraph(vertices, arcs)
        rng = random.Random(seed)
        s, t = vertices[0], vertices[-1]
        want = forward(g, g.state(), [s], [t], CAPACITY_BUDGET)
        value, state = g.run_keep([s], [t])
        assert (value, state[0]) == want, seed
        for a, b, cap in rng.sample(arcs, min(len(arcs), 4)):
            g.lower(entry(g, a, b), rng.randint(0, cap))
        need = catch_up(g, state)
        excess = {v: d for v, d in need.items() if d > 0}
        deficit = {v: -d for v, d in need.items() if d < 0}
        if excess:
            limit = sum(excess.values())
            want = forward(g, state, excess, deficit, limit)
            assert (g.push(state, excess, deficit, limit), state[0]) == want, seed

    def test_a_sink_spent_partway_through_a_phase_admits_no_arc(self):
        """a takes 1 unit and b, which only a reaches, takes 5.  a's room
        runs out in the first phase while the walk stands on it; its label
        0 less one is the mark of an unlabelled vertex such as c, so none of
        its arcs may be followed.  The push ends with the super-terminal
        value, 6, and the oracle's residual."""
        g = FlowGraph([*"sabc"], [("s", "a", 6), ("a", "b", 5), ("a", "c", 3), ("c", "s", 2)])
        state = g.state()
        sinks = {"a": 1, "b": 5}
        want = forward(g, state, ["s"], sinks, 10)
        assert (g.push(state, ["s"], sinks, 10), state[0]) == want
        assert want[0] == 6
        oracle = FlowGraph(
            [*"sabc", "T"], [*g.arcs(), *((v, "T", room) for v, room in sinks.items())]
        )
        assert oracle.run(["s"], ["T"], 10) == 6

    def test_a_zero_room_source_sets_no_level(self):
        """The nearest source, n, has room 0 and the farther one, f, has 7:
        the phase's level is f's, or no phase would find a path and the
        loop would never end."""
        arcs = [("n", "t", 5), ("f", "x", 4), ("x", "t", 4), ("n", "x", 1)]
        g = FlowGraph([*"nfxt"], arcs)
        assert g.push(g.state(), {"n": 0, "f": 7}, ["t"], 10) == 4
        oracle = FlowGraph([*"nfxt", "S"], [*arcs, ("S", "n", 0), ("S", "f", 7)])
        assert oracle.run(["S"], ["t"], 10) == 4


# Per call, each bad input the engine refuses, as (sources, sinks, limit) for
# `push` and `run_keep`, (sources, sink, limit) for `resume`, (starts,
# threshold) for `reach`, (supplies, sink) for `keep` and (entry, amount) for
# `lower`.  `keep` and `lower` take vertex indices and arc entries: s, a, b
# and t are 0 to 3, and entry 0 is the forward entry of s -> a, of capacity
# 4.  The state has pinned {s, a} by a resume.
REFUSED_CALLS = {
    "push": {
        "string-set": ("s", ["t"], 1),
        "empty-set": (["s"], [], 1),
        "unknown-vertex": (["s"], ["nope"], 1),
        "unhashable-name": ([["s"]], ["t"], 1),
        "overlapping-sets": (["s", "b"], ["b", "t"], 1),
        "bad-limit": (["s"], ["t"], -1),
        "negative-amount": ({"s": 1}, {"t": -1}, 1),
    },
    "run_keep": {
        "string-set": (["s"], "t", 1),
        "empty-set": ([], ["t"], 1),
        "unknown-vertex": (["nope"], ["t"], 1),
        "unhashable-name": (["s"], [["t"]], 1),
        "overlapping-sets": (["s"], ["t", "s"], 1),
        "bad-limit": (["s"], ["t"], 1.5),
        "negative-amount": ({"s": -1}, ["t"], 1),
    },
    "resume": {
        "string-set": ("sa", "t", 1),
        "empty-set": ([], "t", 1),
        "unknown-vertex": (["s", "a", "nope"], "t", 1),
        "unknown-sink": (["s", "a"], "nope", 1),
        "unhashable-name": (["s", "a", ["b"]], "t", 1),
        "overlapping-sets": (["s", "a", "b"], "b", 1),
        "bad-limit": (["s", "a"], "t", True),
        "negative-amount": ({"s": -1, "a": 1}, "t", 1),
        "terminal-rule": (["s"], "t", 1),
    },
    "reach": {
        "string-set": ("s", 1),
        "empty-set": (set(), 1),
        "unknown-vertex": (["s", "nope"], 1),
        "unhashable-name": ([["s"]], 1),
        "bad-limit": (["s"], 0),
        "negative-amount": ({"s": -1}, 1),
    },
    "keep": {
        "unknown-vertex": ({0: 4}, 4),
        "negative-sink": ({0: 4}, -1),
        "named-sink": ({0: 4}, "t"),
        "unknown-source": ({9: 4}, 3),
        "named-source": ({"s": 4}, 3),
        "bool-source": ({True: 4}, 3),
        "unhashable-name": ({0: 4}, [3]),
        "same-terminals": ({3: 4}, 3),
        "negative-value": ({0: -1}, 3),
        "float-value": ({0: 2.5}, 3),
        "bool-value": ({0: True}, 3),
        "not-a-dict": ([0], 3),
        "empty-supplies": ({}, 3),
    },
    "lower": {
        "no-arc": (None, 1),
        "backward-entry": (1, 1),
        "unknown-entry": (8, 1),
        "negative-entry": (-2, 1),
        "named-entry": ("s", 1),
        "negative-amount": (0, -1),
        "above-capacity": (0, 5),
        "float-amount": (0, 1.5),
        "bool-amount": (0, True),
    },
}


class TestRefusedCalls:
    @staticmethod
    def setup():
        """A graph with one edit in its log and a caught-up state on it that
        carries a flow and has pinned {s, a}."""
        g = FlowGraph([*"sabt"], [("s", "a", 4), ("a", "b", 4), ("s", "b", 1), ("b", "t", 3)])
        _, state = g.run_keep(["s"], ["t"])
        g.lower(entry(g, "b", "t"), 1)
        catch_up(g, state)
        assert g.resume(state, ["s"], "a", 2) == 2
        return g, state

    @staticmethod
    def seen(g, state):
        """Everything a flow call or an edit could change: the state's caps,
        pinned set, log position, owed imbalance and kept flow, and the
        graph's vertices, arc entries and their capacities, adjacency lists,
        edit log and capacity sum."""
        adjacency = [list(a) for a in g._adj]
        graph = list(g._names), list(g._to), list(g._cap0), dict(g._entry), adjacency, list(g._log)
        return copy.deepcopy(state), graph, g._total

    @pytest.mark.parametrize(
        "method, args",
        [(m, args) for m, calls in REFUSED_CALLS.items() for args in calls.values()],
        ids=[f"{m}-{case}" for m, calls in REFUSED_CALLS.items() for case in calls],
    )
    def test_a_refused_call_changes_nothing(self, method, args):
        g, state = self.setup()
        before = self.seen(g, state)
        call = getattr(g, method)
        with pytest.raises(CollschedError):
            call(*args) if method in ("run_keep", "lower") else call(state, *args)
        assert self.seen(g, state) == before
        # the state still answers as an untouched one does
        g0, state0 = self.setup()
        assert g.resume(state, ["s", "a"], "b", 10) == g0.resume(state0, ["s", "a"], "b", 10)

    @pytest.mark.parametrize("method", ["push", "resume", "reach"])
    def test_a_stale_state_is_refused_and_left_as_it_was(self, method):
        g, state = self.setup()
        g.lower(entry(g, "s", "b"), 1)
        before = self.seen(g, state)
        args = {
            "push": (["s"], ["t"], 1),
            "resume": (["s", "a"], "t", 1),
            "reach": (["s"], 1),
        }
        with pytest.raises(CollschedError, match="only keep brings"):
            getattr(g, method)(state, *args[method])
        assert self.seen(g, state) == before

    @pytest.mark.parametrize("args", REFUSED_CALLS["keep"].values(), ids=REFUSED_CALLS["keep"])
    def test_keep_refuses_before_catching_a_stale_state_up(self, args):
        """`keep` takes a state behind the log, but a refused call leaves it
        there, untouched; the same state is then kept at the 2 units the
        lowered graph carries."""
        g = FlowGraph([*"sabt"], [("s", "a", 4), ("a", "b", 4), ("s", "b", 1), ("b", "t", 3)])
        state = g.state()
        assert keep(g, state, {"s": 3}, "t") == 0
        g.lower(entry(g, "b", "t"), 1)
        before = self.seen(g, state)
        with pytest.raises(CollschedError):
            g.keep(state, *args)
        assert self.seen(g, state) == before
        assert keep(g, state, {"s": 2}, "t") == 0
        assert state[2] == len(g._log)
        assert g.push(state, ["s"], ["t"], 5) == 0


class TestTheEngineBoundary:
    def test_only_the_engine_reads_its_private_attributes(self):
        """Every other module of the library calls FlowGraph's public
        methods alone: none reads an attribute that FlowGraph or its
        instances name with a leading underscore (dunders aside)."""
        private = {
            name
            for name in [*vars(FlowGraph), *vars(FlowGraph([], []))]
            if name.startswith("_") and not name.endswith("__")
        }
        reads = {}
        for path in sorted(Path(collsched.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            reads[path.name] = [
                (path.name, node.lineno, node.attr)
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in private
            ]
        # the scan sees the engine's own reads, so it reads the right files
        assert reads.pop("maxflow.py") and "packing.py" in reads and "splitting.py" in reads
        assert [read for found in reads.values() for read in found] == []


class TestHelpers:
    def test_fresh_name_avoids_collisions(self):
        assert fresh_name("s", {"a", "b"}) == "s"
        assert fresh_name("s", {"s"}) == "_s"
        assert fresh_name("s", {"s", "_s"}) == "__s"

    def test_source_network_feeds_every_compute_node(self):
        # a compute node named "s" pushes the source to "_s"; the switch
        # gets no source arc
        t = Topology(
            [Node("s", COMPUTE), Node("w", SWITCH), Node("a", COMPUTE)],
            [Link("s", "w", 2), Link("w", "a", 2), Link("a", "s", 2)],
        )
        g, source, demand = source_network(t, {("s", "w"): 5, ("a", "s"): 1}, 3)
        assert (source, demand) == ("_s", 6)
        assert g.arcs() == [("s", "w", 5), ("a", "s", 1), ("_s", "a", 3), ("_s", "s", 3)]
        assert g.capacity(entry(g, "w", "a")) == 0
