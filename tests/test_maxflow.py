"""Flow engine: exact values, cut witnesses, overrides, early stops, resume."""

import itertools
import random

import pytest

from collsched import INF, FlowGraph
from collsched.errors import CollschedError, Overflow
from collsched.maxflow import build_allgather_aux, fresh_name, min_flow_at_least
from collsched.topology import CAPACITY_BUDGET


def build(vertices, arcs):
    g = FlowGraph()
    for v in vertices:
        g.add_vertex(v)
    ids = [g.add_arc(a, b, c) for a, b, c in arcs]
    return g, ids


def brute_min_cut(vertices, arcs, s, t):
    """Min s/t cut by subset enumeration; INF arcs count as unbounded."""
    best = None
    others = [v for v in vertices if v not in (s, t)]
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            side = {s, *combo}
            total = 0
            for a, b, c in arcs:
                if a in side and b not in side:
                    if c is INF:
                        total = None
                        break
                    total += c
            if total is not None and (best is None or total < best):
                best = total
    return best


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
        g, _ = build("sabt", arcs)
        res = g.run("s", "t", want_cut=True)
        assert res.value == 5
        assert cut_capacity(arcs, res.source_side) == 5

    def test_textbook_network(self):
        arcs = [
            ("s", "a", 10), ("s", "c", 10), ("a", "b", 4), ("a", "c", 2),
            ("c", "d", 9), ("b", "t", 10), ("d", "b", 6), ("d", "t", 10),
        ]
        g, _ = build(["s", "a", "b", "c", "d", "t"], arcs)
        # min cut {s, a, c}: a->b (4) + c->d (9)
        assert g.run("s", "t", want_cut=True).value == 13

    def test_disconnected_sink(self):
        g, _ = build("sxt", [("s", "x", 7)])
        res = g.run("s", "t", want_cut=True)
        assert res.value == 0
        assert res.source_side == {"s", "x"}

    def test_infinite_arcs_never_bind(self):
        arcs = [("s", "a", INF), ("a", "t", 5), ("s", "t", INF)]
        g, _ = build("sat", arcs)
        # The INF arc s->t makes every s/t cut unbounded except none — the
        # flow must equal the materialized stand-in, i.e. exceed any finite
        # arc; what matters is that the finite bottleneck a->t still caps
        # the a-route exactly, which the override form below isolates.
        g2, ids = build("sat", [("s", "a", INF), ("a", "t", 5)])
        res = g2.run("s", "t", want_cut=True)
        assert res.value == 5
        assert res.source_side == {"s", "a"}

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_cut_enumeration(self, seed):
        vertices, arcs = random_instance(seed)
        g, _ = build(vertices, arcs)
        res = g.run(vertices[0], vertices[-1], want_cut=True)
        assert res.value == brute_min_cut(vertices, arcs, vertices[0], vertices[-1])
        # the witness is itself a cut of exactly that capacity
        assert vertices[0] in res.source_side
        assert vertices[-1] not in res.source_side
        assert cut_capacity(arcs, res.source_side) == res.value


class TestRunControls:
    def test_limit_truncates_exactly(self):
        vertices, arcs = random_instance(11)
        g, _ = build(vertices, arcs)
        full = g.run(vertices[0], vertices[-1])
        for lim in (0, 1, full // 2, full, full + 3):
            assert g.run(vertices[0], vertices[-1], limit=lim) == min(full, lim)

    def test_overrides_match_fresh_graph(self):
        vertices, arcs = random_instance(23)
        g, ids = build(vertices, arcs)
        rng = random.Random(99)
        for _ in range(10):
            pick = rng.sample(range(len(arcs)), min(3, len(arcs)))
            overrides = {ids[i]: rng.randint(0, 12) for i in pick}
            patched = [
                (a, b, overrides[ids[i]] if ids[i] in overrides else c)
                for i, (a, b, c) in enumerate(arcs)
            ]
            g2, _ = build(vertices, patched)
            assert g.run(vertices[0], vertices[-1], overrides=overrides) == g2.run(
                vertices[0], vertices[-1]
            )

    def test_runs_do_not_mutate_the_graph(self):
        g, _ = build("sat", [("s", "a", 4), ("a", "t", 4)])
        assert g.run("s", "t") == 4
        assert g.run("s", "t") == 4

    def test_same_source_and_sink_rejected(self):
        g, _ = build("st", [("s", "t", 1)])
        with pytest.raises(CollschedError):
            g.run("s", "s")

    def test_unknown_vertex_rejected(self):
        g = FlowGraph()
        g.add_vertex("s")
        with pytest.raises(CollschedError):
            g.vertex("nope")

    def test_bad_capacities_rejected(self):
        g = FlowGraph()
        g.add_vertex("s")
        g.add_vertex("t")
        with pytest.raises(CollschedError):
            g.add_arc("s", "t", -1)
        with pytest.raises(Overflow):
            g.add_arc("s", "t", CAPACITY_BUDGET + 1)

    def test_from_arcs_equals_incremental(self):
        vertices, arcs = random_instance(37)
        g1, _ = build(vertices, arcs)
        g2 = FlowGraph.from_arcs(vertices, arcs)
        assert g1.run(vertices[0], vertices[-1]) == g2.run(vertices[0], vertices[-1])
        with pytest.raises(CollschedError):
            FlowGraph.from_arcs(["a", "a"], [])


class TestResume:
    def _with_placeholders(self, seed):
        vertices, arcs = random_instance(seed)
        g, _ = build(vertices, arcs)
        rng = random.Random(seed + 1000)
        holders = {}
        for v in vertices[1:-1]:
            if rng.random() < 0.5:
                holders[v] = g.add_arc(vertices[0], v, 0)
        return vertices, arcs, g, holders

    @pytest.mark.parametrize("seed", range(25))
    def test_resume_matches_override_rerun(self, seed):
        vertices, arcs, g, holders = self._with_placeholders(seed)
        if not holders:
            return
        s, t = vertices[0], vertices[-1]
        res, state = g.run_keep(s, t)
        big = sum(c for *_, c in arcs) + 5
        for v, arc in holders.items():
            gained = g.resume(state, (arc,), big)
            assert res.value + gained == g.run(s, t, overrides={arc: INF})
            # the state is reusable: a second resume answers identically
            assert g.resume(state, (arc,), big) == gained

    def test_resume_respects_limit(self):
        g, _ = build("sat", [("a", "t", 6)])
        arc = g.add_arc("s", "a", 0)
        res, state = g.run_keep("s", "t")
        assert res.value == 0
        assert g.resume(state, (arc,), 4) == 4
        assert g.resume(state, (arc,), 100) == 6

    def test_resume_rejects_used_arcs(self):
        g, ids = build("sat", [("s", "a", 3), ("a", "t", 3)])
        _, state = g.run_keep("s", "t")
        with pytest.raises(CollschedError):
            g.resume(state, (ids[0],), 10)


class TestHelpers:
    def test_min_flow_at_least(self):
        g, _ = build("sabt", [("s", "a", 4), ("s", "b", 2), ("a", "t", 4), ("b", "t", 4)])
        assert min_flow_at_least(g, "s", ["a", "b"], 2)
        assert not min_flow_at_least(g, "s", ["a", "b"], 3)  # b caps at 2

    def test_fresh_name_avoids_collisions(self):
        assert fresh_name("s", {"a", "b"}) == "s"
        assert fresh_name("s", {"s"}) == "_s"
        assert fresh_name("s", {"s", "_s"}) == "__s"


class TestAuxNetwork:
    def test_probe_semantics(self, two_node):
        # x = 1/inv_x = 3: source arcs carry 3, every link keeps bandwidth 3;
        # each compute node can absorb 3 direct + 3 relayed = 6 = N*x units.
        from fractions import Fraction

        g, mult, source = build_allgather_aux(two_node, Fraction(1, 3))
        assert mult == 1
        for c in two_node.compute_ids:
            assert g.run(source, c) >= two_node.num_compute * 3
        # x = 4 is infeasible: only 4 + 3 = 7 < 8 units reach a node
        g, mult, source = build_allgather_aux(two_node, Fraction(1, 4))
        assert mult == 1
        assert g.run(source, "c1") == 7

    def test_fractional_probe_clears_denominators(self, two_node):
        from fractions import Fraction

        # inv_x = 2/5 -> x = 5/2: all capacities doubled, source arcs at 5
        g, mult, source = build_allgather_aux(two_node, Fraction(2, 5))
        assert mult == 2
        # direct source arc (5) plus a relay capped by the other source arc
        # (5, below the doubled 6-wide link) = N*x*mult exactly: feasible
        assert g.run(source, "c1") == 10

    def test_rejects_non_positive_ratio(self, two_node):
        from fractions import Fraction

        with pytest.raises(CollschedError):
            build_allgather_aux(two_node, Fraction(0))
