"""Switch removal: split amounts, invariant preservation, path recovery."""

import pytest

from collsched import (
    COMPUTE,
    SWITCH,
    FlowGraph,
    Link,
    Node,
    Topology,
    bottleneck_search,
    compute_gamma,
    remove_switches,
    scale_capacities,
    validate,
)
from collsched.errors import CapacityExhausted, CollschedError
from collsched.maxflow import fresh_name
from collsched.splitting import PathExpander


def tiny_relay():
    """a -> w -> b -> a with unit capacity after scaling (U = 1/2, k = 1)."""
    t = Topology(
        [Node("a", COMPUTE), Node("b", COMPUTE), Node("w", SWITCH)],
        [Link("a", "w", 2), Link("w", "b", 2), Link("b", "a", 2)],
    )
    res = bottleneck_search(t)
    return scale_capacities(t, res.U), res


def supports_full_flow(lt, k) -> bool:
    """True iff N*k units still flow from an auxiliary source to every
    compute node of the logical graph — the invariant splits must keep."""
    g = FlowGraph()
    for c in lt.compute_ids:
        g.add_vertex(c)
    source = fresh_name("s", lt.compute_ids)
    g.add_vertex(source)
    for (a, b), c in lt.capacity.items():
        g.add_arc(a, b, c)
    for c in lt.compute_ids:
        g.add_arc(source, c, k)
    target = lt.num_compute * k
    return all(g.run(source, c, limit=target) >= target for c in lt.compute_ids)


class TestComputeGamma:
    def test_reference_pairings(self, fig3a):
        res = bottleneck_search(fig3a)
        scaled = scale_capacities(fig3a, res.U)
        red = compute_gamma(scaled, res.k, ("c1_1", "w0"), ("w0", "c2_1"))
        blue = compute_gamma(scaled, res.k, ("c1_3", "w0"), ("w0", "c1_4"))
        assert (red, blue) == (1, 0)

    def test_capped_by_arc_capacities(self):
        scaled, res = tiny_relay()
        assert compute_gamma(scaled, res.k, ("a", "w"), ("w", "b")) == 1

    def test_rejects_mismatched_switch(self, fig3a):
        res = bottleneck_search(fig3a)
        scaled = scale_capacities(fig3a, res.U)
        with pytest.raises(CollschedError):
            compute_gamma(scaled, res.k, ("c1_1", "w0"), ("w1", "c1_2"))

    def test_absent_arcs_give_zero(self):
        scaled, res = tiny_relay()
        assert compute_gamma(scaled, res.k, ("b", "w"), ("w", "b")) == 0


class TestRemoveSwitches:
    def test_tiny_relay_becomes_direct(self):
        scaled, res = tiny_relay()
        lt, emap = remove_switches(scaled, res.k)
        assert lt.capacity == {("a", "b"): 1, ("b", "a"): 1}
        assert emap.routes("a", "b") == {"w": 1}
        assert emap.routes("b", "a") == {}

    def test_switch_free_input_is_untouched(self, ring4):
        res = bottleneck_search(ring4)
        scaled = scale_capacities(ring4, res.U)
        lt, emap = remove_switches(scaled, res.k)
        assert lt.capacity == scaled.capacity
        assert len(emap) == 0

    def test_logical_graphs_keep_the_invariants(self, random_suite):
        for t in random_suite[:80]:
            res = bottleneck_search(t)
            scaled = scale_capacities(t, res.U)
            lt, emap = remove_switches(scaled, res.k)
            switches = set(t.switch_ids)
            # compute-only, positive capacities, no self-loops
            assert set(lt.compute_ids) == set(t.compute_ids)
            for (a, b), c in lt.capacity.items():
                assert c > 0 and a != b
                assert a not in switches and b not in switches
            # balanced (the packing step needs Eulerian logical graphs)
            assert validate(lt).ok
            # the N*k feasibility certificate survives every split
            assert supports_full_flow(lt, res.k)
            # recovery entries only route through real switches; entries for
            # arcs with switch endpoints are intermediate (they were consumed
            # by a later dissolution and are resolved recursively)
            for (u, v), ways in emap.entries.items():
                if u not in switches and v not in switches:
                    assert (u, v) in lt.capacity
                for w, amount in ways.items():
                    assert w in switches and amount > 0

    def test_same_optimal_ratio_survives(self, random_suite):
        from collsched import brute_force_bottleneck
        from fractions import Fraction

        for t in random_suite[:40]:
            if not t.switch_ids:
                continue
            res = bottleneck_search(t)
            scaled = scale_capacities(t, res.U)
            lt, _ = remove_switches(scaled, res.k)
            ratio, _ = brute_force_bottleneck(lt)
            assert ratio * res.U == res.inv_x_star

    def test_deterministic(self, random_suite):
        for t in random_suite[:20]:
            res = bottleneck_search(t)
            scaled = scale_capacities(t, res.U)
            lt1, em1 = remove_switches(scaled, res.k)
            lt2, em2 = remove_switches(scaled, res.k)
            assert lt1.capacity == lt2.capacity
            assert em1.entries == em2.entries


class TestExpandPath:
    def test_direct_and_relayed_units(self):
        scaled, res = tiny_relay()
        lt, emap = remove_switches(scaled, res.k)
        expander = PathExpander(emap, scaled)
        assert expander.expand(("a", "b"), 1) == [(("a", "w", "b"), 1)]
        assert expander.expand(("b", "a"), 1) == [(("b", "a"), 1)]

    def test_budget_is_shared_and_finite(self):
        scaled, res = tiny_relay()
        lt, emap = remove_switches(scaled, res.k)
        expander = PathExpander(emap, scaled)
        assert expander.expand(("b", "a"), 1)
        with pytest.raises(CapacityExhausted):
            expander.expand(("b", "a"), 1)  # already spent
        # the budget belongs to the expander, not to the emap
        assert PathExpander(emap, scaled).expand(("b", "a"), 1) == [(("b", "a"), 1)]

    def test_rejects_non_positive_multiplicity(self):
        scaled, res = tiny_relay()
        lt, emap = remove_switches(scaled, res.k)
        with pytest.raises(CollschedError):
            PathExpander(emap, scaled).expand(("a", "b"), 0)

    def test_units_always_account_exactly(self, random_suite):
        for t in random_suite[:30]:
            if not t.switch_ids:
                continue
            res = bottleneck_search(t)
            scaled = scale_capacities(t, res.U)
            lt, emap = remove_switches(scaled, res.k)
            switches = set(t.switch_ids)
            expander = PathExpander(emap, scaled)
            for (u, v), cap in sorted(lt.capacity.items()):
                for path, units in expander.expand((u, v), cap):
                    assert path[0] == u and path[-1] == v and units > 0
                    assert all(w in switches for w in path[1:-1])
                    for a, b in zip(path, path[1:]):
                        assert (a, b) in scaled.capacity
