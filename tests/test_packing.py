"""Tree packing: growth amounts, forest invariants, counters."""

import pytest

from collsched import (
    COMPUTE,
    Forest,
    Link,
    Node,
    Topology,
    TreeBatch,
    bottleneck_search,
    pack_spanning_trees,
    remove_switches,
    scale_capacities,
)
from collsched.errors import CollschedError, NoAddableEdge
from collsched.packing import compute_mu


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
        residual=dict(lt.capacity),
    )


class TestComputeMu:
    def test_hand_checked_value(self):
        # batch a (m=3) takes (a, b): mu0 = min(3, 3); the other batch is a
        # singleton rooted at b, so the gadget is one extra a->b arc of
        # capacity 3, flow = 3 + 3, and mu = min(3, 6 - 3) = 3
        forest = fresh_forest(two_node_logical())
        assert compute_mu(forest, forest.batches[0], ("a", "b")) == 3

    def test_capped_by_residual_capacity(self):
        # with only 1 unit left on (a, b) the flow term is 1 + 3 (direct
        # plus b's gadget arc) against sum_other = 3, so mu = 1
        forest = fresh_forest(two_node_logical())
        forest.residual[("a", "b")] = 1
        assert compute_mu(forest, forest.batches[0], ("a", "b")) == 1

    def test_completed_batches_count_without_gadget(self):
        lt = two_node_logical()
        forest = fresh_forest(lt)
        done = forest.batches[1]
        done.members = {"a", "b"}
        done.edges = [("b", "a")]
        forest.residual[("b", "a")] -= 3
        assert compute_mu(forest, forest.batches[0], ("a", "b")) == 3

    def test_rejects_spent_arcs_and_non_frontier_arcs(self):
        forest = fresh_forest(two_node_logical())
        with pytest.raises(CollschedError):
            compute_mu(forest, forest.batches[0], ("b", "a"))  # tail not in batch
        forest.residual.pop(("a", "b"))
        forest.residual[("a", "b")] = 0
        with pytest.raises(CollschedError):
            compute_mu(forest, forest.batches[0], ("a", "b"))

    def test_counter_increments(self):
        forest = fresh_forest(two_node_logical())
        before = forest.mu_evaluations
        compute_mu(forest, forest.batches[0], ("a", "b"))
        assert forest.mu_evaluations == before + 1


class TestPackSpanningTrees:
    def test_two_node_packs_all_trees(self):
        forest = pack_spanning_trees(two_node_logical(), 3)
        for root in ("a", "b"):
            batches = [b for b in forest.batches if b.root == root]
            assert sum(b.multiplicity for b in batches) == 3
            for b in batches:
                assert b.members == {"a", "b"}
        assert forest.residual == {}

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
            # arc usage within capacity, residual consistent
            used = {}
            for batch in forest.batches:
                for arc in batch.edges:
                    used[arc] = used.get(arc, 0) + batch.multiplicity
            for arc, units in used.items():
                assert units + forest.residual.get(arc, 0) == lt.capacity[arc]
            for arc, left in forest.residual.items():
                assert left >= 0
                assert used.get(arc, 0) + left == lt.capacity[arc]

    def test_batch_splitting_occurs_when_capacity_forces_it(self):
        # suite seed 1 (4 compute nodes, 7 trees per root) forces two batch
        # splits: frozen here as a regression anchor for the split path
        from collsched import random_eulerian_topology

        t = random_eulerian_topology(1)
        res = bottleneck_search(t)
        assert res.k == 7
        lt, _ = remove_switches(scale_capacities(t, res.U), res.k)
        forest = pack_spanning_trees(lt, res.k)
        assert lt.num_compute == 4
        assert len(forest.batches) == 6
        assert any(b.multiplicity < res.k for b in forest.batches)
        for root in lt.compute_ids:
            assert sum(b.multiplicity for b in forest.batches if b.root == root) == res.k

    def test_mu_evaluation_counter_reports_work(self):
        forest = pack_spanning_trees(two_node_logical(), 3)
        assert forest.mu_evaluations >= 2
