"""End-to-end generation across collectives, tree counts, and options."""

import pytest

from collsched import generate, validate_schedule
from collsched.errors import (
    CollschedError,
    InvalidTopology,
    NotEulerianAfterFloor,
)
from collsched.pipeline import COLLECTIVES


class TestCollectives:
    def test_the_three_collectives_validate(self, fig3a):
        for collective in COLLECTIVES:
            s, meta = generate(fig3a, collective=collective)
            assert s.collective == collective
            assert validate_schedule(s, fig3a, meta).ok

    def test_unknown_collective_rejected(self, fig3a):
        with pytest.raises(CollschedError):
            generate(fig3a, collective="gather")

    def test_invalid_topology_rejected(self):
        from collsched import COMPUTE, Link, Node, Topology

        lopsided = Topology(
            [Node("a", COMPUTE), Node("b", COMPUTE)],
            [Link("a", "b", 3), Link("b", "a", 2)],
        )
        with pytest.raises(InvalidTopology):
            generate(lopsided)


class TestFixedK:
    def test_exactly_k_trees_per_root(self, fig3a):
        s, meta = generate(fig3a, fixed_k=2)
        assert s.k == 2 and meta.k == 2
        assert s.exact is False
        for rt in s.roots:
            assert sum(b.multiplicity for b in rt.batches) == 2
        report = validate_schedule(s, fig3a, meta)
        assert report.ok
        assert report.achieved_T_comm <= report.bound_T_comm

    def test_unbalanced_floors_propagate(self):
        from collsched import random_eulerian_topology

        for seed in range(50):
            t = random_eulerian_topology(seed)
            for k in range(1, 9):
                try:
                    s, meta = generate(t, fixed_k=k)
                except NotEulerianAfterFloor as exc:
                    assert exc.result is not None
                    return
                assert validate_schedule(s, t, meta).ok
        pytest.fail("expected at least one unbalanced floor")


class TestOptions:
    def test_prune_flag_gates_annotations(self, fig3a_multicast):
        pruned, _ = generate(fig3a_multicast, prune=True)
        bare, _ = generate(fig3a_multicast, prune=False)
        assert any(b.pruned for rt in pruned.roots for b in rt.batches)
        assert not any(b.pruned for rt in bare.roots for b in rt.batches)

    def test_deterministic_end_to_end(self, fig3a):
        assert generate(fig3a) == generate(fig3a)
