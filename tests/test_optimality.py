"""Throughput search: exact optima, witness cuts, fixed tree counts."""

import bisect
import itertools
from fractions import Fraction

import pytest

from collsched import (
    bottleneck_search,
    brute_force_bottleneck,
    derive_schedule_params,
    fixed_k_search,
    synth_topology,
)
from collsched.errors import CollschedError, NotEulerianAfterFloor, Overflow

from conftest import CLUSTERED_SEEDS, SUITE_SEEDS


def cut_profile(t, S):
    """(compute nodes inside S, bandwidths of the links leaving S)."""
    inside = sum(1 for c in t.compute_ids if c in S)
    return inside, [bw for (a, b), bw in t.capacity.items() if a in S and b not in S]


def assert_witness(t, S, ratio):
    """S is a cut that misses a compute node and has the given ratio."""
    assert set(S) <= set(t.node_by_id)
    assert not set(t.compute_ids) <= set(S)
    inside, exits = cut_profile(t, S)
    assert Fraction(inside, sum(exits)) == ratio


def least_floor_scale(candidates, exits, target):
    """Least candidate U with sum(floor(U*b)) >= target, by bisection over
    the sorted candidate list."""
    i = bisect.bisect_left(
        candidates, True, key=lambda U: sum(U.numerator * b // U.denominator for b in exits) >= target
    )
    return candidates[i]


def floor_breakpoints(t, k):
    """Every j/b up to k*N for each link bandwidth b, sorted.  k*N is an
    upper bound on U_star: there every floor is exact and each cut's exit
    capacity k*N*B+(S) covers k*|S ∩ compute|."""
    top = k * t.num_compute
    bandwidths = {l.bandwidth for l in t.links}
    return sorted({Fraction(j, b) for b in bandwidths for j in range(1, top * b + 1)})


def cut_profiles(t):
    """Distinct (compute count, sorted exit bandwidths) over every cut that
    misses a compute node and holds one."""
    ids = [node.id for node in t.nodes]
    seen = set()
    for size in range(1, len(ids)):
        for S in itertools.combinations(ids, size):
            inside, exits = cut_profile(t, set(S))
            if 0 < inside < t.num_compute:
                seen.add((inside, tuple(sorted(exits))))
    return seen


class TestBottleneckSearch:
    def test_two_node(self, two_node):
        res = bottleneck_search(two_node)
        assert res.inv_x_star == Fraction(1, 3)
        assert (res.U, res.k, res.y) == (Fraction(1, 3), 1, Fraction(3))
        assert res.exact is True

    def test_ring4(self, ring4):
        res = bottleneck_search(ring4)
        assert res.inv_x_star == Fraction(3)
        assert (res.U, res.k, res.y) == (Fraction(3), 1, Fraction(1, 3))

    def test_reference_two_box_network(self, fig3a):
        res = bottleneck_search(fig3a)
        assert res.inv_x_star == Fraction(1)
        assert (res.U, res.k, res.y) == (Fraction(1), 1, Fraction(1))

    def test_matches_brute_force_on_suite(self, random_suite, clustered_suite):
        labelled = [(f"seed {s}", t) for s, t in zip(SUITE_SEEDS, random_suite)]
        labelled += [(f"clustered {s}", t) for s, t in zip(CLUSTERED_SEEDS, clustered_suite)]
        for label, t in labelled:
            res = bottleneck_search(t)
            oracle, _ = brute_force_bottleneck(t)
            assert res.inv_x_star == oracle, label
            assert_witness(t, res.witness, res.inv_x_star)

    def test_clustered_suite_needs_jumps(self, clustered_suite):
        # The search starts at (N-1)/minB-, the best cut leaving out a single
        # vertex.  Most clustered optima beat it, so every optimal cut there
        # leaves out several vertices and the search must jump to one.
        jumped = 0
        for t in clustered_suite:
            oracle, _ = brute_force_bottleneck(t)
            if oracle > Fraction(t.num_compute - 1, t.min_compute_in_bw()):
                jumped += 1
                assert bottleneck_search(t).search_iterations > 1
        assert jumped >= 0.4 * len(clustered_suite)

    def test_large_bandwidths_stay_exact(self):
        # probes sit on cut values, so cleared capacities stay small until
        # the bandwidths themselves approach the 63-bit budget
        t = synth_topology("ring", n=3, bw=2**40, bidirectional=True)
        assert bottleneck_search(t).inv_x_star == Fraction(1, 2**40)
        assert fixed_k_search(t, 3).U_star == Fraction(3, 2**40)
        huge = synth_topology("ring", n=3, bw=2**62, bidirectional=True)
        with pytest.raises(Overflow):
            bottleneck_search(huge)
        with pytest.raises(Overflow):
            fixed_k_search(huge, 3)

    def test_witness_beyond_brute_force_limit(self):
        # 41 vertices: the search is the only way to name the cut
        t = synth_topology("boxes", boxes=8, gpus_per_box=4, intra=8, inter=1)
        res = bottleneck_search(t)
        assert_witness(t, res.witness, res.inv_x_star)

    def test_params_reconstruct_the_ratio(self, random_suite):
        for t in random_suite[:50]:
            res = bottleneck_search(t)
            assert Fraction(res.U, res.k) == res.inv_x_star
            assert res.y == 1 / res.U
            for link in t.links:
                assert (res.U * link.bandwidth).denominator == 1


class TestDeriveScheduleParams:
    @pytest.mark.parametrize(
        "inv, bandwidths, expected",
        [
            (Fraction(5, 6), [4, 2], (Fraction(5, 2), 3, Fraction(2, 5))),
            (Fraction(1, 3), [3, 3], (Fraction(1, 3), 1, Fraction(3))),
            (Fraction(3), [1, 1], (Fraction(3), 1, Fraction(1, 3))),
            (Fraction(7, 4), [6, 10], (Fraction(7, 2), 2, Fraction(2, 7))),
        ],
    )
    def test_frozen_params(self, inv, bandwidths, expected):
        assert derive_schedule_params(inv, bandwidths) == expected

    def test_minimality_of_k(self):
        # k is the smallest integer with U = k*inv integral on every link
        U, k, y = derive_schedule_params(Fraction(5, 6), [4, 2])
        for smaller in range(1, k):
            assert any(
                (smaller * Fraction(5, 6) * b).denominator != 1 for b in (4, 2)
            ) or (smaller * Fraction(5, 6)).denominator != 1


class TestFixedK:
    def test_two_node_single_tree(self, two_node):
        res = fixed_k_search(two_node, 1)
        assert res.U_star == Fraction(1, 3)
        assert res.achieved_inv_throughput == Fraction(1, 3)
        assert res.floored_capacities == {("c1", "c2"): 1, ("c2", "c1"): 1}
        assert res.exact is False
        assert res.inv_x_star == res.achieved_inv_throughput  # shared interface

    def test_bound_and_monotonicity(self, random_suite):
        for seed in range(0, 40):
            t = random_suite[seed]
            opt = bottleneck_search(t).inv_x_star
            min_b = min(l.bandwidth for l in t.links)
            achieved = {}
            for k in range(1, 9):
                try:
                    res = fixed_k_search(t, k)
                except NotEulerianAfterFloor as exc:
                    res = exc.result  # the search result is still attached
                assert res.k == k
                achieved[k] = res.achieved_inv_throughput
                gap = res.achieved_inv_throughput - opt
                assert 0 <= gap <= Fraction(1, k * min_b), f"seed {seed}, k {k}"
            for k in (1, 2, 4):
                assert achieved[2 * k] <= achieved[k], f"seed {seed}, k {k}"

    def test_floored_capacities_are_floors(self, random_suite):
        for t in random_suite[:25]:
            try:
                res = fixed_k_search(t, 3)
            except NotEulerianAfterFloor as exc:
                res = exc.result
            num, den = res.U_star.numerator, res.U_star.denominator
            for link in t.links:
                assert res.floored_capacities[(link.src, link.dst)] == (
                    num * link.bandwidth
                ) // den

    def test_unbalanced_floor_reported_with_result(self):
        # find a suite instance whose floors break the balance for some k
        for seed in SUITE_SEEDS:
            from collsched import random_eulerian_topology

            t = random_eulerian_topology(seed)
            for k in range(1, 9):
                try:
                    fixed_k_search(t, k)
                except NotEulerianAfterFloor as exc:
                    assert exc.result is not None
                    assert exc.result.k == k
                    return
        pytest.fail("expected at least one unbalanced floor in the suite")

    def test_matches_enumeration_of_cuts_and_breakpoints(self, random_suite, clustered_suite):
        # U_star is the largest per-cut least scale, each found among the
        # breakpoints j/b by an independent bisection.
        for t in random_suite + clustered_suite:
            assert len(t.nodes) <= 12
            profiles = cut_profiles(t)
            for k in (1, 2, 3):
                candidates = floor_breakpoints(t, k)
                expected = max(
                    least_floor_scale(candidates, exits, k * inside) for inside, exits in profiles
                )
                try:
                    res = fixed_k_search(t, k)
                except NotEulerianAfterFloor as exc:
                    res = exc.result
                assert res.U_star == expected, (t, k)
                S = res.witness
                assert not set(t.compute_ids) <= set(S)
                inside, exits = cut_profile(t, S)
                assert least_floor_scale(candidates, exits, k * inside) == expected

    def test_rejects_non_positive_k(self, two_node):
        with pytest.raises(CollschedError):
            fixed_k_search(two_node, 0)
