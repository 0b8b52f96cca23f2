"""Independent oracles: cut enumeration, schedule validation, congestion."""

import dataclasses
import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from collsched import (
    COMPUTE,
    Link,
    Node,
    NotEulerianAfterFloor,
    PathUse,
    PrunedHop,
    Topology,
    bottleneck_search,
    brute_force_bottleneck,
    congestion_time,
    export,
    fixed_k_search,
    generate,
    parse_schedule,
    random_eulerian_topology,
    synth_topology,
    validate,
    validate_schedule,
)
from collsched.errors import CollschedError, TooLarge
from collsched.verify import (
    CAPACITY_EXCEEDED,
    CLAIMS,
    DELIVERY_GAP,
    METADATA_MISMATCH,
    NOT_A_TREE,
    NOT_SPANNING,
    UNCERTIFIED_BOUND,
    WRONG_ROOT_COUNT,
    certificate_violations,
)

from conftest import SUITE_SEEDS


class TestBruteForce:
    def test_two_node(self, two_node):
        ratio, witness = brute_force_bottleneck(two_node)
        assert ratio == Fraction(1, 3)
        assert witness.S == {"c1"}  # ties break to fewest, then smallest ids
        assert (witness.compute_count, witness.exit_bandwidth) == (1, 3)

    def test_ring4(self, ring4):
        ratio, witness = brute_force_bottleneck(ring4)
        assert ratio == Fraction(3)
        assert witness.S == {"c1", "c2", "c3"}

    def test_reference_witness_is_one_box(self, fig3a):
        ratio, witness = brute_force_bottleneck(fig3a)
        assert ratio == Fraction(1)
        assert witness.S == {"c1_1", "c1_2", "c1_3", "c1_4", "w1"}

    def test_size_budget_is_enforced(self):
        from collsched import synth_topology

        big = synth_topology("ring", n=23, bw=1)
        with pytest.raises(TooLarge):
            brute_force_bottleneck(big)

    def test_single_node_complement_is_a_lower_bound(self, random_suite):
        for t in random_suite[:40]:
            ratio, witness = brute_force_bottleneck(t)
            assert ratio >= Fraction(t.num_compute - 1, min(t.in_bw[c] for c in t.compute_ids))
            # the witness is a real cut achieving the ratio
            exit_bw = sum(
                bw
                for (a, b), bw in t.capacity.items()
                if a in witness.S and b not in witness.S
            )
            computes = sum(1 for v in witness.S if t.is_compute(v))
            assert exit_bw == witness.exit_bandwidth
            assert computes == witness.compute_count
            assert Fraction(computes, exit_bw) == ratio


class TestRandomEulerianTopology:
    def test_deterministic_per_seed(self):
        for seed in (0, 7, 123):
            assert random_eulerian_topology(seed) == random_eulerian_topology(seed)

    def test_always_validates_within_limits(self, random_suite):
        distinct = set()
        for t in random_suite:
            assert validate(t).ok
            assert len(t.nodes) <= 12
            assert t.num_compute >= 2
            assert all(l.bandwidth <= 8 for l in t.links)
            distinct.add(t)
        assert len(distinct) > 150  # seeds genuinely vary


# -- schedule tampering -------------------------------------------------------

def rebuild_batch(s, batch_fn, root_idx=0, batch_idx=0):
    """Replace one batch of a schedule via `batch_fn(batch) -> batch`."""
    rt = s.roots[root_idx]
    batches = list(rt.batches)
    batches[batch_idx] = batch_fn(batches[batch_idx])
    roots = list(s.roots)
    roots[root_idx] = dataclasses.replace(rt, batches=tuple(batches))
    return dataclasses.replace(s, roots=tuple(roots))


def kinds(report):
    return {v.kind for v in report.violations}


@pytest.fixture(scope="module")
def checked(fig3a):
    s, meta = generate(fig3a)
    report = validate_schedule(s, fig3a, meta)
    assert report.ok
    return s, meta


class TestValidateSchedule:
    def test_accepts_every_collective(self, fig3a):
        for collective in ("allgather", "reduce_scatter", "allreduce"):
            s, meta = generate(fig3a, collective=collective)
            report = validate_schedule(s, fig3a, meta)
            assert report.ok, report.violations
            assert report.achieved_T_comm == report.bound_T_comm

    def test_report_serializes(self, fig3a, checked):
        s, meta = checked
        doc = validate_schedule(s, fig3a, meta).to_dict()
        assert doc["ok"] is True
        assert doc["violations"] == []
        assert doc["achieved_T_comm"] == "1/8"
        assert doc["bound_T_comm"] == "1/8"

    def test_missing_edge_is_not_spanning(self, fig3a, checked):
        s, meta = checked
        bad = rebuild_batch(
            s, lambda b: dataclasses.replace(b, edges=b.edges[1:])
        )
        report = validate_schedule(bad, fig3a, meta)
        assert not report.ok
        assert NOT_SPANNING in kinds(report)

    def test_edge_into_root_is_not_a_tree(self, fig3a, checked):
        s, meta = checked
        root = s.roots[0].root

        def warp(b):
            e = b.edges[0]
            return dataclasses.replace(
                b,
                edges=(
                    dataclasses.replace(
                        e,
                        dst=root,
                        paths=tuple(
                            PathUse(p.path[:-1] + (root,), p.multiplicity)
                            for p in e.paths
                        ),
                    ),
                )
                + b.edges[1:],
            )

        report = validate_schedule(rebuild_batch(s, warp), fig3a, meta)
        assert not report.ok
        assert NOT_A_TREE in kinds(report)

    def test_two_parents_is_not_a_tree(self, fig3a, checked):
        s, meta = checked
        dup = rebuild_batch(
            s, lambda b: dataclasses.replace(b, edges=b.edges + (b.edges[0],))
        )
        report = validate_schedule(dup, fig3a, meta)
        assert not report.ok
        assert NOT_A_TREE in kinds(report)

    def test_dropped_batch_is_wrong_root_count(self, fig3a, checked):
        s, meta = checked
        roots = (dataclasses.replace(s.roots[0], batches=()),) + s.roots[1:]
        report = validate_schedule(dataclasses.replace(s, roots=roots), fig3a, meta)
        assert not report.ok
        assert WRONG_ROOT_COUNT in kinds(report)

    def test_inflated_path_multiplicity_is_a_delivery_gap(self, fig3a, checked):
        s, meta = checked

        def inflate(b):
            e = b.edges[0]
            paths = (PathUse(e.paths[0].path, e.paths[0].multiplicity + 1),) + e.paths[1:]
            return dataclasses.replace(
                b, edges=(dataclasses.replace(e, paths=paths),) + b.edges[1:]
            )

        report = validate_schedule(rebuild_batch(s, inflate), fig3a, meta)
        assert not report.ok
        assert DELIVERY_GAP in kinds(report)

    def test_route_over_missing_link_is_capacity_exceeded(self, fig3a, checked):
        s, meta = checked

        def reroute(b):
            e = b.edges[0]
            paths = (PathUse((e.src, e.dst), e.paths[0].multiplicity),) + e.paths[1:]
            return dataclasses.replace(
                b, edges=(dataclasses.replace(e, paths=paths),) + b.edges[1:]
            )

        report = validate_schedule(rebuild_batch(s, reroute), fig3a, meta)
        assert not report.ok
        assert CAPACITY_EXCEEDED in kinds(report)

    def test_weakened_topology_exceeds_capacity(self, fig3a, checked):
        s, meta = checked
        # halve one intra-box link the schedule certainly uses at 10/10
        weak_links = [
            Link(l.src, l.dst, 5 if (l.src, l.dst) == ("w1", "c1_2") else l.bandwidth)
            for l in fig3a.links
        ]
        weak = Topology(fig3a.nodes, weak_links)
        report = validate_schedule(s, weak, meta)
        assert not report.ok
        assert CAPACITY_EXCEEDED in kinds(report)

    def test_unjustified_pruned_hop_is_a_delivery_gap(self, fig3a, checked):
        s, meta = checked
        poked = rebuild_batch(
            s,
            lambda b: dataclasses.replace(
                b, pruned=b.pruned + (PrunedHop("c1_1", "w1", 1),)
            ),
        )
        report = validate_schedule(poked, fig3a, meta)
        assert not report.ok
        assert DELIVERY_GAP in kinds(report)

    def test_wrong_claimed_ratio_fails_exactness(self, fig3a, checked):
        s, meta = checked
        claim = dataclasses.replace(s, inv_x_star=Fraction(2))
        report = validate_schedule(claim, fig3a)
        assert not report.ok
        # the witness no longer attains the claim, the claim is no longer
        # U/k, and the time misses the bound it sets
        assert [v.kind for v in report.violations] == [UNCERTIFIED_BOUND, METADATA_MISMATCH]
        assert "inv_x_star" in report.violations[1].detail
        assert report.achieved_T_comm != report.bound_T_comm
        # against the search result, the claim itself is also wrong
        assert kinds(validate_schedule(claim, fig3a, meta)) == {
            METADATA_MISMATCH, UNCERTIFIED_BOUND
        }

    def test_schedule_validates_on_its_own_claims(self, fig3a):
        for collective in ("allgather", "reduce_scatter", "allreduce"):
            s, meta = generate(fig3a, collective=collective)
            assert validate_schedule(s, fig3a) == validate_schedule(s, fig3a, meta)

    @pytest.mark.parametrize("field", CLAIMS)
    def test_every_expected_claim_is_compared(self, fig3a, checked, field):
        s, meta = checked
        expected = SimpleNamespace(**{name: getattr(meta, name) for name in CLAIMS})
        if field == "exact":
            setattr(expected, field, not meta.exact)
        elif field == "witness":
            setattr(expected, field, meta.witness - {min(meta.witness)})
        else:
            setattr(expected, field, 2 * getattr(meta, field) + 1)
        report = validate_schedule(s, fig3a, expected)
        assert not report.ok
        assert [v.kind for v in report.violations] == [METADATA_MISMATCH]
        assert field in report.violations[0].detail

    def test_allreduce_phases_must_share_the_claims(self, fig3a):
        s, meta = generate(fig3a, collective="allreduce")
        rs, ag = s.phases
        off = dataclasses.replace(s, phases=(rs, dataclasses.replace(ag, y=Fraction(7))))
        report = validate_schedule(off, fig3a)
        assert not report.ok
        # the phase disagrees with the allreduce's y, and its own U*y is not 1
        assert [(v.kind, v.detail.split(":")[0]) for v in report.violations] == [
            (METADATA_MISMATCH, "allgather phase")
        ] * 2

    def test_zero_trees_per_root_is_a_violation(self, fig3a, checked):
        s, _ = checked
        report = validate_schedule(dataclasses.replace(s, k=0), fig3a)
        assert not report.ok
        assert WRONG_ROOT_COUNT in kinds(report)

    def test_pruned_schedules_still_deliver(self, fig3a_multicast):
        s, meta = generate(fig3a_multicast)
        report = validate_schedule(s, fig3a_multicast, meta)
        assert report.ok, report.violations


def tampered(s, **fields):
    """s exported, with top-level fields of the document replaced, and
    parsed back: a schedule file edited by hand."""
    doc = json.loads(export(s, "json"))
    doc.update(fields)
    return parse_schedule(json.dumps(doc))


class TestCertificate:
    """The witness cut proves the bound from the topology alone."""

    def test_witness_value_must_be_inv_x_star(self, fig3a, checked):
        s, _ = checked
        # one GPU leaves over bandwidth 11: 1/11, not the claimed 1
        report = validate_schedule(tampered(s, witness=["c1_1"]), fig3a)
        assert not report.ok
        assert [v.kind for v in report.violations] == [UNCERTIFIED_BOUND]
        assert "1/11, not inv_x_star 1" in report.violations[0].detail

    def test_witness_must_miss_a_compute_node(self, fig3a, checked):
        s, _ = checked
        report = validate_schedule(tampered(s, witness=sorted(fig3a.compute_ids)), fig3a)
        assert [v.kind for v in report.violations] == [UNCERTIFIED_BOUND]
        assert "every compute node" in report.violations[0].detail

    def test_fixed_k_witness_must_be_the_least_breakpoint(self):
        t = synth_topology("ring", n=4, bw=3, bidirectional=True)
        s, meta = generate(t, fixed_k=2)
        assert validate_schedule(s, t, meta).ok
        # {c1} still carries k trees a little below U = 1: it does not bind
        report = validate_schedule(tampered(s, witness=["c1"]), t)
        assert [v.kind for v in report.violations] == [UNCERTIFIED_BOUND]
        assert "not the least scale" in report.violations[0].detail

    def test_unknown_nodes_are_refused(self, fig3a, checked):
        s, _ = checked
        report = validate_schedule(tampered(s, witness=sorted(s.witness | {"x"})), fig3a)
        assert [v.kind for v in report.violations] == [UNCERTIFIED_BOUND]

    def test_allreduce_is_certified_once(self, fig3a):
        s, _ = generate(fig3a, collective="allreduce")
        report = validate_schedule(dataclasses.replace(s, witness=frozenset({"c1_1"})), fig3a)
        # the top-level certificate, then each phase disagreeing with it
        assert [v.kind for v in report.violations] == [UNCERTIFIED_BOUND] + [METADATA_MISMATCH] * 2

    def test_every_search_certifies(self, random_suite, clustered_suite):
        for t in random_suite + clustered_suite:
            assert certificate_violations(bottleneck_search(t), t) == []
            for k in (1, 2, 3):
                try:
                    res = fixed_k_search(t, k)
                except NotEulerianAfterFloor as exc:
                    res = exc.result
                assert certificate_violations(res, t) == [], (t, k)


class TestCongestionTime:
    def test_reference_values(self, fig3a):
        ag, _ = generate(fig3a)
        assert congestion_time(ag, fig3a) == Fraction(1, 8)
        ar, _ = generate(fig3a, collective="allreduce")
        assert congestion_time(ar, fig3a) == Fraction(1, 4)

    def test_pruning_leaves_the_bottleneck(self, fig3a, fig3a_multicast):
        bare, _ = generate(fig3a)
        pruned, _ = generate(fig3a_multicast)
        assert congestion_time(bare, fig3a_multicast) == congestion_time(
            pruned, fig3a_multicast
        )

    def test_missing_link_is_an_error(self, fig3a, two_node):
        s, _ = generate(fig3a)
        with pytest.raises(CollschedError):
            congestion_time(s, two_node)

    def test_matches_the_validator_across_the_suite(self, random_suite):
        for seed, t in zip(SUITE_SEEDS, random_suite):
            if seed >= 50:
                break
            s, meta = generate(t)
            report = validate_schedule(s, t, meta)
            assert report.ok, (seed, report.violations)
            assert congestion_time(s, t) == report.achieved_T_comm == Fraction(
                meta.inv_x_star, t.num_compute
            )
