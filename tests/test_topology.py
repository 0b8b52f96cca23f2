"""Network model: construction rules, parsing, validation, scaling."""

import random
from fractions import Fraction

import pytest

from collsched import (
    COMPUTE,
    SWITCH,
    Link,
    Node,
    Topology,
    parse_topology,
    random_eulerian_topology,
    scale_capacities,
    serialize_topology,
    synth_topology,
    validate,
)
from collsched.errors import (
    DuplicateNodeId,
    MalformedDocument,
    NonIntegerBandwidth,
    NonIntegralScale,
    TopologyFormatError,
    UnknownEndpoint,
    UnknownNodeKind,
)

DOC = """
{
  "nodes": [
    {"id": "a", "kind": "compute"},
    {"id": "b", "kind": "compute"},
    {"id": "w", "kind": "switch", "multicast": true}
  ],
  "links": [
    {"src": "a", "dst": "w", "bandwidth": 2},
    {"src": "w", "dst": "b", "bandwidth": 2},
    {"src": "b", "dst": "a", "bandwidth": 2}
  ]
}
"""


class TestConstruction:
    def test_basic_fields(self):
        t = parse_topology(DOC)
        assert t.compute_ids == ("a", "b")
        assert t.switch_ids == ("w",)
        assert t.num_compute == 2
        assert t.node_by_id["w"].multicast is True
        assert t.node_by_id["w"].aggregation is False
        assert t.capacity[("a", "w")] == 2

    def test_parallel_links_merge(self):
        t = Topology(
            [Node("a", COMPUTE), Node("b", COMPUTE)],
            [Link("a", "b", 2), Link("a", "b", 3), Link("b", "a", 5)],
        )
        assert t.capacity == {("a", "b"): 5, ("b", "a"): 5}
        assert len(t.links) == 2

    def test_duplicate_id(self):
        with pytest.raises(DuplicateNodeId):
            Topology([Node("a", COMPUTE), Node("a", COMPUTE)], [])

    def test_unknown_kind(self):
        with pytest.raises(UnknownNodeKind):
            Topology([Node("a", "router")], [])

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEndpoint):
            Topology([Node("a", COMPUTE)], [Link("a", "zz", 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyFormatError):
            Topology([Node("a", COMPUTE), Node("b", COMPUTE)], [Link("a", "a", 1)])

    def test_compute_cannot_multicast(self):
        with pytest.raises(MalformedDocument):
            Topology([Node("a", COMPUTE, multicast=True)], [])

    @pytest.mark.parametrize("bw", [0, -1, 1.5, True])
    def test_bad_bandwidth(self, bw):
        with pytest.raises(NonIntegerBandwidth):
            Topology(
                [Node("a", COMPUTE), Node("b", COMPUTE)], [Link("a", "b", bw)]
            )


class TestParseSerialize:
    def test_parse_errors(self):
        with pytest.raises(MalformedDocument):
            parse_topology("not json")
        with pytest.raises(MalformedDocument):
            parse_topology('{"nodes": []}')
        with pytest.raises(MalformedDocument):
            parse_topology('{"nodes": [{"id": "a"}], "links": []}')
        with pytest.raises(NonIntegerBandwidth):
            parse_topology(
                '{"nodes": [{"id": "a", "kind": "compute"},'
                ' {"id": "b", "kind": "compute"}],'
                ' "links": [{"src": "a", "dst": "b", "bandwidth": 1.5}]}'
            )

    def test_round_trip_fixed(self):
        t = parse_topology(DOC)
        assert parse_topology(serialize_topology(t)) == t

    def test_round_trip_random(self, random_suite):
        for t in random_suite[:50]:
            assert parse_topology(serialize_topology(t)) == t

    def test_serialization_is_deterministic(self, fig3a):
        assert serialize_topology(fig3a) == serialize_topology(
            synth_topology("boxes", boxes=2, gpus_per_box=4, intra=10, inter=1)
        )


class TestValidate:
    def test_valid(self, fig3a):
        report = validate(fig3a)
        assert report.ok
        assert report.violations == ()

    def test_not_eulerian(self):
        # ingress 3, egress 2 at node b
        t = Topology(
            [Node("a", COMPUTE), Node("b", COMPUTE)],
            [Link("a", "b", 3), Link("b", "a", 2)],
        )
        report = validate(t)
        assert not report.ok
        kinds = {(v.kind, v.subject) for v in report.violations}
        assert ("NotEulerian", "a") in kinds
        assert ("NotEulerian", "b") in kinds

    def test_unreachable(self):
        t = Topology(
            [Node("a", COMPUTE), Node("b", COMPUTE), Node("c", COMPUTE)],
            [Link("a", "b", 1), Link("b", "a", 1), Link("c", "a", 1), Link("a", "c", 1)],
        )
        # break c's ingress: only c -> a remains
        t = Topology(t.nodes, [Link("a", "b", 1), Link("b", "a", 1), Link("c", "a", 1)])
        report = validate(t)
        assert any(v.kind == "Unreachable" and v.subject == "c" for v in report.violations)

    def test_too_few_compute(self):
        t = Topology([Node("a", COMPUTE)], [])
        report = validate(t)
        assert any(v.kind == "TooFewComputeNodes" for v in report.violations)

    def test_random_suite_all_valid(self, random_suite):
        for t in random_suite:
            assert validate(t).ok


class TestScaleCapacities:
    def test_integer_scale(self, fig3a):
        d = scale_capacities(fig3a, 3)
        assert d.nodes == fig3a.nodes
        assert d.capacity[("c1_1", "w1")] == 30
        # Eulerian survives scaling
        assert validate(d).ok

    def test_fractional_scale_must_clear(self):
        t = Topology(
            [Node("a", COMPUTE), Node("b", COMPUTE)],
            [Link("a", "b", 4), Link("b", "a", 4)],
        )
        d = scale_capacities(t, Fraction(3, 2))
        assert d.capacity[("a", "b")] == 6
        with pytest.raises(NonIntegralScale):
            scale_capacities(t, Fraction(1, 3))

    def test_nonpositive_scale(self, fig3a):
        with pytest.raises(NonIntegralScale):
            scale_capacities(fig3a, 0)


class TestSynthFamilies:
    def test_boxes_shape(self, fig3a):
        assert fig3a.num_compute == 8
        assert fig3a.switch_ids == ("w0", "w1", "w2")
        assert len(fig3a.links) == 32
        assert fig3a.capacity[("c1_1", "w1")] == 10
        assert fig3a.capacity[("c1_1", "w0")] == 1
        assert validate(fig3a).ok

    def test_ring(self, ring4):
        assert ring4.num_compute == 4
        assert ring4.switch_ids == ()
        assert ring4.capacity == {
            ("c1", "c2"): 1, ("c2", "c3"): 1, ("c3", "c4"): 1, ("c4", "c1"): 1,
        }
        assert validate(ring4).ok
        bidi = synth_topology("ring", n=4, bw=2, bidirectional=True)
        assert bidi.capacity[("c2", "c1")] == 2
        assert validate(bidi).ok

    def test_fat_tree(self):
        t = synth_topology("fat-tree", pods=2, gpus=4, spines=2, leaf_bw=4, spine_bw=3)
        assert t.num_compute == 4
        assert set(t.switch_ids) == {"l1", "l2", "s1", "s2"}
        assert t.capacity[("c1_1", "l1")] == 4
        assert t.capacity[("l1", "s2")] == 3
        assert validate(t).ok

    def test_bad_params(self):
        with pytest.raises(ValueError):
            synth_topology("boxes", boxes=1, gpus_per_box=1, intra=1, inter=1)
        with pytest.raises(ValueError):
            synth_topology("ring", n=1, bw=1)
        with pytest.raises(ValueError):
            synth_topology("fat-tree", pods=3, gpus=4, leaf_bw=1, spine_bw=1)
        with pytest.raises(ValueError):
            synth_topology("torus", n=4)


class TestRandomEulerian:
    def test_deterministic_per_seed(self):
        for seed in (0, 7, 42):
            a = random_eulerian_topology(seed)
            b = random_eulerian_topology(seed)
            assert serialize_topology(a) == serialize_topology(b)

    def test_respects_limits(self, random_suite):
        for t in random_suite:
            assert len(t.nodes) <= 12
            assert all(l.bandwidth <= 8 for l in t.links)
            assert t.num_compute >= 2

    def test_seeds_vary(self):
        docs = {serialize_topology(random_eulerian_topology(s)) for s in range(30)}
        assert len(docs) > 25  # near-certain distinctness, deterministic check
