"""Network model: construction rules, parsing, validation, scaling."""

import json
import random
from fractions import Fraction

import pytest

from collsched import (
    ALLREDUCE,
    COMPUTE,
    SWITCH,
    Link,
    Node,
    Topology,
    export,
    generate,
    parse_schedule,
    parse_topology,
    random_eulerian_topology,
    scale_capacities,
    serialize_topology,
    synth_topology,
    validate,
)
from collsched.errors import CollschedError, Overflow, TopologyFormatError
from collsched.topology import transpose

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
        with pytest.raises(TopologyFormatError, match="duplicate node id 'a'"):
            Topology([Node("a", COMPUTE), Node("a", COMPUTE)], [])

    def test_unknown_kind(self):
        with pytest.raises(TopologyFormatError, match="node 'a' has unknown kind 'router'"):
            Topology([Node("a", "router")], [])

    def test_unknown_endpoint(self):
        with pytest.raises(TopologyFormatError, match="link a->zz references an undeclared node"):
            Topology([Node("a", COMPUTE)], [Link("a", "zz", 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyFormatError):
            Topology([Node("a", COMPUTE), Node("b", COMPUTE)], [Link("a", "a", 1)])

    def test_compute_cannot_multicast(self):
        with pytest.raises(TopologyFormatError, match="compute node 'a' cannot carry switch capability flags"):
            Topology([Node("a", COMPUTE, multicast=True)], [])

    @pytest.mark.parametrize("bw", [0, -1, 1.5, True])
    def test_bad_bandwidth(self, bw):
        with pytest.raises(TopologyFormatError, match="is not a positive integer"):
            Topology(
                [Node("a", COMPUTE), Node("b", COMPUTE)], [Link("a", "b", bw)]
            )


class TestParseSerialize:
    def test_parse_errors(self):
        with pytest.raises(TopologyFormatError, match="not valid JSON"):
            parse_topology("not json")
        with pytest.raises(TopologyFormatError, match="missing field 'links'"):
            parse_topology('{"nodes": []}')
        with pytest.raises(TopologyFormatError, match="missing field 'kind'"):
            parse_topology('{"nodes": [{"id": "a"}], "links": []}')
        with pytest.raises(TopologyFormatError, match="field 'bandwidth' must be a JSON integer, got 1.5"):
            parse_topology(
                '{"nodes": [{"id": "a", "kind": "compute"},'
                ' {"id": "b", "kind": "compute"}],'
                ' "links": [{"src": "a", "dst": "b", "bandwidth": 1.5}]}'
            )

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"nodes": [], "links": [], "name": "x"}', "the topology document has unknown field 'name'"),
            (
                '{"nodes": [{"id": "w", "kind": "switch", "multicat": true}], "links": []}',
                "node 'w' has unknown field 'multicat'",
            ),
            (
                '{"nodes": [], "links": [{"src": "a", "dst": "b", "bandwidth": 1, "bw": 2}]}',
                "link a->b has unknown field 'bw'",
            ),
        ],
    )
    def test_unknown_fields_are_refused(self, doc, message):
        """A field the format does not list is named, not ignored."""
        with pytest.raises(TopologyFormatError, match=message):
            parse_topology(doc)

    # Ids and the key hold braces, as str.format fields would.
    BRACED = ("c{0}", "c{}", "c}1{")
    KEY = "bogus{}"
    SCHEDULE = (
        "collective, num_compute_nodes, trees_per_root, optimal_inv_x, tree_bandwidth, "
        "scale_U, exact_bound, witness"
    )

    @pytest.mark.parametrize(
        "reader, path, where, known",
        [
            ("topology", (), "the topology document", "nodes, links"),
            ("topology", ("nodes", 0), "node 'c{0}'", "id, kind, multicast, aggregation"),
            ("topology", ("links", 0), "link c{0}->c{}", "src, dst, bandwidth"),
            ("boxes", (), "topology family 'boxes'", "boxes, gpus_per_box, intra, inter"),
            ("ring", (), "topology family 'ring'", "n, bw, bidirectional"),
            (
                "fat-tree",
                (),
                "topology family 'fat-tree'",
                "pods, gpus, spines, leaf_bw, spine_bw",
            ),
            ("schedule", (), "the schedule", SCHEDULE + ", phases"),
            ("schedule", ("phases", 0), "the reduce_scatter phase", SCHEDULE + ", roots"),
            (
                "schedule",
                ("phases", 1, "roots", 0),
                "root 'c{0}' in the allgather phase",
                "root, batches",
            ),
            (
                "schedule",
                ("phases", 1, "roots", 0, "batches", 0),
                "batch 0 of root 'c{0}' in the allgather phase",
                "multiplicity, edges",
            ),
        ],
        ids=[
            "topology", "node", "link", "boxes", "ring", "fat-tree",
            "schedule", "phase", "root", "batch",
        ],
    )
    def test_every_reader_names_an_unknown_key(self, reader, path, where, known):
        """Each object collsched reads refuses a key it does not know, by
        name, with where the object is and the keys it does know."""
        message = self.refusal(reader, path, lambda obj: obj.__setitem__(self.KEY, 1))
        assert message == f"{where} has unknown field {self.KEY!r} (known: {known})"

    def refusal(self, reader, path, mutate) -> str:
        """The message of the CollschedError that `reader` raises on its
        input for a network of BRACED ids once `mutate` has changed the
        object at `path` in it (the synth parameters for a family)."""
        net = Topology(
            [Node(i, COMPUTE) for i in self.BRACED],
            [Link(a, b, 1) for a in self.BRACED for b in self.BRACED if a != b],
        )
        synth_params = {
            "boxes": dict(boxes=2, gpus_per_box=2, intra=2, inter=1),
            "ring": dict(n=3, bw=1),
            "fat-tree": dict(pods=2, gpus=4, leaf_bw=2, spine_bw=1),
        }
        if reader in synth_params:
            params = dict(synth_params[reader])
            mutate(params)
            call = lambda: synth_topology(reader, **params)
        else:
            if reader == "topology":
                doc, parse = json.loads(serialize_topology(net)), parse_topology
            else:
                s, _ = generate(net, collective=ALLREDUCE)
                doc, parse = json.loads(export(s, "json")), parse_schedule
            obj = doc
            for step in path:
                obj = obj[step]
            mutate(obj)
            call = lambda: parse(json.dumps(doc))
        with pytest.raises(CollschedError) as exc:
            call()
        return str(exc.value)

    @pytest.mark.parametrize(
        "reader, path, key, wrong, where",
        [
            ("topology", (), "links", ("x", "array"), "the topology document"),
            ("topology", ("nodes", 1), "kind", (7, "string"), "node 'c{}'"),
            ("topology", ("nodes", 1), "id", (7, "string"), "node 1"),
            ("topology", ("links", 0), "bandwidth", ("x", "integer"), "link c{0}->c{}"),
            ("topology", ("links", 2), "dst", (7, "string"), "link 2"),
            ("boxes", (), "inter", ("x", "integer"), "topology family 'boxes'"),
            ("ring", (), "bw", (True, "integer"), "topology family 'ring'"),
            ("fat-tree", (), "spine_bw", ("x", "integer"), "topology family 'fat-tree'"),
            ("schedule", (), "witness", ("x", "array"), "the schedule"),
            ("schedule", ("phases", 0), "scale_U", (7, "string"), "the reduce_scatter phase"),
            ("schedule", ("phases", 1), "collective", (7, "string"), "phase 1 of the schedule"),
            (
                "schedule",
                ("phases", 1, "roots", 0),
                "batches",
                ("x", "array"),
                "root 'c{0}' in the allgather phase",
            ),
            (
                "schedule",
                ("phases", 1, "roots", 2),
                "root",
                (7, "string"),
                "root 2 in the allgather phase",
            ),
            (
                "schedule",
                ("phases", 0, "roots", 1, "batches", 0),
                "edges",
                ("x", "array"),
                "batch 0 of root 'c{}' in the reduce_scatter phase",
            ),
        ],
        ids=[
            "topology", "node", "node-id", "link", "link-dst", "boxes", "ring", "fat-tree",
            "schedule", "phase", "phase-collective", "root", "root-name", "batch",
        ],
    )
    def test_every_reader_names_where_a_field_is_missing_or_mistyped(
        self, reader, path, key, wrong, where
    ):
        """A missing or mistyped field is reported with the object it is
        in, named as for an unknown field, or by its index when the field
        that names it is the bad one."""
        missing = self.refusal(reader, path, lambda obj: obj.pop(key))
        assert missing == f"missing field {key!r} in {where}"
        value, kind = wrong
        mistyped = self.refusal(reader, path, lambda obj: obj.__setitem__(key, value))
        assert mistyped == f"field {key!r} must be a JSON {kind}, got {value!r}, in {where}"

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

    def test_fractional_scale_floors(self):
        t = Topology(
            [Node("a", COMPUTE), Node("b", COMPUTE)],
            [Link("a", "b", 4), Link("b", "a", 2)],
        )
        assert scale_capacities(t, Fraction(3, 2)).capacity == {("a", "b"): 6, ("b", "a"): 3}
        assert scale_capacities(t, Fraction(1, 3)).capacity == {("a", "b"): 1}
        # a link that floors to 0 is left out
        d = scale_capacities(t, Fraction(1, 5))
        assert d.capacity == {} and d.nodes == t.nodes

    def test_nonpositive_scale(self, fig3a):
        for U in (0, Fraction(-1, 2)):
            with pytest.raises(CollschedError, match="positive"):
                scale_capacities(fig3a, U)

    def test_budget_holds_the_total_capacity(self):
        nodes = [Node("a", COMPUTE), Node("b", COMPUTE)]
        fits = Topology(nodes, [Link("a", "b", 2**63 - 2), Link("b", "a", 1)])
        assert scale_capacities(fits, 1) == fits
        over = Topology(nodes, [Link("a", "b", 2**63 - 1), Link("b", "a", 1)])
        with pytest.raises(Overflow):
            scale_capacities(over, 1)


class TestTranspose:
    def test_involution_that_swaps_capabilities(self, random_suite):
        swapped = 0
        for t in random_suite[:40]:
            tt = transpose(t)
            assert transpose(tt) == t
            assert tt.capacity == {(b, a): bw for (a, b), bw in t.capacity.items()}
            assert validate(tt).ok
            for n in t.nodes:
                m = tt.node_by_id[n.id]
                assert (m.kind, m.multicast, m.aggregation) == (n.kind, n.aggregation, n.multicast)
                if n.kind == COMPUTE:
                    assert not (m.multicast or m.aggregation)
                swapped += n.multicast != n.aggregation
        assert swapped > 0  # the sample holds switches the swap changes


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
        with pytest.raises(TopologyFormatError):
            synth_topology("boxes", boxes=1, gpus_per_box=1, intra=1, inter=1)
        with pytest.raises(TopologyFormatError):
            synth_topology("ring", n=1, bw=1)
        with pytest.raises(TopologyFormatError):
            synth_topology("ring", n=3, bw=0)
        with pytest.raises(TopologyFormatError):
            synth_topology("fat-tree", pods=3, gpus=4, leaf_bw=1, spine_bw=1)
        with pytest.raises(TopologyFormatError):
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
