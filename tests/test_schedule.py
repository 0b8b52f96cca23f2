"""Schedule assembly, reversal, allreduce chaining, pruning, serialization."""

import dataclasses
import json
import random
import re
from fractions import Fraction

import pytest

from collsched import (
    ALLGATHER,
    ALLREDUCE,
    COMPUTE,
    REDUCE_SCATTER,
    Link,
    Node,
    PathUse,
    RootTrees,
    ScheduleBatch,
    ScheduleEdge,
    Topology,
    assemble_allgather,
    bottleneck_search,
    combine_allreduce,
    export,
    generate,
    link_usage,
    pack_spanning_trees,
    parse_schedule,
    parse_topology,
    prune_aggregation,
    prune_multicast,
    remove_switches,
    reverse_for_reduce_scatter,
    scale_capacities,
    serialize_topology,
    synth_topology,
    validate_schedule,
)
from collsched.errors import CollschedError
from collsched.schedule import bfs_edges, fraction_text, spans_add, spans_cover

from conftest import OLD_LAYOUT_SCHEDULE, PREVIOUS_LAYOUT_SCHEDULE, flag_free


@pytest.fixture(scope="module")
def fig3a_ag(fig3a):
    s, meta = generate(fig3a)
    return s


@pytest.fixture(scope="module")
def fig3a_ag_multicast(fig3a_multicast):
    s, meta = generate(fig3a_multicast)
    return s


class TestAssembly:
    def test_reference_shape(self, fig3a_ag, fig3a):
        s = fig3a_ag
        assert s.collective == ALLGATHER
        assert s.num_compute == 8
        assert (s.k, s.U, s.y, s.inv_x_star) == (1, 1, 1, 1)
        assert s.exact is True
        assert tuple(rt.root for rt in s.roots) == fig3a.compute_ids
        for rt in s.roots:
            assert sum(b.multiplicity for b in rt.batches) == s.k
            for batch in rt.batches:
                reached = {rt.root} | {e.dst for e in batch.edges}
                assert reached == set(fig3a.compute_ids)
                for e in batch.edges:
                    assert sum(p.multiplicity for p in e.paths) == batch.multiplicity

    def test_assembling_twice_gives_equal_schedules(self):
        t = synth_topology("boxes", boxes=2, gpus_per_box=2, intra=10, inter=1)
        res = bottleneck_search(t)
        scaled = scale_capacities(t, res.U)
        logical, emap = remove_switches(scaled, res.k)
        forest = pack_spanning_trees(logical, res.k)
        first = assemble_allgather(forest, emap, scaled, res)
        assert assemble_allgather(forest, emap, scaled, res) == first

    def test_paths_route_through_switches(self, fig3a_ag, fig3a):
        switches = set(fig3a.switch_ids)
        for rt in fig3a_ag.roots:
            for batch in rt.batches:
                for e in batch.edges:
                    for pu in e.paths:
                        assert pu.path[0] == e.src and pu.path[-1] == e.dst
                        assert all(w in switches for w in pu.path[1:-1])


class TestReversal:
    def test_reduce_scatter_transposes_usage(self, fig3a_ag):
        rs = reverse_for_reduce_scatter(fig3a_ag)
        assert rs.collective == REDUCE_SCATTER
        fwd = link_usage(fig3a_ag)
        rev = link_usage(rs)
        assert rev == {(b, a): u for (a, b), u in fwd.items()}

    def test_only_allgather_reverses(self, fig3a_ag):
        rs = reverse_for_reduce_scatter(fig3a_ag)
        with pytest.raises(CollschedError):
            reverse_for_reduce_scatter(rs)


class TestAllreduce:
    def test_phases_share_the_forest(self, fig3a):
        s, meta = generate(fig3a, collective=ALLREDUCE)
        assert s.collective == ALLREDUCE
        assert len(s.phases) == 2
        rs, ag = s.phases
        assert rs.collective == REDUCE_SCATTER and ag.collective == ALLGATHER
        assert s.roots == ()

    def test_rejects_wrong_order_and_mismatches(self, fig3a_ag, two_node):
        rs = reverse_for_reduce_scatter(fig3a_ag)
        with pytest.raises(CollschedError, match="first phase must be reduce_scatter, got allgather"):
            combine_allreduce(fig3a_ag, rs)  # phases swapped
        other_ag, _ = generate(two_node)
        with pytest.raises(CollschedError, match="phase metadata disagrees"):
            combine_allreduce(rs, other_ag)  # different metadata

    def test_accepts_a_differently_listed_forest(self, fig3a):
        # the phases need not share a forest: each is validated on its own
        s, meta = generate(fig3a, collective=ALLREDUCE)
        rs, ag = s.phases
        first = ag.roots[0]
        reordered_root = dataclasses.replace(
            first,
            batches=tuple(
                dataclasses.replace(b, edges=tuple(reversed(b.edges)))
                for b in first.batches
            ),
        )
        reordered = dataclasses.replace(ag, roots=(reordered_root,) + ag.roots[1:])
        assert reordered != ag
        combined = combine_allreduce(rs, reordered)
        assert combined.phases == (rs, reordered)
        assert validate_schedule(combined, fig3a, meta).ok

    def test_a_detour_path_is_left_to_the_validator(self, fig3a):
        # switches that multicast but do not aggregate: the allgather phase
        # is pruned and the reduce-scatter keeps whole paths
        t = Topology(
            [dataclasses.replace(n, multicast=True) if n.kind == "switch" else n for n in fig3a.nodes],
            fig3a.links,
        )
        s, meta = generate(t, collective=ALLREDUCE)
        rs, ag = s.phases
        assert reverse_for_reduce_scatter(ag) != rs
        assert combine_allreduce(rs, ag) == s
        first = ag.roots[0]
        batch = first.batches[0]
        edge = batch.edges[0]
        path = edge.paths[0]
        detour = dataclasses.replace(path, path=(path.path[0], "elsewhere", path.path[-1]))
        edge = dataclasses.replace(edge, paths=(detour,) + edge.paths[1:])
        batch = dataclasses.replace(batch, edges=(edge,) + batch.edges[1:])
        first = dataclasses.replace(first, batches=(batch,) + first.batches[1:])
        combined = combine_allreduce(rs, dataclasses.replace(ag, roots=(first,) + ag.roots[1:]))
        report = validate_schedule(combined, t, meta)
        assert not report.ok
        assert all(v.detail.startswith("allgather phase: ") for v in report.violations)
        assert {v.kind for v in report.violations} == {"DeliveryGap", "CapacityExceeded"}


def _batch(*pairs):
    return ScheduleBatch(
        multiplicity=1,
        edges=tuple(ScheduleEdge(a, b, (PathUse((a, b), 1),)) for a, b in pairs),
    )


class TestBfsEdges:
    def test_breadth_first_with_sorted_children(self):
        order = bfs_edges("r", _batch(("a", "c"), ("r", "b"), ("r", "a")))
        assert [(e.src, e.dst) for e in order] == [("r", "a"), ("r", "b"), ("a", "c")]

    @pytest.mark.parametrize(
        "pairs",
        [
            (("r", "a"), ("a", "r")),  # cycle through the root
            (("r", "a"), ("a", "b"), ("b", "a")),  # cycle below the root
            (("r", "a"), ("b", "c"), ("c", "b")),  # cycle the root never reaches
            (("r", "a"), ("r", "a")),  # duplicate edge
        ],
    )
    def test_non_trees_give_none(self, pairs):
        assert bfs_edges("r", _batch(*pairs)) is None

    def test_pruning_refuses_a_non_tree(self, fig3a_ag, fig3a_multicast):
        rt = fig3a_ag.roots[0]
        loop = dataclasses.replace(rt, batches=(_batch((rt.root, "c1_2"), ("c1_2", rt.root)),))
        with pytest.raises(CollschedError):
            prune_multicast(dataclasses.replace(fig3a_ag, roots=(loop,)), fig3a_multicast)


class TestPruning:
    def test_no_capable_switches_changes_nothing(self, fig3a_ag, fig3a):
        assert prune_multicast(fig3a_ag, fig3a) == fig3a_ag

    def test_capable_switches_allow_elision(self, fig3a_ag_multicast):
        # some path does not start at its edge's tail
        assert any(
            p.path[0] != e.src
            for rt in fig3a_ag_multicast.roots
            for b in rt.batches
            for e in b.edges
            for p in e.paths
        )

    def test_usage_shrinks_pointwise(self, fig3a, fig3a_multicast):
        bare, _ = generate(fig3a)
        pruned = prune_multicast(bare, fig3a_multicast)
        before = link_usage(bare)
        after = link_usage(pruned)
        assert set(after) <= set(before)
        assert any(after.get(k, 0) < before[k] for k in before)
        for pair, units in after.items():
            assert 0 < units <= before[pair]

    def test_pruned_paths_are_suffixes(self, random_suite, clustered_suite):
        cut = 0
        for t in random_suite + clustered_suite:
            capable = Topology(
                [dataclasses.replace(n, multicast=True) if n.kind == "switch" else n for n in t.nodes],
                t.links,
            )
            bare, _ = generate(flag_free(t))
            pruned = prune_multicast(bare, capable)
            assert [rt.root for rt in pruned.roots] == [rt.root for rt in bare.roots]
            for rt_bare, rt_pruned in zip(bare.roots, pruned.roots):
                assert len(rt_pruned.batches) == len(rt_bare.batches)
                for b_bare, b_pruned in zip(rt_bare.batches, rt_pruned.batches):
                    assert b_pruned.multiplicity == b_bare.multiplicity
                    dropped: dict[tuple[str, str], int] = {}
                    for e_bare, e_pruned in zip(b_bare.edges, b_pruned.edges, strict=True):
                        assert (e_pruned.src, e_pruned.dst) == (e_bare.src, e_bare.dst)
                        for p_bare, p_pruned in zip(e_bare.paths, e_pruned.paths, strict=True):
                            assert p_pruned.multiplicity == p_bare.multiplicity
                            start = len(p_bare.path) - len(p_pruned.path)
                            assert start >= 0 and p_bare.path[start:] == p_pruned.path
                            cut += start > 0
                            for hop in zip(p_bare.path[:start], p_bare.path[1:start + 1]):
                                dropped[hop] = dropped.get(hop, 0) + p_bare.multiplicity
                    # the dropped prefixes are exactly the batch's usage drop
                    before = link_usage(dataclasses.replace(bare, roots=(RootTrees(rt_bare.root, (b_bare,)),)))
                    after = link_usage(dataclasses.replace(bare, roots=(RootTrees(rt_bare.root, (b_pruned,)),)))
                    drop = {hop: units - after.get(hop, 0) for hop, units in before.items()}
                    assert {hop: units for hop, units in drop.items() if units} == dropped
        assert cut > 0

    def test_copy_spans_match_sets(self):
        # charged copies are merged intervals; they must answer exactly as
        # the sets of copies they replace
        rng = random.Random(5)
        for _ in range(200):
            spans, copies = [], set()
            for _ in range(rng.randint(1, 8)):
                lo = rng.randint(0, 30)
                hi = lo + rng.randint(-2, 8)
                assert spans_cover(spans, lo, hi) == (set(range(lo, hi)) <= copies)
                spans = spans_add(spans, lo, hi)
                copies |= set(range(lo, hi))
                assert set().union(*(range(a, b) for a, b in spans)) == copies
                ordered = sorted(spans)
                assert all(b < c for (_, b), (c, _) in zip(ordered, ordered[1:]))  # merged

    def test_collective_gating(self, fig3a_ag, fig3a):
        rs = reverse_for_reduce_scatter(fig3a_ag)
        with pytest.raises(CollschedError):
            prune_multicast(rs, fig3a)
        with pytest.raises(CollschedError):
            prune_aggregation(fig3a_ag, fig3a)

    def test_aggregation_mirrors_multicast(self, fig3a, fig3a_multicast):
        bare, _ = generate(fig3a, collective=REDUCE_SCATTER)
        pruned = prune_aggregation(bare, fig3a_multicast)
        assert pruned.collective == REDUCE_SCATTER
        # the same schedule generate prunes on the transposed network
        assert pruned == generate(fig3a_multicast, collective=REDUCE_SCATTER)[0]
        # some reduce-scatter path stops at a switch that aggregates it
        assert any(
            p.path[-1] != e.dst
            for rt in pruned.roots
            for b in rt.batches
            for e in b.edges
            for p in e.paths
        )


class TestSerialization:
    def test_json_round_trip(self, fig3a_ag_multicast):
        text = export(fig3a_ag_multicast, "json")
        assert parse_schedule(text) == fig3a_ag_multicast

    def test_allreduce_round_trip(self, fig3a):
        s, _ = generate(fig3a, collective=ALLREDUCE)
        assert parse_schedule(export(s, "json")) == s

    def test_document_fields_are_frozen(self, fig3a_ag_multicast):
        text = export(fig3a_ag_multicast, "json")
        # one line, no whitespace between tokens: the C encoder's output
        assert text.count("\n") == 1 and text.endswith("\n") and " " not in text
        doc = json.loads(text)
        assert set(doc) == {
            "collective",
            "num_compute_nodes",
            "trees_per_root",
            "optimal_inv_x",
            "tree_bandwidth",
            "scale_U",
            "exact_bound",
            "witness",
            "roots",
        }
        assert doc["collective"] == "allgather"
        assert doc["trees_per_root"] == 1
        assert doc["optimal_inv_x"] == "1/1"
        assert doc["exact_bound"] is True
        assert doc["witness"] == sorted(fig3a_ag_multicast.witness)
        root = doc["roots"][0]
        assert set(root) == {"root", "batches"}
        batch = root["batches"][0]
        assert set(batch) == {"multiplicity", "edges"}
        # every edge, a pruned one (some path not from its tail) included
        edges = fig3a_ag_multicast.roots[0].batches[0].edges
        assert any(p.path[0] != e.src for e in edges for p in e.paths)
        assert batch["edges"] == [
            [e.src, e.dst, [[list(p.path), p.multiplicity] for p in e.paths]] for e in edges
        ]

    def test_parse_rejects_malformed_documents(self):
        with pytest.raises(CollschedError):
            parse_schedule("not json at all {")
        with pytest.raises(CollschedError):
            parse_schedule(json.dumps({"collective": "scatter"}))
        with pytest.raises(CollschedError):
            parse_schedule(json.dumps({"collective": "allgather"}))  # no fields
        base = {
            "collective": "allreduce",
            "num_compute_nodes": 2,
            "trees_per_root": 1,
            "optimal_inv_x": "1/1",
            "tree_bandwidth": "1/1",
            "scale_U": "1/1",
            "witness": ["c1"],
            "phases": [],
        }
        with pytest.raises(CollschedError):
            parse_schedule(json.dumps(base))  # allreduce needs 2 phases
        bad_frac = {
            "collective": "allgather",
            "num_compute_nodes": 2,
            "trees_per_root": 1,
            "optimal_inv_x": "fast",
            "tree_bandwidth": "1/1",
            "scale_U": "1/1",
            "witness": ["c1"],
            "roots": [],
        }
        with pytest.raises(CollschedError):
            parse_schedule(json.dumps(bad_frac))
        # only what fraction_text writes: int() alone would take all of these
        for text in ("1_0/2", " 3/4", "\u0663/4", "+1/2", "1/-2", "3/4\n", "1/0", "3"):
            with pytest.raises(CollschedError, match="'p/q' rational"):
                parse_schedule(json.dumps(dict(bad_frac, optimal_inv_x=text)))
        no_witness = dict(bad_frac, optimal_inv_x="1/1")
        del no_witness["witness"]
        with pytest.raises(CollschedError, match="'witness'"):
            parse_schedule(json.dumps(no_witness))

    def test_old_layout_is_refused(self):
        # refused like any malformed file: that layout wrote no witness
        with pytest.raises(CollschedError, match="^missing field 'witness'"):
            parse_schedule(OLD_LAYOUT_SCHEDULE)

    def test_previous_layout_is_refused(self):
        # its whole paths would read back as an unpruned schedule
        with pytest.raises(
            CollschedError,
            match="^batch 0 of root 'c1' in the schedule has unknown field 'pruned'",
        ):
            parse_schedule(PREVIOUS_LAYOUT_SCHEDULE)

    @pytest.mark.parametrize(
        "path, key, where",
        [
            ((), "exact_bond", "the schedule"),
            (("phases", 0), "exact_bond", "the reduce_scatter phase"),
            (("phases", 1, "roots", 0), "rooot", "root 'c1_1' in the allgather phase"),
            (
                ("phases", 1, "roots", 0, "batches", 0),
                "multiplicty",
                "batch 0 of root 'c1_1' in the allgather phase",
            ),
        ],
        ids=["top-level", "phase", "root", "batch"],
    )
    def test_parse_refuses_unknown_fields(self, fig3a, path, key, where):
        """A misspelt field is refused by name, never read as absent."""
        s, _ = generate(fig3a, collective=ALLREDUCE)
        doc = json.loads(export(s, "json"))
        parent = doc
        for step in path:
            parent = parent[step]
        parent[key] = 3
        with pytest.raises(CollschedError, match=f"^{where} has unknown field '{key}'"):
            parse_schedule(json.dumps(doc))

    BATCH = ("roots", 0, "batches", 0)
    EDGE = BATCH + ("edges", 0)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("exact_bound",), "false"),
            (("trees_per_root",), 1.0),
            (("trees_per_root",), True),
            (("roots", 0, "root"), 7),
            (EDGE + (2, 0, 0), "c1_1"),  # a path that is not a list
            (("roots", 0, "batches"), {}),
            (("roots",), None),
            (EDGE + (2, 0, 0), ["c1_1"]),  # a path of fewer than 2 ids
            (EDGE + (2, 0, 0, 0), 7),  # a path id that is not a string
            (EDGE + (2, 0, 1), True),  # a bool path multiplicity
            (EDGE + (2, 0), [["c1_1", "w1", "c1_2"], 1, 1]),  # path entry not a pair
            (EDGE, ["c1_1", "c1_2"]),  # an edge that is not a triple
            (EDGE, ["c1_1", "c1_2", [], 1]),
            (EDGE + (0,), 1),  # an edge end that is not a string
            (BATCH + ("pruned",), [["c1_1", "w1", 1]]),  # the previous layout's hops
            (BATCH + ("multiplicity",), True),  # a bool batch multiplicity
            (BATCH + ("multiplicity",), 1.0),
            (("witness",), "c1_1"),
            (("witness",), ["w1", "c1_1"]),  # not sorted
            (("witness",), ["c1_1", "c1_1"]),  # not distinct
            (("witness",), [["c1_1"]]),
        ],
    )
    def test_parse_requires_json_types(self, fig3a_ag_multicast, path, value):
        doc = json.loads(export(fig3a_ag_multicast, "json"))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(CollschedError):
            parse_schedule(json.dumps(doc))

    ALLGATHER_EDGES = ("phases", 1, "roots", 1, "batches", 0, "edges")

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (
                ALLGATHER_EDGES + (1,),
                ["c1", 5],
                "expected an edge [src, dst, [paths...]], got ['c1', 5], "
                "in edge 1 of batch 0 of root 'c1_2' in the allgather phase",
            ),
            (
                ALLGATHER_EDGES + (0, 2, 0, 0),
                ["c1_2"],
                "path ['c1_2'] must list at least 2 node ids, "
                "in edge 0 of batch 0 of root 'c1_2' in the allgather phase",
            ),
            (
                ("phases", 0, "witness"),
                ["w1", "c1_1"],
                "'witness' must be a sorted list of distinct node ids, got ['w1', 'c1_1'], "
                "in the reduce_scatter phase",
            ),
            (
                ("phases", 1, "scale_U"),
                "fast",
                "'scale_U' must be a 'p/q' rational, got 'fast', in the allgather phase",
            ),
            (
                ("optimal_inv_x",),
                "1/" + "9" * 5000,
                "'optimal_inv_x' has too many digits (5002) in the schedule",
            ),
        ],
        ids=["edge", "path", "witness", "rational", "rational-digits"],
    )
    def test_parse_names_where_an_edge_path_witness_or_rational_is_bad(
        self, fig3a, path, value, message
    ):
        """The readers of an edge, a path, the witness and a rational name
        the phase, root, batch and edge the bad value is in."""
        s, _ = generate(fig3a, collective=ALLREDUCE)
        doc = json.loads(export(s, "json"))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(CollschedError) as exc:
            parse_schedule(json.dumps(doc))
        assert str(exc.value) == message

    def test_parse_rejects_nested_allreduce(self, fig3a):
        s, _ = generate(fig3a, collective=ALLREDUCE)
        doc = json.loads(export(s, "json"))
        doc["phases"][0] = json.loads(export(s, "json"))
        with pytest.raises(CollschedError):
            parse_schedule(json.dumps(doc))

    def test_fraction_text(self):
        assert fraction_text(3) == "3/1"
        assert fraction_text(Fraction(6, 4)) == "3/2"

    def test_dot_draws_the_hops_sent(self, fig3a_ag, fig3a_ag_multicast):
        def arrows(s):
            first = dataclasses.replace(s, roots=s.roots[:1])
            return {line for line in export(first, "dot").splitlines() if "->" in line}

        # the hops a pruned path no longer lists are not drawn
        sent = {
            f'  "{a}" -> "{b}";'
            for e in fig3a_ag_multicast.roots[0].batches[0].edges
            for p in e.paths
            for a, b in zip(p.path, p.path[1:])
        }
        assert arrows(fig3a_ag_multicast) == sent
        assert arrows(fig3a_ag_multicast) < arrows(fig3a_ag)

    def test_dot_renders_one_digraph_per_root(self, fig3a_ag, fig3a):
        dot = export(fig3a_ag, "dot")
        assert dot.count("digraph") == len(fig3a.compute_ids)
        assert 'digraph "allgather_c1_1"' in dot
        assert '"c1_1" -> ' in dot

    def test_dot_escapes_quotes_and_backslashes(self):
        quote, slash = 'a"x', "b\\"
        t = Topology(
            [Node(quote, COMPUTE), Node(slash, COMPUTE)],
            [Link(quote, slash, 1), Link(slash, quote, 1)],
        )
        s, _ = generate(parse_topology(serialize_topology(t)))
        string = r'"((?:[^"\\]|\\.)*)"'  # a DOT quoted string with escapes

        def text(match, group):
            return re.sub(r"\\(.)", r"\1", match[group])

        names, labels, edges = set(), set(), set()
        for line in export(s, "dot").splitlines():
            if m := re.fullmatch(rf"digraph {string} {{", line):
                names.add(text(m, 1))
            elif m := re.fullmatch(rf"  label={string};", line):
                labels.add(text(m, 1))
            elif m := re.fullmatch(rf"  {string} -> {string};", line):
                edges.add((text(m, 1), text(m, 2)))
            else:
                assert line == "}"
        assert names == {f"allgather_{quote}", f"allgather_{slash}"}
        assert labels == {f"root {quote}, multiplicity {s.k}", f"root {slash}, multiplicity {s.k}"}
        assert edges == {(quote, slash), (slash, quote)}

    def test_unknown_format_rejected(self, fig3a_ag):
        with pytest.raises(CollschedError):
            export(fig3a_ag, "yaml")

    def test_deterministic_bytes(self, fig3a):
        a, _ = generate(fig3a)
        b, _ = generate(fig3a)
        assert export(a, "json") == export(b, "json")
        assert export(a, "dot") == export(b, "dot")


class TestLinkUsage:
    def test_counts_every_hop_with_multiplicity(self):
        s_roots = (
            RootTrees(
                root="a",
                batches=(
                    ScheduleBatch(
                        multiplicity=2,
                        edges=(
                            ScheduleEdge(
                                src="a",
                                dst="b",
                                # one copy reaches w already: its path starts there
                                paths=(PathUse(("a", "w", "b"), 1), PathUse(("w", "b"), 1)),
                            ),
                        ),
                    ),
                ),
            ),
        )
        from collsched import Schedule

        s = Schedule(
            collective=ALLGATHER,
            num_compute=2,
            k=2,
            U=Fraction(1),
            y=Fraction(1),
            inv_x_star=Fraction(1),
            roots=s_roots,
        )
        assert link_usage(s) == {("a", "w"): 1, ("w", "b"): 2}

    def test_allreduce_must_be_split_into_phases(self, fig3a):
        s, _ = generate(fig3a, collective=ALLREDUCE)
        with pytest.raises(CollschedError):
            link_usage(s)
