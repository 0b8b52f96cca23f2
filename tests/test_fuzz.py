"""Malformed input of any shape: the parsers either return or raise
CollschedError, and the CLI exits 0, 1 or (verify) 2, never with a
traceback."""

import copy
import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from collsched import (
    CollschedError,
    Topology,
    export,
    generate,
    parse_schedule,
    parse_topology,
    serialize_topology,
    synth_topology,
)
from collsched.cli import main

from conftest import OLD_LAYOUT_SCHEDULE, PREVIOUS_LAYOUT_SCHEDULE

# Field names and values of the two documents, so that generated objects
# often look almost right.
WORDS = [
    "nodes", "links", "id", "kind", "multicast", "aggregation", "src", "dst",
    "bandwidth", "compute", "switch", "collective", "num_compute_nodes",
    "trees_per_root", "optimal_inv_x", "tree_bandwidth", "scale_U",
    "exact_bound", "witness", "roots", "root", "batches", "multiplicity", "edges",
    "paths", "path", "pruned", "phases", "allgather", "reduce_scatter",
    "allreduce", "1/1", "1/0", "a", "b",
]
words = st.sampled_from(WORDS) | st.text(max_size=6)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | words,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(words, inner, max_size=5),
    max_leaves=25,
)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)
CLI_FUZZ = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def leaf_paths(doc, prefix=()):
    """Key paths to every value inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from leaf_paths(value, prefix + (key,))


def mutations(doc):
    """`doc` with one value, anywhere in it, replaced by an arbitrary one."""

    def apply(path, value):
        out = copy.deepcopy(doc)
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        return out

    return st.builds(apply, st.sampled_from(list(leaf_paths(doc))), json_values)


TOPOLOGY_DOC = {
    "nodes": [
        {"id": "a", "kind": "compute"},
        {"id": "b", "kind": "compute"},
        {"id": "w", "kind": "switch", "multicast": True, "aggregation": False},
    ],
    "links": [
        {"src": "a", "dst": "w", "bandwidth": 2},
        {"src": "w", "dst": "b", "bandwidth": 2},
        {"src": "b", "dst": "a", "bandwidth": 2},
    ],
}


def _schedule_docs():
    """Exported allgather and allreduce schedules with pruned paths, and
    schedules in the two earlier layouts, which the parser refuses."""
    t = synth_topology("boxes", boxes=2, gpus_per_box=2, intra=3, inter=1)
    t = Topology(
        [dataclasses.replace(n, multicast=True, aggregation=True) if n.kind == "switch" else n
         for n in t.nodes],
        t.links,
    )
    docs = [json.loads(export(generate(t, c)[0], "json")) for c in ("allgather", "allreduce")]
    return docs + [json.loads(OLD_LAYOUT_SCHEDULE), json.loads(PREVIOUS_LAYOUT_SCHEDULE)]


SCHEDULE_DOCS = _schedule_docs()


def parses_or_refuses(parse, doc) -> None:
    try:
        parse(json.dumps(doc))
    except CollschedError:
        pass


@FUZZ
@given(json_values)
def test_parse_topology_on_any_json(doc):
    parses_or_refuses(parse_topology, doc)


@FUZZ
@given(mutations(TOPOLOGY_DOC))
def test_parse_topology_on_near_misses(doc):
    parses_or_refuses(parse_topology, doc)


@FUZZ
@given(json_values)
def test_parse_schedule_on_any_json(doc):
    parses_or_refuses(parse_schedule, doc)


@FUZZ
@given(st.sampled_from(SCHEDULE_DOCS).flatmap(mutations))
def test_parse_and_export_schedule_on_near_misses(doc):
    try:
        s = parse_schedule(json.dumps(doc))
    except CollschedError:
        return
    # whatever parses also serializes, and the export parses back
    assert parse_schedule(export(s, "json")) == s
    export(s, "dot")


def test_deep_nesting_is_refused():
    text = "[" * 100_000 + "]" * 100_000
    with pytest.raises(CollschedError):
        parse_topology(text)
    with pytest.raises(CollschedError):
        parse_schedule(text)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    topo = root / "topology.json"
    topo.write_text(json.dumps(TOPOLOGY_DOC))
    return root, str(topo)


def run_cli(capsys, argv) -> int:
    code = main(argv)
    captured = capsys.readouterr()
    if code == 1:
        assert "error:" in captured.err
    return code


@CLI_FUZZ
@given(json_values | mutations(TOPOLOGY_DOC))
def test_cli_optimality_on_any_topology_file(files, capsys, doc):
    root, _ = files
    path = root / "input.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, ["optimality", "-t", str(path)]) in (0, 1)


@CLI_FUZZ
@given(json_values)
def test_cli_schedule_commands_on_any_json(files, capsys, doc):
    root, topo = files
    path = root / "input.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, ["export-dot", str(path)]) in (0, 1)
    assert run_cli(capsys, ["verify", "-t", topo, str(path)]) in (0, 1, 2)
