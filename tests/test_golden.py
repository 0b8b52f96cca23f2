"""Exported schedules pinned byte for byte.

Each pin in `export_digests.json` is the sha256 of
`export(generate(t, collective, fixed_k=k), "json")`, keyed
`<topology>/<collective>/<k or ->`, for every collective and k in
(None, 2, 3) on the topologies `topology` names.  Only ops whose schedule
validates carry a pin: fixed-k refusals and the reduce-scatter/allreduce
schedules that overdraw asymmetric links are left out (of the 135 ops at
k = 3, 53 carry one).  A change meant to leave the compiled schedules
alone keeps every digest.  Every pinned op's export also parses back to
the schedule it was written from.
"""

import dataclasses
import hashlib
import json
import pathlib

import pytest

from collsched import (
    SWITCH,
    NotEulerianAfterFloor,
    Topology,
    export,
    generate,
    parse_schedule,
    random_eulerian_topology,
    synth_topology,
    validate_schedule,
)

from conftest import clustered_eulerian_topology

PINS: dict[str, str] = json.loads(
    pathlib.Path(__file__).with_name("export_digests.json").read_text()
)
SUITE_PREFIX = 20


def _capable(t: Topology) -> Topology:
    nodes = [
        dataclasses.replace(n, multicast=True, aggregation=True) if n.kind == SWITCH else n
        for n in t.nodes
    ]
    return Topology(nodes, t.links)


def topology(name: str) -> Topology:
    """The topology an op key names: a fixed reference network, or
    `random<seed>` / `clustered<seed>` from the seeded suites."""
    fig3a = synth_topology("boxes", boxes=2, gpus_per_box=4, intra=10, inter=1)
    fixed = {
        "fig3a": lambda: fig3a,
        "fig3a_multicast": lambda: _capable(fig3a),
        "ring4": lambda: synth_topology("ring", n=4, bw=1),
        "boxes3x3": lambda: _capable(
            synth_topology("boxes", boxes=3, gpus_per_box=3, intra=8, inter=1)
        ),
        "fattree2x4": lambda: _capable(
            synth_topology("fat-tree", pods=2, gpus=4, spines=4, leaf_bw=4, spine_bw=3)
        ),
    }
    if name in fixed:
        return fixed[name]()
    if name.startswith("random"):
        return random_eulerian_topology(int(name[len("random"):]))
    return clustered_eulerian_topology(int(name[len("clustered"):]))


def compile_op(t: Topology, collective: str, fixed_k: int | None):
    """The op's schedule, or None when the op is refused or its schedule
    does not validate."""
    try:
        s, meta = generate(t, collective, fixed_k=fixed_k)
    except NotEulerianAfterFloor:
        return None
    return s if validate_schedule(s, t, meta).ok else None


def digest(t: Topology, collective: str, fixed_k: int | None):
    """sha256 of the exported schedule, or None as in `compile_op`."""
    s = compile_op(t, collective, fixed_k)
    return None if s is None else hashlib.sha256(export(s, "json").encode()).hexdigest()


def pinned_ops(name: str):
    """(key, collective, fixed_k, pin) of every pinned op on `name`."""
    for key, pin in sorted(PINS.items()):
        topo, collective, k = key.split("/")
        if topo == name:
            yield key, collective, None if k == "-" else int(k), pin


NAMES = sorted({key.split("/")[0] for key in PINS})


def test_pins_cover_every_topology():
    expected = {"fig3a", "fig3a_multicast", "ring4", "boxes3x3", "fattree2x4"}
    expected |= {f"random{i}" for i in range(SUITE_PREFIX)}
    expected |= {f"clustered{i}" for i in range(SUITE_PREFIX)}
    assert set(NAMES) == expected


@pytest.mark.parametrize("name", NAMES)
def test_exported_bytes_match_pins(name):
    t = topology(name)
    for key, collective, fixed_k, pin in pinned_ops(name):
        assert digest(t, collective, fixed_k) == pin, key


@pytest.mark.parametrize("name", NAMES)
def test_export_round_trips(name):
    t = topology(name)
    for key, collective, fixed_k, _ in pinned_ops(name):
        s = compile_op(t, collective, fixed_k)
        assert parse_schedule(export(s, "json")) == s, key
