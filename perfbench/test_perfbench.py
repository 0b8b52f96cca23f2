"""Tests of the benchmark itself, on reduced-size workloads.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def small(name, trace):
    return run.run_workload(name, seed=3, seconds=0, trace=trace, small=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_workload_emits_every_metric(name):
    plain = small(name, trace=False)
    assert plain["correct"]
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    traced = small(name, trace=True)
    assert traced["correct"]
    assert set(traced["metrics"]) == set(tracing.PER_LAYER)
    assert traced["metrics"]["maxflow.flows"]["value"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counters_repeat_exactly(name):
    def counts(trace, keys):
        metrics = small(name, trace)["metrics"]
        return {k: metrics[k]["value"] for k in keys}

    assert counts(True, tracing.COUNTERS) == counts(True, tracing.COUNTERS)
    sizes = ("sched_bytes", "sched_trees")
    assert counts(False, sizes) == counts(False, sizes)


def test_random_mix_reference_is_brute_force():
    import collsched as cs

    inputs = workloads.build(cs, "random-mix", small=True)
    refs = workloads.references(cs, "random-mix", inputs)
    for text, ref in zip(inputs.texts, refs):
        assert ref.inv_x_star == cs.brute_force_bottleneck(cs.parse_topology(text))[0]
    assert any(ref.multi_node_cut for ref in refs)


@pytest.fixture()
def boxes():
    import collsched as cs

    inputs = workloads.build(cs, "boxes-ag", small=True)
    return cs, inputs, workloads.references(cs, "boxes-ag", inputs)


def test_corrupted_schedule_counts_as_failed(boxes, monkeypatch):
    cs, inputs, refs = boxes
    generate = cs.generate

    def corrupted(*args, **kwargs):
        schedule, meta = generate(*args, **kwargs)
        first = schedule.roots[0]
        batch = dataclasses.replace(first.batches[0], multiplicity=first.batches[0].multiplicity + 1)
        root = dataclasses.replace(first, batches=(batch,) + first.batches[1:])
        return dataclasses.replace(schedule, roots=(root,) + schedule.roots[1:]), meta

    monkeypatch.setattr(cs, "generate", corrupted)
    records = measure.run_phase(cs, inputs, refs, [0, 0, 0], 0, {})
    assert [r.outcome for r in records] == [measure.FAILED] * 3


def test_wrong_answers_make_the_run_incorrect(boxes):
    cs, inputs, refs = boxes
    op, text = inputs.ops[0], inputs.texts[0]
    _, result = measure.run_op(cs, op, text)
    assert measure.check(cs, op, text, refs[0], result, {})[0] == measure.VALID
    off = dataclasses.replace(refs[0], inv_x_star=refs[0].inv_x_star + Fraction(1, 7))
    assert measure.check(cs, op, text, off, result, {})[0] == measure.WRONG
    other = {op: "digest of a different export"}
    assert measure.check(cs, op, text, refs[0], result, other)[0] == measure.WRONG


def test_changed_inputs_are_refused(boxes):
    cs, inputs, refs = boxes
    run.check_pins("boxes-ag", workloads.build(cs, "boxes-ag"), refs)
    with pytest.raises(run.Refused):
        run.check_pins("boxes-ag", inputs, refs)


def test_tail_has_ten_ops_beyond():
    assert measure.tail([float(i) for i in range(30)]) == 19.0
    assert measure.tail([3.0, 1.0]) == 3.0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "boxes-ag", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
