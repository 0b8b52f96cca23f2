"""collsched compile benchmark.

    python3 perfbench/run.py --workload boxes-ag --seed 1 --seconds 25 --trace 0

runs one workload in this process and prints, as its last line, a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  Without
`--workload` it runs every workload, each in its own process, and prints
every metric by name, unit and workload.

The library is imported from `src/` of the checkout this file sits in.
Workloads, metrics and predictions are described in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import measure
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PINS = os.path.join(HERE, "pins.json")

# Set-up (import plus building the inputs) is repeated this many times and
# its median reported.
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": ("s", "lower"),
    "compile_s": ("s", "lower"),
    "compile_tail_s": ("s", "lower"),
    "valid_per_s": ("1/s", "higher"),
    "ok_share": ("share", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "sched_bytes": ("bytes", "lower"),
    "sched_trees": ("count", "lower"),
}


class Refused(Exception):
    """The run cannot produce comparable figures; no result is printed."""


def setup(name: str, small: bool):
    """Import collsched and build the workload's inputs, SETUP_REPEATS
    times from a fresh import, with a calibration round before and after
    each; returns (median reference seconds, package, inputs)."""
    times = []
    rounds = [calibrate.calibration_round()]
    for _ in range(SETUP_REPEATS):
        for mod in [m for m in sys.modules if m == "collsched" or m.startswith("collsched.")]:
            del sys.modules[mod]
        start = time.perf_counter()
        import collsched

        inputs = workloads.build(collsched, name, small)
        elapsed = time.perf_counter() - start
        rounds.append(calibrate.calibration_round())
        times.append(elapsed * 2 * calibrate.REFERENCE_ROUND_S / (rounds[-2] + rounds[-1]))
    return statistics.median(times), collsched, inputs


def check_pins(name: str, inputs, refs) -> None:
    """Refuse inputs whose digest differs from the pinned one, and a
    random-mix whose share of multi-node bottlenecks has decayed."""
    with open(PINS, encoding="utf-8") as fh:
        pinned = json.load(fh)[name]
    if inputs.digest() != pinned:
        raise Refused(
            f"{name} inputs have digest {inputs.digest()}, pinned {pinned}; "
            "runs on different inputs are not comparable"
        )
    if name == "random-mix":
        share = sum(r.multi_node_cut for r in refs) / len(refs)
        if share < workloads.MIN_MULTI_NODE_SHARE:
            raise Refused(f"only {share:.2f} of random-mix topologies have a multi-node cut")


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """One workload in this process; returns the result object."""
    setup_s, cs, inputs = setup(name, small)
    refs = workloads.references(cs, name, inputs)
    if not small:
        check_pins(name, inputs, refs)
    print(f"{name}: {len(inputs.texts)} topologies, {len(inputs.ops)} ops per pass, "
          f"inputs sha256 {inputs.digest()}")
    seq = measure.order(inputs, seed)
    seen: dict = {}
    if not trace:
        records = measure.run_phase(cs, inputs, refs, seq, seconds, seen)
        values = measure.end_to_end(records)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}
    else:
        plain = measure.run_phase(cs, inputs, refs, seq, seconds / 2, seen)
        tracer = tracing.Tracer(cs)
        tracer.install()
        try:
            traced = measure.run_phase(
                cs, inputs, refs, seq, seconds / 2, seen, tracer=tracer
            )
        finally:
            tracer.remove()
        values = tracer.per_layer(len(traced) // len(seq))
        values["trace.overhead"] = (
            statistics.median(r.scaled for r in traced)
            / statistics.median(r.scaled for r in plain) - 1
        )
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{name}.jsonl")
        tracer.write(spans_path)
        print(f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
        records = plain + traced
        metrics = {k: {"value": values[k], "unit": u} for k, (u, _) in tracing.PER_LAYER.items()}
    print(f"median op {statistics.median(r.seconds for r in records):.6f} s wall, "
          f"{statistics.median(r.scaled for r in records):.6f} s at reference speed")
    problems = collections.Counter(
        (r.outcome, inputs.ops[r.index].collective, r.detail)
        for r in records
        if r.outcome in (measure.FAILED, measure.WRONG)
    )
    for (outcome, collective, detail), count in sorted(problems.items()):
        print(f"  {count} {collective} ops {outcome}: {detail}", file=sys.stderr)
    return {
        "correct": not any(r.outcome == measure.WRONG for r in records),
        "attempted": len(records),
        "failed": sum(r.outcome in (measure.FAILED, measure.WRONG) for r in records),
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in its own process; prints a metric table."""
    status = 0
    print(f"{'workload':<12} {'metric':<26} {'value':>16} unit")
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:<12} {metric:<26} {m['value']:>16.6g} {m['unit']}")
        print(f"{name:<12} {'correct / attempted / failed':<26} "
              f"{result['correct']!s:>5} {result['attempted']:>5} {result['failed']:>5}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="collsched compile benchmark")
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0, help="orders each pass of ops")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "collsched", "__init__.py")):
        print(f"error: no collsched package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload is None:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
