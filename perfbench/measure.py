"""The closed-loop op runner, its correctness checks and end-to-end metrics.

One caller, one thread: each op is `parse_topology` -> `generate` ->
`validate_schedule` -> `export(..., "json")`, which is `collsched generate`
without disk I/O, and the next op starts only when the previous one is
done.  Library entry points are looked up on the package at call time, so
the tracer's wrappers are seen when installed.  The package is passed in
by the caller, as in `workloads`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import statistics
import time
from fractions import Fraction

from calibrate import REFERENCE_ROUND_S, calibration_round
from workloads import Inputs, OpSpec, Reference

# Outcomes.  VALID and REFUSED are correct answers.  FAILED is an op the
# compiler could not complete: it raised, or returned a schedule its own
# validator rejects (which `collsched generate` refuses to write).  WRONG
# is an answer the validator accepts but an independent reference
# contradicts; it also counts as failed, and makes the run incorrect.
VALID, REFUSED, FAILED, WRONG = "valid", "refused", "failed", "wrong"

# compile_tail_s is the highest per-op time with this many ops beyond it.
TAIL_BEYOND = 10
# A calibration round runs between ops once this much op time has passed
# since the last one; each op is scaled by the mean of the rounds just
# before and just after it.
CALIBRATE_EVERY_S = 0.25


@dataclasses.dataclass
class OpRecord:
    """One attempted op.  `scaled` is its wall `seconds` at the reference
    speed (see calibrate), set once the round after the op has run."""

    index: int
    seconds: float
    outcome: str
    detail: str = ""
    sched_bytes: int = 0
    sched_trees: int = 0
    scaled: float = 0.0


def run_op(cs, op: OpSpec, text: str):
    """Compile once.  Returns (seconds, result), where result is (topology,
    schedule, meta, validation report, exported json) or the exception
    raised."""
    start = time.perf_counter()
    try:
        t = cs.parse_topology(text)
        schedule, meta = cs.generate(t, op.collective, fixed_k=op.fixed_k)
        report = cs.validate_schedule(schedule, t, meta)
        data = cs.export(schedule, "json")
    except Exception as exc:  # every failure is data for the metrics
        return time.perf_counter() - start, exc
    return time.perf_counter() - start, (t, schedule, meta, report, data)


def batches(schedule) -> int:
    """Schedule batches: the distinct tree shapes a runtime executes."""
    if schedule.phases:
        return sum(batches(p) for p in schedule.phases)
    return sum(len(rt.batches) for rt in schedule.roots)


def _refusal_holds(cs, text: str, exc) -> bool:
    """A fixed-k refusal is right iff floor(U*b) really is unbalanced."""
    t = cs.parse_topology(text)
    U = exc.result.U_star
    balance = {n.id: 0 for n in t.nodes}
    for (a, b), bw in t.capacity.items():
        c = (U.numerator * bw) // U.denominator
        balance[a] -= c
        balance[b] += c
    return any(balance.values())


def check(cs, op: OpSpec, text: str, ref: Reference, result, seen: dict) -> tuple[str, str, int, int]:
    """Classify one op's result against its reference.

    Returns (outcome, detail, exported bytes, schedule batches).
    `seen` maps an op's identity to the digest of its first export, so
    repeats must be byte-identical.
    """
    if isinstance(result, Exception):
        if op.fixed_k is not None and isinstance(result, cs.NotEulerianAfterFloor):
            if _refusal_holds(cs, text, result):
                return REFUSED, "", 0, 0
            return WRONG, "refused a balanced floor", 0, 0
        return FAILED, f"{type(result).__name__}: {result}", 0, 0
    _, schedule, meta, report, data = result
    size, trees = len(data.encode()), batches(schedule)
    digest = hashlib.sha256(data.encode()).hexdigest()
    if seen.setdefault(op, digest) != digest:
        return WRONG, "export differs from an earlier repeat", size, trees
    if not report.ok:
        kinds = sorted({v.kind for v in report.violations}) or ["time above bound"]
        return FAILED, "validation: " + ", ".join(kinds), size, trees
    if op.fixed_k is None:
        if report.achieved_T_comm != report.bound_T_comm:
            return WRONG, "achieved time differs from the bound", size, trees
        if meta.inv_x_star != ref.inv_x_star:
            return WRONG, f"inv_x_star {meta.inv_x_star} != reference {ref.inv_x_star}", size, trees
    else:
        slack = Fraction(1, op.fixed_k * ref.min_bandwidth)
        if not ref.inv_x_star <= meta.inv_x_star <= ref.inv_x_star + slack:
            return WRONG, f"fixed-k ratio {meta.inv_x_star} outside the bound", size, trees
    return VALID, "", size, trees


def order(inputs: Inputs, seed: int) -> list[int]:
    """One pass over every op, in an order drawn from the run's seed."""
    indices = list(range(len(inputs.ops)))
    random.Random(seed).shuffle(indices)
    return indices


def run_phase(cs, inputs, refs, seq, seconds, seen, tracer=None) -> list[OpRecord]:
    """Run whole passes over `seq`, so that every op weighs the same in
    every metric, until the elapsed time is the nearest a pass boundary
    gets to `seconds`."""
    records: list[OpRecord] = []
    start = time.perf_counter()
    opened, unscaled, since_round = calibration_round(), 0, 0.0

    def close_round():
        nonlocal opened, unscaled, since_round
        closed = calibration_round()
        factor = 2 * REFERENCE_ROUND_S / (opened + closed)
        for r in records[unscaled:]:
            r.scaled = r.seconds * factor
        opened, unscaled, since_round = closed, len(records), 0.0

    while True:
        done = len(records)
        if done and done % len(seq) == 0:
            wall = time.perf_counter() - start
            if wall + wall / (done // len(seq)) / 2 >= seconds:
                close_round()
                return records
        if since_round >= CALIBRATE_EVERY_S:
            close_round()
        i = seq[done % len(seq)]
        op = inputs.ops[i]
        if tracer is not None:
            tracer.op = done
        op_seconds, result = run_op(cs, op, inputs.texts[op.topo])
        since_round += op_seconds
        outcome, detail, size, trees = check(cs, op, inputs.texts[op.topo], refs[op.topo], result, seen)
        records.append(OpRecord(i, op_seconds, outcome, detail, size, trees))


def tail(seconds) -> float:
    """Highest time with TAIL_BEYOND times above it (the highest time when
    there are no more than TAIL_BEYOND)."""
    ranked = sorted(seconds)
    return ranked[-TAIL_BEYOND - 1] if len(ranked) > TAIL_BEYOND else ranked[-1]


def end_to_end(records: list[OpRecord]) -> dict[str, float]:
    """Every end-to-end metric except setup_s and peak_rss_mb.  Times are
    scaled to the reference speed.  The tail and the throughput take each
    distinct op at its median time, so they describe one pass, and one slow
    repeat does not move them."""
    failed = sum(r.outcome in (FAILED, WRONG) for r in records)
    repeats: dict[int, list[OpRecord]] = {}
    for r in records:
        repeats.setdefault(r.index, []).append(r)
    typical = [statistics.median(r.scaled for r in rs) for rs in repeats.values()]
    valid_per_pass = sum(r.outcome == VALID for r in records) * len(repeats) / len(records)
    return {
        "compile_s": statistics.median(r.scaled for r in records),
        "compile_tail_s": tail(typical),
        "valid_per_s": valid_per_pass / sum(typical),
        "ok_share": 1 - failed / len(records),
        "sched_bytes": sum(rs[0].sched_bytes for rs in repeats.values()),
        "sched_trees": sum(rs[0].sched_trees for rs in repeats.values()),
    }
