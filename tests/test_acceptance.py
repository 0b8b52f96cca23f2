"""Shipping criteria, one test each, exact tolerances.

Every numbered test prints a labelled PASS line with the measured values so
the verbose run reads as a checklist.  Criterion 9 records that the
hardware-cluster throughput comparisons the design targets cannot be
reproduced on a development machine and are covered by criteria 1-8
instead.
"""

import hashlib
import json
import time
from fractions import Fraction

import pytest

from collsched import (
    bottleneck_search,
    brute_force_bottleneck,
    export,
    fixed_k_search,
    generate,
    link_usage,
    pack_spanning_trees,
    remove_switches,
    scale_capacities,
    synth_topology,
    validate_schedule,
)
from collsched.schedule import assemble_allgather, prune_multicast
from collsched.splitting import _GammaOracle

from conftest import CLUSTERED_SEEDS, SUITE_SEEDS, flag_free

BOX1 = frozenset({"c1_1", "c1_2", "c1_3", "c1_4", "w1"})


def test_criterion_1_reference_exactness(fig3a):
    start = time.perf_counter()
    res = bottleneck_search(fig3a)
    oracle, witness = brute_force_bottleneck(fig3a)
    elapsed = time.perf_counter() - start
    assert res.inv_x_star == Fraction(1, 1)
    assert res.k == 1
    assert res.y == Fraction(1)
    assert oracle == res.inv_x_star
    assert witness.S == BOX1
    assert elapsed < 1.0
    print(f"criterion 1: PASS — 1/x* = 1/1, k = 1, y = 1/1, witness = box 1, {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence(random_suite, clustered_suite):
    labelled = [(f"seed {s}", t) for s, t in zip(SUITE_SEEDS, random_suite)]
    labelled += [(f"clustered {s}", t) for s, t in zip(CLUSTERED_SEEDS, clustered_suite)]
    start = time.perf_counter()
    for label, t in labelled:
        searched = bottleneck_search(t).inv_x_star
        brute, _ = brute_force_bottleneck(t)
        assert searched == brute, f"{label}: {searched} != {brute}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 2: PASS — search == enumeration on {len(labelled)} topologies, {elapsed:.1f}s")


def test_criterion_3_end_to_end_optimality(fig3a, random_suite):
    for label, t in [("reference", fig3a)] + list(zip(SUITE_SEEDS, random_suite)):
        s, meta = generate(t)
        report = validate_schedule(s, t, meta)
        assert report.ok, f"{label}: {report.violations}"
        assert report.achieved_T_comm == Fraction(meta.inv_x_star, t.num_compute), label
    print(f"criterion 3: PASS — exact congestion bound met on {1 + len(random_suite)} topologies")


def test_criterion_4_splitting_equivalence(random_suite):
    checked = 0
    for seed, t in zip(SUITE_SEEDS, random_suite):
        if not t.switch_ids:
            continue
        res = bottleneck_search(t)
        scaled = scale_capacities(t, res.U)
        lt, _ = remove_switches(scaled, res.k)
        ratio, _ = brute_force_bottleneck(lt)
        assert ratio * res.U == res.inv_x_star, f"seed {seed}"
        s, meta = generate(flag_free(t))
        for (a, b), units in link_usage(s).items():
            assert units <= meta.U * t.capacity[(a, b)], f"seed {seed}: {a}->{b}"
        checked += 1
    print(f"criterion 4: PASS — optimality preserved on {checked} switch topologies")


def test_criterion_5_split_amount_ground_truth(fig3a):
    res = bottleneck_search(fig3a)
    scaled = scale_capacities(fig3a, res.U)
    oracle = _GammaOracle(scaled, res.k)
    red = oracle.gamma("c1_1", "w0", "c2_1")
    blue = oracle.gamma("c1_3", "w0", "c1_4")
    assert (red, blue) == (1, 0)
    print("criterion 5: PASS — cross-box pairing splits 1 unit, intra-box pairing 0")


def test_criterion_6_fixed_tree_count_bound(random_suite):
    checked = 0
    for seed, t in zip(SUITE_SEEDS, random_suite):
        opt = bottleneck_search(t).inv_x_star
        min_b = min(l.bandwidth for l in t.links)
        achieved = {}
        for k in range(1, 9):
            achieved[k] = fixed_k_search(t, k).inv_x_star
            gap = achieved[k] - opt
            assert 0 <= gap <= Fraction(1, k * min_b), f"seed {seed}, k {k}"
            checked += 1
        for k in (1, 2, 4):
            assert achieved[2 * k] <= achieved[k], f"seed {seed}, k {k}->{2 * k}"
    print(f"criterion 6: PASS — bound and doubling monotonicity on {checked} (topology, k) pairs")


def test_criterion_7_pruning_soundness(fig3a, fig3a_multicast):
    bare, meta = generate(fig3a)
    pruned = prune_multicast(bare, fig3a_multicast)
    report = validate_schedule(pruned, fig3a_multicast, meta)
    assert report.ok, report.violations
    before = link_usage(bare)
    after = link_usage(pruned)
    assert set(after) <= set(before)
    assert all(after[pair] <= before[pair] for pair in after)
    elided = sum(before.values()) - sum(after.values())
    assert elided > 0
    assert report.achieved_T_comm == validate_schedule(bare, fig3a_multicast).achieved_T_comm
    print(f"criterion 7: PASS — {elided} hop units elided, delivery and bottleneck intact")


def digest(obj) -> str:
    """The first 16 hex digits of the sha256 of `obj` as JSON."""
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def test_criterion_8_scalability():
    """The 128-GPU allgather on the path `generate` takes, the switch
    removal seeded with the search's witness, and its forest, EMap and
    exported schedule pinned by digest."""
    t = synth_topology("boxes", boxes=16, gpus_per_box=8, intra=8, inter=1)
    assert t.num_compute == 128 and len(t.switch_ids) == 17
    start = time.perf_counter()
    meta = bottleneck_search(t)
    scaled = scale_capacities(t, meta.U)
    lt, emap = remove_switches(scaled, meta.k, meta.witness)
    forest = pack_spanning_trees(lt, meta.k)
    s = prune_multicast(assemble_allgather(forest, emap, scaled, meta), t)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    m = len(lt.capacity)
    n = lt.num_compute
    assert forest.mu_evaluations <= m * n * n
    report = validate_schedule(s, t, meta)
    assert report.ok, report.violations
    assert report.achieved_T_comm == Fraction(meta.inv_x_star, n)
    batches = [[b.root, b.multiplicity, sorted(b.members), b.edges] for b in forest.batches]
    assert digest(batches) == "718dd933925d8549"
    entries = [[list(arc), list(via.items())] for arc, via in emap.entries.items()]
    assert digest(entries) == "61b29f3afc5d510d"
    data = export(s, "json").encode()
    assert (len(data), hashlib.sha256(data).hexdigest()[:16]) == (742229, "cea8729789edfe0f")
    print(
        f"criterion 8: PASS — 128-node allgather in {elapsed:.1f}s "
        f"(< 300s), {forest.mu_evaluations} growth evaluations <= {m}*{n}^2"
    )


def test_criterion_9_hardware_numbers_out_of_scope():
    pytest.skip(
        "criterion 9: hardware cluster throughput comparisons need real "
        "GPU fabrics; correctness is covered by criteria 1-8"
    )
