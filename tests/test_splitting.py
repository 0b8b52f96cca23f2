"""Switch removal: split amounts, invariant preservation, path recovery."""

import hashlib
import itertools
import json
import random

import pytest

from collsched import (
    COMPUTE,
    SWITCH,
    FlowGraph,
    Link,
    Node,
    Topology,
    bottleneck_search,
    random_eulerian_topology,
    remove_switches,
    scale_capacities,
    synth_topology,
    validate,
)
from collsched.errors import CapacityExhausted, CollschedError, NotEulerianAfterFloor, StuckSplit
from collsched.maxflow import fresh_name
from collsched.splitting import EMap, PathExpander, _GammaOracle
from conftest import clustered_eulerian_topology
from reference_expander import ReferenceExpander


def tiny_relay():
    """a -> w -> b -> a with unit capacity after scaling (U = 1/2, k = 1)."""
    t = Topology(
        [Node("a", COMPUTE), Node("b", COMPUTE), Node("w", SWITCH)],
        [Link("a", "w", 2), Link("w", "b", 2), Link("b", "a", 2)],
    )
    res = bottleneck_search(t)
    return scale_capacities(t, res.U), res


def supports_full_flow(lt, k) -> bool:
    """True iff N*k units still flow from an auxiliary source to every
    compute node of the logical graph — the invariant splits must keep."""
    source = fresh_name("s", lt.compute_ids)
    arcs = [(a, b, c) for (a, b), c in lt.capacity.items()]
    arcs += [(source, c, k) for c in lt.compute_ids]
    g = FlowGraph([*lt.compute_ids, source], arcs)
    target = lt.num_compute * k
    return all(g.run([source], [c], limit=target) >= target for c in lt.compute_ids)


def enumerated_gamma(net: Topology, k: int, u: str, w: str, t: str) -> int:
    """The split amount of (u, w),(w, t) by enumeration of vertex sets,
    without any flow computation.

    The N*k invariant holds iff every set X meeting the compute nodes C has
    slack(X) = in(X) - k*|C - X| >= 0.  Splitting g units takes g from
    in(X) exactly when X holds w but neither u nor t, or holds u and t but
    not w; every other X keeps its in-capacity.  So the amount is
    max(0, min(c(u,w), c(w,t), min slack(X) over those X)).
    """
    caps = net.capacity
    compute = set(net.compute_ids)
    free = [n.id for n in net.nodes if n.id not in (u, w, t)]
    best = min(caps.get((u, w), 0), caps.get((w, t), 0))
    for r in range(len(free) + 1):
        for rest in itertools.combinations(free, r):
            for X in ({w, *rest}, {u, t, *rest}):
                if X & compute:
                    inflow = sum(c for (a, b), c in caps.items() if a not in X and b in X)
                    best = min(best, inflow - k * len(compute - X))
    return max(best, 0)


def small_switched_suite():
    """Topologies of at most 10 nodes with a switch, from both generators."""
    suite = [random_eulerian_topology(seed) for seed in range(120)]
    suite += [clustered_eulerian_topology(seed, max_nodes=9) for seed in range(120)]
    return [t for t in suite if t.switch_ids and len(t.nodes) <= 10]


def apply_split(net: Topology, u: str, w: str, t: str, amount: int) -> Topology:
    """net with `amount` units of (u, w),(w, t) replaced by (u, t)."""
    caps = dict(net.capacity)
    for pair in ((u, w), (w, t)):
        caps[pair] -= amount
    if u != t:
        caps[(u, t)] = caps.get((u, t), 0) + amount
    return Topology(net.nodes, [Link(a, b, c) for (a, b), c in caps.items() if c > 0])


def exact_removal(scaled: Topology, k: int) -> tuple[Topology, EMap]:
    """`remove_switches` without the certificate: every split amount from
    the oracle's gamma, on one oracle."""
    oracle = _GammaOracle(scaled, k)
    emap = oracle.dissolve(oracle.gamma)
    return oracle.remainder(), emap


def removal_record(lt: Topology, emap: EMap) -> tuple:
    """A removal's links and its EMap, both in insertion order."""
    return lt.links, [(arc, list(via.items())) for arc, via in emap.entries.items()]


class TestComputeGamma:
    def test_reference_pairings(self, fig3a):
        res = bottleneck_search(fig3a)
        scaled = scale_capacities(fig3a, res.U)
        oracle = _GammaOracle(scaled, res.k)
        red = oracle.gamma("c1_1", "w0", "c2_1")
        blue = oracle.gamma("c1_3", "w0", "c1_4")
        assert (red, blue) == (1, 0)

    def test_capped_by_arc_capacities(self):
        scaled, res = tiny_relay()
        assert _GammaOracle(scaled, res.k).gamma("a", "w", "b") == 1

    def test_absent_arcs_give_zero(self):
        scaled, res = tiny_relay()
        assert _GammaOracle(scaled, res.k).gamma("b", "w", "b") == 0

    def test_matches_cut_enumeration_through_a_removal(self, monkeypatch):
        """The oracle's gamma equals the enumerated amount for every pairing at
        the switch being removed, on the scaled network and after each
        split of a greedy removal (first egress head, then first tail with
        a positive amount, cyclically from the head as remove_switches
        orders them).  The pairings run shared-residual resumes, some of
        which stop short of the room."""
        resumes = {"calls": 0, "short": 0}
        resume = FlowGraph.resume

        def counted(self, state, sources, sink, limit):
            pushed = resume(self, state, sources, sink, limit)
            resumes["calls"] += 1
            resumes["short"] += pushed < limit
            return pushed

        monkeypatch.setattr(FlowGraph, "resume", counted)
        checked = 0
        for t in small_switched_suite():
            res = bottleneck_search(t)
            net = scale_capacities(t, res.U)
            for w in t.switch_ids:
                while heads := sorted(b for (a, b) in net.capacity if a == w):
                    tails = sorted(
                        (a for (a, b) in net.capacity if b == w),
                        key=lambda a: (a == heads[0], a < heads[0], a),
                    )
                    split = None
                    oracle = _GammaOracle(net, res.k)
                    for u in tails:
                        for head in heads:
                            got = oracle.gamma(u, w, head)
                            assert got == enumerated_gamma(net, res.k, u, w, head), (t, u, w, head)
                            checked += 1
                            if split is None and head == heads[0] and got > 0:
                                split = (u, got)
                    assert split is not None, (t, w, heads[0])
                    net = apply_split(net, split[0], w, heads[0], split[1])
        assert checked > 1000
        assert resumes["calls"] > 0 and resumes["short"] > 0, resumes


def flow_gamma(oracle, u, w, t) -> int:
    """γ of (u, w),(w, t) by the flows alone: on a fresh oracle of the
    network the oracle's graph holds, with no kept set and no witness."""
    links = [Link(a, b, c) for a, b, c in oracle.graph.arcs() if a != oracle.source]
    k = oracle.target // len(oracle.compute_ids)
    return _GammaOracle(Topology(oracle.net.nodes, links), k).gamma(u, w, t)


class TestTightSets:
    def test_certified_zeros_equal_the_flows(self, random_suite, monkeypatch):
        """On the small switched suite, the random suite and the boxes
        networks 8x4 and 16x8, removed with the search's witness and
        without it, every pairing with an amount to take that the kept
        tight set answers is 0 by the flows too, on a fresh oracle of the
        network as it stands, in either pass; and the kept set holds the
        source, misses a compute node and has capacity N*k when its oracle
        is built and still when its removal ends: no split raises a cut.
        Without the witness no set is kept."""
        suites = {
            "small": small_switched_suite(),
            "random": random_suite,
            "boxes": [
                synth_topology("boxes", boxes=b, gpus_per_box=g, intra=8, inter=1)
                for b, g in ((8, 4), (16, 8))
            ],
        }
        init, separated = _GammaOracle.__init__, _GammaOracle._separated
        seen = {
            (suite, seeded): {"certified": 0, "kept": 0}
            for suite in suites
            for seeded in (False, True)
        }

        def tight(oracle):
            X, g = oracle.tight, oracle.graph
            assert oracle.source in X and not X.issuperset(oracle.compute_ids), X
            assert sum(c for a, b, c in g.arcs() if a in X and b not in X) == oracle.target, X

        def built(oracle, *args):
            init(oracle, *args)
            if oracle.tight is not None:
                tight(oracle)
                oracles.append(oracle)
                seen[run]["kept"] += 1

        def checked(oracle, u, w, t):
            answered = separated(oracle, u, w, t)
            if answered and oracle.cap(u, w, t) > 0:
                assert flow_gamma(oracle, u, w, t) == 0, (u, w, t)
                seen[run]["certified"] += 1
            return answered

        oracles = []
        monkeypatch.setattr(_GammaOracle, "__init__", built)
        monkeypatch.setattr(_GammaOracle, "_separated", checked)
        for suite, nets in suites.items():
            for t in nets:
                res = bottleneck_search(t)
                for seeded in (False, True):
                    run = (suite, seeded)
                    remove_switches(scale_capacities(t, res.U), res.k, res.witness if seeded else ())
        for oracle in oracles:
            tight(oracle)
        # Seeded, every oracle keeps its witness, and the boxes certify
        # with one oracle each, whose witness answers 34 zeros in the cap
        # passes.
        assert all(seen[suite, False] == {"certified": 0, "kept": 0} for suite in suites), seen
        assert all(seen[suite, True]["kept"] > 0 for suite in suites), seen
        assert seen["boxes", True] == {"certified": 34, "kept": 2}, seen


def margin(g, u, w, t) -> int:
    """L of the pairing (u, w),(w, t) on the flow graph g, worked out from
    g's arcs alone: c(u,w) + c(t,w) + c(w,u) + c(w,t) - in(w), or
    c(u,w) + c(w,u) - in(w) when u == t."""
    inflow = sum(c for _, b, c in g.arcs() if b == w)
    ends = [u] if u == t else [u, t]
    return sum(g.capacity(v, w) + g.capacity(w, v) for v in ends) - inflow


class TestTheBound:
    def test_settled_gammas_equal_the_flows(self, random_suite, monkeypatch):
        """On the exact removal (a certified one asks no γ) of the small
        switched suite, the random suite, the boxes networks 8x4 and 16x8,
        the CI fat-tree and a fat-tree whose leaves pair with the spine,
        every γ with L >= min(c(u,w), c(w,t)) > 0 is that min with no flow,
        and the flows (run with the gate switched off) give it too; every
        other positive γ that the kept tight set (one set, or None) does
        not answer runs a flow.  L is worked out from the graph's arcs
        alone, so this holds also where loop pairings at one switch lower
        another's in(w), as the leaves' do at the spine.  Every suite
        settles some γ this way, and the split that drains each switch
        never needs a flow: there in(w) = c(u,w) = c(w,t), so L >= c(w,t)."""
        suites = {
            "small": small_switched_suite(),
            "random": random_suite,
            "boxes": [
                synth_topology("boxes", boxes=b, gpus_per_box=g, intra=8, inter=1)
                for b, g in ((8, 4), (16, 8))
            ],
            "fat-tree": [
                synth_topology("fat-tree", pods=4, gpus=8, spines=2, leaf_bw=4, spine_bw=3)
            ],
            "spine loops": [
                synth_topology("fat-tree", pods=2, gpus=4, spines=1, leaf_bw=1, spine_bw=3)
            ],
        }
        gamma, split, run_keep = _GammaOracle.gamma, _GammaOracle.split, FlowGraph.run_keep
        flows = [0]
        settled = dict.fromkeys(suites, 0)
        latest = [None]  # the last γ asked: (u, w, t, whether it ran a flow)
        last = {}  # switch -> whether the γ behind its latest split ran a flow

        def counted(self, *args, **kwargs):
            flows[0] += 1
            return run_keep(self, *args, **kwargs)

        def checked(oracle, u, w, t):
            g = oracle.graph
            best = min(g.capacity(u, w), g.capacity(w, t))
            bound = best > 0 and margin(g, u, w, t) >= best
            X = oracle.tight
            separated = X is not None and (u in X) == (t in X) != (w in X)
            holds = oracle.invariant_holds  # its flows run once, when first read
            before = flows[0]
            got = gamma(oracle, u, w, t)
            ran = flows[0] > before
            if bound:
                assert holds
                assert (got, ran) == (best, False), (u, w, t)
                oracle.invariant_holds = False
                try:
                    assert gamma(oracle, u, w, t) == best, (u, w, t)
                finally:
                    oracle.invariant_holds = True
                settled[suite] += 1
            elif best > 0 and not separated:
                assert ran, (u, w, t)
            latest[0] = (u, w, t, ran)
            return got

        def splits(oracle, u, w, t, amount, emap):
            assert latest[0][:3] == (u, w, t)
            last[w] = latest[0][3]
            split(oracle, u, w, t, amount, emap)

        monkeypatch.setattr(FlowGraph, "run_keep", counted)
        monkeypatch.setattr(_GammaOracle, "gamma", checked)
        monkeypatch.setattr(_GammaOracle, "split", splits)
        for suite, nets in suites.items():
            for t in nets:
                res = bottleneck_search(t)
                last.clear()
                exact_removal(scale_capacities(t, res.U), res.k)
                assert set(last) == set(t.switch_ids) and not any(last.values()), (t, last)
        # 16 of the CI fat-tree's 38 positive γ; 17 and 33 on the boxes; 7
        # on the fat-tree whose leaves' loop pairings lower the spine's in(w)
        assert all(settled.values()), settled
        assert settled["fat-tree"] == 16 and settled["boxes"] == 50, settled
        assert settled["spine loops"] == 7, settled

    def test_a_failing_invariant_settles_nothing(self):
        # c receives 2 of the 3 units the invariant asks for; (a, w),(w, b)
        # has L = 1 + 0 + 0 + 1 - 1 = 1 = min(1, 1), but γ is 0
        t = Topology(
            [Node("a", COMPUTE), Node("b", COMPUTE), Node("c", COMPUTE), Node("w", SWITCH)],
            [Link("a", "w", 1), Link("w", "b", 1), Link("b", "a", 1), Link("a", "c", 1)],
        )
        oracle = _GammaOracle(t, 1)
        assert margin(oracle.graph, "a", "w", "b") == 1
        assert not oracle.invariant_holds
        assert oracle.gamma("a", "w", "b") == 0

    def test_the_gate_is_every_compute_node_at_n_k(self, random_suite):
        """The gate agrees with one flow per compute node, at the tree count
        the search found and at one more, where it fails."""
        outcomes = set()
        for t in random_suite[:40]:
            res = bottleneck_search(t)
            for k in (res.k, res.k + 1):
                oracle = _GammaOracle(scale_capacities(t, res.U), k)
                g, s, target = oracle.graph, oracle.source, oracle.target
                want = all(g.run([s], [v], limit=target) == target for v in t.compute_ids)
                assert oracle.invariant_holds == want, (t, k)
                outcomes.add(want)
        assert outcomes == {True, False}


class TestRemoveSwitches:
    def test_tiny_relay_becomes_direct(self):
        scaled, res = tiny_relay()
        lt, emap = remove_switches(scaled, res.k)
        assert lt.capacity == {("a", "b"): 1, ("b", "a"): 1}
        assert emap.entries == {("a", "b"): {"w": 1}}

    def test_rejects_bad_k(self):
        # the network is only dissolved for a real tree count
        scaled, _ = tiny_relay()
        for k in (0, 2.5, True):
            with pytest.raises(CollschedError, match=f"got {k!r}"):
                remove_switches(scaled, k)

    def test_switch_free_input_is_untouched(self, ring4):
        res = bottleneck_search(ring4)
        scaled = scale_capacities(ring4, res.U)
        lt, emap = remove_switches(scaled, res.k)
        assert lt.capacity == scaled.capacity
        assert emap.entries == {}

    def test_logical_graphs_keep_the_invariants(self, random_suite):
        for t in random_suite[:80]:
            res = bottleneck_search(t)
            scaled = scale_capacities(t, res.U)
            lt, emap = remove_switches(scaled, res.k)
            switches = set(t.switch_ids)
            # compute-only, positive capacities, no self-loops
            assert set(lt.compute_ids) == set(t.compute_ids)
            for (a, b), c in lt.capacity.items():
                assert c > 0 and a != b
                assert a not in switches and b not in switches
            # balanced (the packing step needs Eulerian logical graphs)
            assert validate(lt).ok
            # the N*k feasibility certificate survives every split
            assert supports_full_flow(lt, res.k)
            # recovery entries only route through real switches; entries for
            # arcs with switch endpoints are intermediate (they were consumed
            # by a later dissolution and are resolved recursively)
            for (u, v), ways in emap.entries.items():
                if u not in switches and v not in switches:
                    assert (u, v) in lt.capacity
                for w, amount in ways.items():
                    assert w in switches and amount > 0

    def test_same_optimal_ratio_survives(self, random_suite):
        from collsched import brute_force_bottleneck
        from fractions import Fraction

        for t in random_suite[:40]:
            if not t.switch_ids:
                continue
            res = bottleneck_search(t)
            scaled = scale_capacities(t, res.U)
            lt, _ = remove_switches(scaled, res.k)
            ratio, _ = brute_force_bottleneck(lt)
            assert ratio * res.U == res.inv_x_star

    def test_deterministic(self, random_suite):
        for t in random_suite[:20]:
            res = bottleneck_search(t)
            scaled = scale_capacities(t, res.U)
            lt1, em1 = remove_switches(scaled, res.k)
            lt2, em2 = remove_switches(scaled, res.k)
            assert lt1.capacity == lt2.capacity
            assert em1.entries == em2.entries

    @pytest.mark.parametrize(
        "boxes, gpus, arcs", [(2, 3, 12), (3, 3, 18), (4, 2, 16), (8, 4, 64)]
    )
    def test_boxes_split_arc_for_arc(self, boxes, gpus, arcs):
        """Each egress head scans its tails cyclically from itself, so on
        the symmetric boxes networks every switch egress arc drains from
        one tail in one split: one logical arc, routed through one switch,
        per egress arc."""
        t = synth_topology("boxes", boxes=boxes, gpus_per_box=gpus, intra=8, inter=1)
        res = bottleneck_search(t)
        scaled = scale_capacities(t, res.U)
        egress = [(a, b) for a, b in scaled.capacity if a in scaled.switch_ids]
        lt, emap = remove_switches(scaled, res.k)
        assert len(egress) == len(lt.capacity) == len(emap.entries) == arcs
        assert all(len(via) == 1 for via in emap.entries.values())


def counted_oracles(monkeypatch) -> list:
    """A list that gains an entry for every `_GammaOracle` built."""
    oracles = []
    init = _GammaOracle.__init__

    def counted(self, *args):
        oracles.append(1)
        init(self, *args)

    monkeypatch.setattr(_GammaOracle, "__init__", counted)
    return oracles


def boxes_removal(boxes, gpus, intra):
    """A `boxes` network with inter 1 at its optimum: (scaled, search result)."""
    t = synth_topology("boxes", boxes=boxes, gpus_per_box=gpus, intra=intra, inter=1)
    res = bottleneck_search(t)
    return scale_capacities(t, res.U), res


class TestCertificate:
    def test_removal_equals_the_exact_one(self, random_suite, clustered_suite, monkeypatch):
        """remove_switches gives the exact removal's links and EMap, in
        insertion order, whether the cap-only pass is certified (one
        oracle) or falls back (two), with the search's witness and without
        it: the random and clustered suites at the optimal k and fixed
        k = 1-4, boxes 2-16 and fat-trees of 4, 8 and 16 pods.  Both paths
        run both ways, the witness never adds an oracle, and it saves the
        exact pass of some removals."""
        from collsched import fixed_k_search

        oracles = counted_oracles(monkeypatch)
        runs = []
        for t in random_suite + clustered_suite:
            runs.append((t, bottleneck_search(t)))
            runs += [(t, fixed_k_search(t, k)) for k in range(1, 5)]
        for b in (2, 4, 8, 16):
            t = synth_topology("boxes", boxes=b, gpus_per_box=4, intra=8, inter=1)
            runs.append((t, bottleneck_search(t)))
        for pods in (4, 8, 16):
            t = synth_topology("fat-tree", pods=pods, gpus=4 * pods, spines=4, leaf_bw=4, spine_bw=3)
            runs.append((t, bottleneck_search(t)))
        passes = {witness: {1: 0, 2: 0} for witness in (False, True)}
        saved = 0
        for t, res in runs:
            if not t.switch_ids:
                continue
            scaled = scale_capacities(t, res.U)
            try:
                remove_switches(scaled, res.k)
            except NotEulerianAfterFloor:
                with pytest.raises(NotEulerianAfterFloor):
                    remove_switches(scaled, res.k, res.witness)
                continue
            exact = removal_record(*exact_removal(scaled, res.k))
            built = {}
            for witness in (False, True):
                oracles.clear()
                got = remove_switches(scaled, res.k, res.witness if witness else frozenset())
                built[witness] = len(oracles)
                passes[witness][len(oracles)] += 1
                assert removal_record(*got) == exact, (t, witness)
            assert built[True] <= built[False], t
            saved += built[True] < built[False]
        assert passes[False][1] >= 1000 and passes[False][2] >= 10, passes
        assert passes[True][2] >= 10 and saved >= 3, (passes, saved)

    @pytest.mark.parametrize(
        "boxes, gpus, intra, oracles",
        [(3, 2, 2, 1), (8, 4, 8, 1), (16, 8, 8, 1), (2, 2, 2, 2), (4, 8, 8, 2)],
    )
    def test_the_witness_certifies_the_boxes(self, boxes, gpus, intra, oracles, monkeypatch):
        """The search's witness leaves out whole boxes on boxes 3x2, 8x4 and
        16x8, so the same-box pairings it separates take 0 in the cap pass
        and the cap-only certificate holds.  Boxes 2x2 and 4x8 still fall
        back (4x8's witness leaves out a single GPU).  Either way the
        removal is the exact one."""
        scaled, res = boxes_removal(boxes, gpus, intra)
        built = counted_oracles(monkeypatch)
        got = remove_switches(scaled, res.k, res.witness)
        assert len(built) == oracles
        assert removal_record(*got) == removal_record(*exact_removal(scaled, res.k))

    def test_a_stalled_cap_pass_falls_back(self, monkeypatch):
        """On boxes 2x2 (intra 8), the witness's zeros leave an egress arc
        of the NIC switch that no tail may drain: the seeded cap pass
        stalls, which counts as a failed certificate, and the exact pass
        gives the exact removal with no StuckSplit escaping."""
        scaled, res = boxes_removal(2, 2, 8)
        stalls = []
        dissolve = _GammaOracle.dissolve

        def watched(oracle, amount):
            try:
                return dissolve(oracle, amount)
            except StuckSplit:
                stalls.append(amount.__name__)
                raise

        monkeypatch.setattr(_GammaOracle, "dissolve", watched)
        got = remove_switches(scaled, res.k, res.witness)
        assert stalls == ["cap"]
        assert removal_record(*got) == removal_record(*exact_removal(scaled, res.k))

    def test_an_untrusted_witness_is_ignored(self, monkeypatch):
        """A witness that is not a tight set of the network is not kept
        when the oracle is built (`tight` is None), and the removal is the
        exact one with no error:
        - a fixed-k witness whose floored exits exceed k*|S ∩ C|
          (random_eulerian_topology(18) at k = 3), whose zeros would change
          the removal;
        - the set of every node but the NIC switch of boxes 2x2 (intra 2),
          of capacity in(w0) = N*k but holding every compute node, whose
          zeros would stall both passes;
        - boxes 8x4's own witness with an unknown id added, which would
          certify the removal with one oracle."""
        from collsched import fixed_k_search

        t = random_eulerian_topology(18)
        res = fixed_k_search(t, 3)
        scaled = scale_capacities(t, res.U)
        exits = sum(c for (a, b), c in scaled.capacity.items() if a in res.witness and b not in res.witness)
        assert exits > res.k * sum(c in res.witness for c in t.compute_ids)
        cases = [(scaled, res.k, res.witness, 1)]

        scaled, res = boxes_removal(2, 2, 2)
        assert scaled.in_bw["w0"] == res.k * scaled.num_compute
        cases.append((scaled, res.k, frozenset(scaled.node_by_id) - {"w0"}, 2))

        scaled, res = boxes_removal(8, 4, 8)
        cases.append((scaled, res.k, res.witness | {"nowhere"}, 2))
        cases.append((scaled, res.k, frozenset(), 2))

        init = _GammaOracle.__init__
        kept = []

        def built(oracle, *args):
            init(oracle, *args)
            kept.append(oracle.tight)

        monkeypatch.setattr(_GammaOracle, "__init__", built)
        for scaled, k, witness, oracles in cases:
            kept.clear()
            got = remove_switches(scaled, k, witness)
            assert kept == [None] * oracles, witness
            assert removal_record(*got) == removal_record(*exact_removal(scaled, k)), witness

    def test_the_removals_are_pinned(self, monkeypatch):
        """remove_switches, seeded with the search's witness, gives the
        remainders and EMaps, in insertion order, that this digest pins:
        boxes 2x8, 3x8, 4x8 and 8x8 at intra 8, inter 1, whose optimal-k
        removals fall back to the exact pass, and random_eulerian_topology
        0-199, each network with switches at the optimal k and fixed
        k = 1, 2.  One sha256 over each removal's links and EMap, or
        b"refused" for a NotEulerianAfterFloor, so no split of either pass
        may move."""
        from collsched import fixed_k_search

        nets = [synth_topology("boxes", boxes=b, gpus_per_box=8, intra=8, inter=1) for b in (2, 3, 4, 8)]
        nets += [random_eulerian_topology(seed) for seed in range(200)]
        oracles = counted_oracles(monkeypatch)
        digest = hashlib.sha256()
        count = {"removals": 0, "refused": 0, "fallbacks": 0}
        for t in nets:
            if not t.switch_ids:
                continue
            for res in (bottleneck_search(t), fixed_k_search(t, 1), fixed_k_search(t, 2)):
                oracles.clear()
                try:
                    lt, emap = remove_switches(scale_capacities(t, res.U), res.k, res.witness)
                except NotEulerianAfterFloor:
                    digest.update(b"refused")
                    count["refused"] += 1
                    continue
                count["removals"] += 1
                count["fallbacks"] += len(oracles) == 2
                links = [[l.src, l.dst, l.bandwidth] for l in lt.links]
                entries = [[list(arc), list(via.items())] for arc, via in emap.entries.items()]
                digest.update(json.dumps([links, entries]).encode())
        assert count == {"removals": 501, "refused": 33, "fallbacks": 19}, count
        assert digest.hexdigest()[:16] == "6405239a35968a93"

    def test_a_forced_certificate_breaks_the_boxes(self, monkeypatch):
        """On boxes 8x4 a box is tight, so the caps of same-box pairings at
        the NIC switch are not feasible: with the certificate forced to
        pass, the removal differs from the exact one and its remainder no
        longer delivers N*k to every compute node."""
        t = synth_topology("boxes", boxes=8, gpus_per_box=4, intra=8, inter=1)
        res = bottleneck_search(t)
        scaled = scale_capacities(t, res.U)
        exact = exact_removal(scaled, res.k)
        assert removal_record(*remove_switches(scaled, res.k)) == removal_record(*exact)
        monkeypatch.setattr(_GammaOracle, "invariant_holds", True)
        forced = remove_switches(scaled, res.k)
        assert removal_record(*forced) != removal_record(*exact)
        assert supports_full_flow(exact[0], res.k)
        assert not supports_full_flow(forced[0], res.k)


class TestRemovalGraph:
    def test_one_flow_graph_per_pass(self, random_suite, monkeypatch):
        """A certified removal edits the one graph built for it, a removal
        that falls back builds one more for the exact pass, and a network
        without switches builds none, with the search's witness and
        without it."""
        builds, passes = [], []
        init, dissolve = FlowGraph.__init__, _GammaOracle.dissolve

        def counted(self, vertices, arcs):
            builds.append(1)
            init(self, vertices, arcs)

        def named(oracle, amount):
            passes.append(amount.__name__)
            return dissolve(oracle, amount)

        monkeypatch.setattr(FlowGraph, "__init__", counted)
        monkeypatch.setattr(_GammaOracle, "dissolve", named)
        boxes = [synth_topology("boxes", boxes=b, gpus_per_box=g, intra=8, inter=1) for b, g in ((3, 2), (8, 4))]
        seen = {(witness, name): 0 for witness in (False, True) for name in ("cap", "gamma")}
        for t in random_suite + boxes:
            res = bottleneck_search(t)
            scaled = scale_capacities(t, res.U)
            for witness in (False, True):
                builds.clear()
                passes.clear()
                lt, emap = remove_switches(scaled, res.k, res.witness if witness else frozenset())
                if not t.switch_ids:
                    assert builds == passes == [], t
                    continue
                assert passes in (["cap"], ["cap", "gamma"]), (t, passes)
                assert len(builds) == len(passes), t
                seen[witness, passes[-1]] += 1
        # With the witness the boxes certify, and fewer removals fall back.
        assert seen[False, "cap"] > 100 and seen[False, "gamma"] >= 2, seen
        assert seen[True, "cap"] >= seen[False, "cap"] + 2, seen
        assert any(not t.switch_ids for t in random_suite)

    def test_a_failing_invariant_is_a_stuck_split(self):
        # c receives 2 of the 3 units the invariant asks for, so no
        # pairing at w may split anything
        t = Topology(
            [Node("a", COMPUTE), Node("b", COMPUTE), Node("c", COMPUTE), Node("w", SWITCH)],
            [Link("a", "w", 1), Link("w", "b", 1), Link("b", "a", 1), Link("a", "c", 1)],
        )
        with pytest.raises(StuckSplit) as caught:
            remove_switches(t, 1)
        assert (caught.value.switch, caught.value.egress_head, caught.value.remaining) == (
            "w", "b", 1
        )
        assert "(w -> b)" in str(caught.value)

    def test_unbalanced_switch_is_refused_up_front(self, monkeypatch):
        # w takes in 2 units but sends on 1; v and the compute nodes' own
        # imbalance (b sends 2, takes 1) are not named
        t = Topology(
            [Node("a", COMPUTE), Node("b", COMPUTE), Node("v", SWITCH), Node("w", SWITCH)],
            [Link("a", "w", 2), Link("w", "b", 1), Link("b", "v", 1), Link("v", "a", 1), Link("b", "a", 1)],
        )

        def built(*args, **kwargs):
            raise AssertionError("a flow graph was built")

        monkeypatch.setattr(FlowGraph, "__init__", built)
        with pytest.raises(NotEulerianAfterFloor) as caught:
            remove_switches(t, 1)
        assert str(caught.value) == "switch removal for k=1 needs in = out at every switch; w has in 2, out 1"
        assert caught.value.result is None


class TestExpandPath:
    def test_direct_and_relayed_units(self):
        scaled, res = tiny_relay()
        lt, emap = remove_switches(scaled, res.k)
        expander = PathExpander(emap, scaled)
        assert expander.expand(("a", "b"), 1) == [(("a", "w", "b"), 1)]
        assert expander.expand(("b", "a"), 1) == [(("b", "a"), 1)]

    def test_budget_is_shared_and_finite(self):
        scaled, res = tiny_relay()
        lt, emap = remove_switches(scaled, res.k)
        expander = PathExpander(emap, scaled)
        assert expander.expand(("b", "a"), 1)
        with pytest.raises(CapacityExhausted):
            expander.expand(("b", "a"), 1)  # already spent
        # the budget belongs to the expander, not to the emap
        assert PathExpander(emap, scaled).expand(("b", "a"), 1) == [(("b", "a"), 1)]

    def test_rejects_non_positive_multiplicity(self):
        scaled, res = tiny_relay()
        lt, emap = remove_switches(scaled, res.k)
        with pytest.raises(CollschedError):
            PathExpander(emap, scaled).expand(("a", "b"), 0)

    def test_units_always_account_exactly(self, random_suite):
        for t in random_suite[:30]:
            if not t.switch_ids:
                continue
            res = bottleneck_search(t)
            scaled = scale_capacities(t, res.U)
            lt, emap = remove_switches(scaled, res.k)
            switches = set(t.switch_ids)
            expander = PathExpander(emap, scaled)
            for (u, v), cap in sorted(lt.capacity.items()):
                for path, units in expander.expand((u, v), cap):
                    assert path[0] == u and path[-1] == v and units > 0
                    assert all(w in switches for w in path[1:-1])
                    for a, b in zip(path, path[1:]):
                        assert (a, b) in scaled.capacity


def shared_relay(a_to_w: int):
    """a -> w carries (a, b) and (a, c), which also has a direct link; the
    EMap claims one unit of (a, w) for each, so `a_to_w` = 1 is one short."""
    scaled = Topology(
        [Node("a", COMPUTE), Node("b", COMPUTE), Node("c", COMPUTE), Node("w", SWITCH)],
        [Link("a", "w", a_to_w), Link("w", "b", 1), Link("w", "c", 1), Link("a", "c", 1)],
    )
    emap = EMap()
    emap.add("a", "b", "w", 1)
    emap.add("a", "c", "w", 1)
    return emap, scaled


def both_expand(expanders, arc, units):
    """What both expanders return for the request, or the message of the
    CapacityExhausted both raise; they must agree."""
    results = []
    for expander in expanders:
        try:
            results.append(expander.expand(arc, units))
        except CapacityExhausted as exc:
            results.append(str(exc))
    assert results[0] == results[1], (arc, units)
    return results[0]


class TestExpanderAgainstReference:
    """The cursor expander returns what the recursive reference returns,
    call for call, over a seeded random interleaving of random chunks."""

    @staticmethod
    def drain(t: Topology, seed: int) -> tuple[EMap, Topology]:
        res = bottleneck_search(t)
        scaled = scale_capacities(t, res.U)
        lt, emap = remove_switches(scaled, res.k)
        expanders = PathExpander(emap, scaled), ReferenceExpander(emap, scaled)
        rng = random.Random(seed)
        left = dict(lt.capacity)
        while left:
            arc = rng.choice(sorted(left))
            units = rng.randint(1, left[arc])
            paths = both_expand(expanders, arc, units)
            assert sum(n for _, n in paths) == units and all(n > 0 for _, n in paths)
            left[arc] -= units
            if not left[arc]:
                del left[arc]
        for arc in sorted(lt.capacity):
            assert both_expand(expanders, arc, 1) == f"logical arc {arc} lacks 1 of 1 units"
        return emap, scaled

    def test_random_suite(self, random_suite):
        switched = [t for t in random_suite if t.switch_ids][:30]
        assert len(switched) == 30
        for seed, t in enumerate(switched):
            self.drain(t, seed)

    def test_clustered_suite(self, clustered_suite):
        for seed, t in enumerate(clustered_suite):
            self.drain(t, seed)

    def test_boxes(self):
        self.drain(synth_topology("boxes", boxes=8, gpus_per_box=4, intra=8, inter=1), 8)

    def test_fat_tree(self):
        t = synth_topology("fat-tree", pods=8, gpus=32, spines=4, leaf_bw=4, spine_bw=3)
        emap, scaled = self.drain(t, 32)
        # Arcs into or out of a switch are shared by the arcs routed through
        # them, and some of them have more than one route: there a cursor
        # could part from the reference.
        switches = set(t.switch_ids)
        inner = [arc for arc in emap.entries if switches & set(arc)]
        routes = [arc for arc in inner if len(emap.entries[arc]) + (arc in scaled.capacity) > 1]
        assert (len(emap.entries), len(inner), len(routes)) == (96, 51, 14)


class TestExpanderEdgeCases:
    def test_a_shared_sub_arc_drains_in_order(self):
        emap, scaled = shared_relay(2)
        expanders = PathExpander(emap, scaled), ReferenceExpander(emap, scaled)
        assert both_expand(expanders, ("a", "b"), 1) == [(("a", "w", "b"), 1)]
        assert both_expand(expanders, ("a", "c"), 2) == [(("a", "c"), 1), (("a", "w", "c"), 1)]
        assert both_expand(expanders, ("a", "c"), 1) == "logical arc ('a', 'c') lacks 1 of 1 units"
        assert both_expand(expanders, ("a", "b"), 1) == "logical arc ('a', 'b') lacks 1 of 1 units"
        assert both_expand(expanders, ("a", "w"), 1) == "logical arc ('a', 'w') lacks 1 of 1 units"

    def test_a_request_past_the_budget_names_the_arc(self):
        emap, scaled = shared_relay(2)
        expanders = PathExpander(emap, scaled), ReferenceExpander(emap, scaled)
        assert both_expand(expanders, ("a", "c"), 3) == "logical arc ('a', 'c') lacks 1 of 3 units"
        assert both_expand(expanders, ("a", "b"), 2) == "logical arc ('a', 'b') lacks 1 of 2 units"

    def test_a_sub_arc_drained_by_a_one_route_arc_stays_drained(self):
        # (a, b) has one route, a -> w -> b, and takes the only unit of
        # (a, w); (a, c) then finds (a, w) empty behind its direct unit,
        # and neither expander hands out a path of 0 units for it.
        emap, scaled = shared_relay(1)
        expanders = PathExpander(emap, scaled), ReferenceExpander(emap, scaled)
        assert both_expand(expanders, ("a", "b"), 1) == [(("a", "w", "b"), 1)]
        assert both_expand(expanders, ("a", "c"), 2) == "logical arc ('a', 'w') lacks 1 of 1 units"
        assert both_expand(expanders, ("a", "w"), 1) == "logical arc ('a', 'w') lacks 1 of 1 units"

    @staticmethod
    def loop_back(w1_to_w2: int):
        """u -> w1 -> w2 -> w3 -> w1 -> w2 -> t: the split at w1 made both
        (u, w2) and (w3, w2) over the link w1 -> w2, so the one route of
        (u, t) takes two of its units."""
        scaled = Topology(
            [Node("u", COMPUTE), Node("t", COMPUTE)] + [Node(w, SWITCH) for w in ("w1", "w2", "w3")],
            [Link("u", "w1", 1), Link("w1", "w2", w1_to_w2), Link("w2", "w3", 1),
             Link("w3", "w1", 1), Link("w2", "t", 1)],
        )
        emap = EMap()
        for u, t, w in [("u", "w2", "w1"), ("w3", "w2", "w1"), ("u", "w3", "w2"),
                        ("w3", "t", "w2"), ("u", "t", "w3")]:
            emap.add(u, t, w, 1)
        return PathExpander(emap, scaled), ReferenceExpander(emap, scaled)

    def test_a_route_that_crosses_an_arc_twice_spends_it_twice(self):
        expanders = self.loop_back(2)
        assert both_expand(expanders, ("u", "t"), 1) == [(("u", "w1", "w2", "w3", "w1", "w2", "t"), 1)]
        assert both_expand(expanders, ("w1", "w2"), 1) == "logical arc ('w1', 'w2') lacks 1 of 1 units"

    def test_a_route_that_crosses_an_arc_twice_needs_it_twice(self):
        expanders = self.loop_back(1)
        assert both_expand(expanders, ("u", "t"), 1) == "logical arc ('w1', 'w2') lacks 1 of 1 units"
