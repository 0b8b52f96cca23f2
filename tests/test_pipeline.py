"""End-to-end generation across collectives, tree counts, and options."""

import dataclasses
import random
import re
from collections import Counter

import pytest

from collsched import (
    SWITCH,
    Link,
    Topology,
    assemble_allgather,
    bottleneck_search,
    combine_allreduce,
    export,
    fixed_k_search,
    generate,
    pack_spanning_trees,
    prune_multicast,
    remove_switches,
    reverse_for_reduce_scatter,
    scale_capacities,
    synth_topology,
    validate_schedule,
)
from collsched.errors import (
    CollschedError,
    InvalidTopology,
    NotEulerianAfterFloor,
)
from collsched.pipeline import COLLECTIVES
from collsched.topology import transpose


class TestCollectives:
    def test_the_three_collectives_validate(self, fig3a):
        for collective in COLLECTIVES:
            s, meta = generate(fig3a, collective=collective)
            assert s.collective == collective
            assert validate_schedule(s, fig3a, meta).ok

    def test_unknown_collective_rejected(self, fig3a):
        with pytest.raises(CollschedError):
            generate(fig3a, collective="gather")

    def test_invalid_topology_rejected(self):
        from collsched import COMPUTE, Link, Node, Topology

        lopsided = Topology(
            [Node("a", COMPUTE), Node("b", COMPUTE)],
            [Link("a", "b", 3), Link("b", "a", 2)],
        )
        with pytest.raises(InvalidTopology):
            generate(lopsided)


class TestFixedK:
    def test_exactly_k_trees_per_root(self, fig3a):
        s, meta = generate(fig3a, fixed_k=2)
        assert s.k == 2 and meta.k == 2
        assert s.exact is False
        for rt in s.roots:
            assert sum(b.multiplicity for b in rt.batches) == 2
        report = validate_schedule(s, fig3a, meta)
        assert report.ok
        assert report.achieved_T_comm <= report.bound_T_comm

    def test_only_floors_unbalanced_at_a_switch_are_refused(self, random_suite, clustered_suite):
        """Every fixed-k allgather on the suites validates against its
        search result, or is refused naming exactly the switches whose
        floored in- and out-capacity differ, with that result attached."""
        counts = {"valid": 0, "refused": 0, "invalid": 0}
        for i, t in enumerate(random_suite + clustered_suite):
            for k in range(1, 5):
                try:
                    s, meta = generate(t, fixed_k=k)
                except NotEulerianAfterFloor as exc:
                    assert exc.result == fixed_k_search(t, k), (i, k)
                    scaled = scale_capacities(t, exc.result.U)
                    unbalanced = [w for w in t.switch_ids if scaled.in_bw[w] != scaled.out_bw[w]]
                    assert re.findall(r"(\S+) has in", str(exc)) == unbalanced, (i, k)
                    counts["refused"] += 1
                    continue
                counts["valid" if validate_schedule(s, t, meta).ok else "invalid"] += 1
        assert counts == {"valid": 1150, "refused": 50, "invalid": 0}


class TestOptions:
    def test_prune_flag_gates_annotations(self, fig3a, fig3a_multicast):
        pruned, _ = generate(fig3a_multicast)
        bare, _ = generate(fig3a)
        # pruning shows as a path that does not start at its edge's tail
        cut = lambda s: any(
            p.path[0] != e.src for rt in s.roots for b in rt.batches for e in b.edges for p in e.paths
        )
        assert cut(pruned)
        assert not cut(bare)

    def test_deterministic_end_to_end(self, fig3a):
        assert generate(fig3a) == generate(fig3a)


class TestPruneOnce:
    @pytest.mark.parametrize(
        "multicast, aggregation, prunes",
        [("ls", "ls", 1), ("ls", "s", 2), ("", "ls", 2), ("", "", 1)],
    )
    def test_matching_switch_sets_share_one_prune(
        self, monkeypatch, multicast, aggregation, prunes
    ):
        """An allreduce prunes its allgather once, and transposes nothing,
        when the aggregating switches are exactly the multicast ones;
        otherwise it prunes for t and for transpose(t).  Either way it
        exports the bytes of pruning each phase for its own network.  The
        flags name switch kinds: l for leaves, s for spines."""
        base = synth_topology("fat-tree", pods=2, gpus=4, spines=4, leaf_bw=4, spine_bw=3)
        nodes = [
            dataclasses.replace(n, multicast=n.id[0] in multicast, aggregation=n.id[0] in aggregation)
            if n.kind == SWITCH
            else n
            for n in base.nodes
        ]
        t = Topology(nodes, base.links)
        meta = bottleneck_search(t)
        scaled = scale_capacities(t, meta.U)
        logical, emap = remove_switches(scaled, meta.k)
        ag = assemble_allgather(pack_spanning_trees(logical, meta.k), emap, scaled, meta)
        rs = reverse_for_reduce_scatter(prune_multicast(ag, transpose(t)))
        expected = export(combine_allreduce(rs, prune_multicast(ag, t)), "json")
        if multicast:
            assert prune_multicast(ag, t) != ag

        calls = Counter()

        def counted(f):
            def wrapper(*args):
                calls[f.__name__] += 1
                return f(*args)

            return wrapper

        monkeypatch.setattr("collsched.pipeline.prune_multicast", counted(prune_multicast))
        monkeypatch.setattr("collsched.pipeline.transpose", counted(transpose))
        s, _ = generate(t, "allreduce")
        assert export(s, "json") == expected
        assert (calls["prune_multicast"], calls["transpose"]) == (prunes, prunes - 1)


def verdict(t, collective, fixed_k):
    """(exported schedule, whether it validates against its search result),
    or "refused" for a floor switch removal cannot split."""
    try:
        s, meta = generate(t, collective, fixed_k=fixed_k)
    except NotEulerianAfterFloor:
        return "refused"
    return export(s, "json"), validate_schedule(s, t, meta).ok


# The names the auxiliary source (the search's, the splitter's and the
# packer's sigma) and the packer's first two hubs would take.
AUXILIARY_NAMES = ("s", "_s", "__s", "b0", "_b0", "b1")


def with_auxiliary_names(t: Topology) -> Topology:
    """t with its compute nodes, then its switches, renamed in sorted order
    to `AUXILIARY_NAMES`, as far as those go."""
    new = dict(zip([*t.compute_ids, *t.switch_ids], AUXILIARY_NAMES))
    nodes = [dataclasses.replace(n, id=new.get(n.id, n.id)) for n in t.nodes]
    links = [Link(new.get(l.src, l.src), new.get(l.dst, l.dst), l.bandwidth) for l in t.links]
    return Topology(nodes, links)


class TestNaming:
    def test_the_schedule_does_not_depend_on_input_order(self, random_suite, clustered_suite):
        """Listing a network's nodes and links in another order moves no
        exported byte, for every collective with and without a tree count."""
        for i, t in enumerate(random_suite[:40] + clustered_suite[:10]):
            rng = random.Random(i)
            nodes, links = list(t.nodes), list(t.links)
            rng.shuffle(nodes)
            rng.shuffle(links)
            shuffled = Topology(nodes, links)
            assert shuffled.nodes != t.nodes, i
            for collective in COLLECTIVES:
                for k in (None, 2):
                    assert verdict(shuffled, collective, k) == verdict(t, collective, k), (
                        i, collective, k,
                    )

    def test_node_ids_may_take_the_auxiliary_names(self, random_suite):
        """Networks whose nodes carry the names the auxiliary vertices would
        take get fresh ones instead: every op validates, fails to validate
        or is refused exactly as on the network with its own names."""
        counts = {"valid": 0, "invalid": 0, "refused": 0}
        for i, t in enumerate(random_suite[:60]):
            renamed = with_auxiliary_names(t)
            assert {"s", "_s"} <= set(renamed.compute_ids), i
            for collective in COLLECTIVES:
                for k in (None, 2):
                    got = verdict(renamed, collective, k)
                    want = verdict(t, collective, k)
                    if got == "refused" or want == "refused":
                        assert got == want, (i, collective, k)
                        counts["refused"] += 1
                    else:
                        assert got[1] == want[1], (i, collective, k)
                        counts["valid" if got[1] else "invalid"] += 1
        assert counts == {"valid": 114, "invalid": 228, "refused": 18}
