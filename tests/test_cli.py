"""Command-line contract: golden lines, exit codes, determinism."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import collsched
from collsched import parse_schedule, serialize_topology, synth_topology
from collsched.cli import main

from conftest import OLD_LAYOUT_SCHEDULE


@pytest.fixture()
def topo_file(tmp_path, fig3a):
    path = tmp_path / "fig3a.json"
    path.write_text(serialize_topology(fig3a))
    return str(path)


@pytest.fixture()
def multicast_topo_file(tmp_path, fig3a_multicast):
    path = tmp_path / "fig3a_multicast.json"
    path.write_text(serialize_topology(fig3a_multicast))
    return str(path)


class TestOptimality:
    def test_golden_summary_line(self, topo_file, capsys):
        assert main(["optimality", "-t", topo_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "1/x* = 1/1, k = 1, y = 1/1"

    def test_brute_force_agreement(self, topo_file, capsys):
        assert main(["optimality", "-t", topo_file, "--brute-force"]) == 0
        out = capsys.readouterr().out
        assert "brute force = 1/1" in out
        assert "agreement: yes" in out
        assert "c1_1" in out  # witness members are listed

    def test_json_document(self, topo_file, capsys):
        assert main(["optimality", "-t", topo_file, "--brute-force", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["inv_x_star"] == "1/1"
        assert doc["k"] == 1
        assert doc["y"] == "1/1"
        assert doc["agreement"] is True
        assert doc["witness"] == ["c1_1", "c1_2", "c1_3", "c1_4", "w1"]
        assert doc["cut"] == ["c2_1", "c2_2", "c2_3", "c2_4", "w2"]  # the other box

    def test_cut_beyond_brute_force_limit(self, tmp_path, capsys):
        path = tmp_path / "boxes.json"
        main(["synth", "boxes", "--param", "boxes=8", "--param", "gpus_per_box=4",
              "--param", "intra=8", "--param", "inter=1", "-o", str(path)])
        assert main(["optimality", "-t", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1/x* = 7/1, k = 1, y = 1/7"  # 28 GPUs behind 4 links
        cut = lines[2].removeprefix("cut = {").removesuffix("}").split(", ")
        assert len(cut) == 36 and "w0" in cut  # all but one box of 4 GPUs and its switch

    def test_missing_file_is_exit_1(self, tmp_path, capsys):
        assert main(["optimality", "-t", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_topology_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert main(["optimality", "-t", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_list_nodes_are_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": 5, "links": []}')
        assert main(["optimality", "-t", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["multicast", "aggregation"])
    def test_string_capability_flags_are_exit_1(self, tmp_path, fig3a, flag, capsys):
        doc = json.loads(serialize_topology(fig3a))
        switch = next(n for n in doc["nodes"] if n["kind"] == "switch")
        switch[flag] = "false"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["optimality", "-t", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestGenerate:
    def test_writes_schedule_and_summary(self, topo_file, tmp_path, capsys):
        out_file = tmp_path / "s.json"
        assert main(["generate", "-t", topo_file, "-o", str(out_file)]) == 0
        captured = capsys.readouterr()
        s = parse_schedule(out_file.read_text())
        assert s.collective == "allgather"
        assert len(s.roots) == 8
        assert "self-validation: ok" in captured.out
        assert "time = 1/8 per unit" in captured.out

    def test_stdout_carries_the_schedule_without_dash_o(self, topo_file, capsys):
        assert main(["generate", "-t", topo_file]) == 0
        captured = capsys.readouterr()
        s = parse_schedule(captured.out)
        assert s.collective == "allgather"
        assert "self-validation: ok" in captured.err

    def test_allreduce_reports_the_phase_sum(self, topo_file, tmp_path, capsys):
        out_file = tmp_path / "ar.json"
        code = main(
            ["generate", "-t", topo_file, "--collective", "allreduce",
             "-o", str(out_file), "--json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["collective"] == "allreduce"
        assert summary["time_per_unit"] == "1/4"
        assert summary["self_validation"] == "ok"
        assert len(parse_schedule(out_file.read_text()).phases) == 2

    def test_reduce_scatter_collective(self, topo_file, tmp_path):
        out_file = tmp_path / "rs.json"
        code = main(
            ["generate", "-t", topo_file, "--collective", "reduce-scatter",
             "-o", str(out_file)]
        )
        assert code == 0
        assert parse_schedule(out_file.read_text()).collective == "reduce_scatter"

    def test_fixed_k_writes_exactly_k_trees(self, topo_file, tmp_path):
        out_file = tmp_path / "k2.json"
        assert main(["generate", "-t", topo_file, "--fixed-k", "2",
                     "-o", str(out_file)]) == 0
        s = parse_schedule(out_file.read_text())
        assert s.k == 2
        for rt in s.roots:
            assert sum(b.multiplicity for b in rt.batches) == 2

    def test_no_multicast_skips_pruning(self, topo_file, multicast_topo_file, tmp_path):
        # the topology's capability flags alone turn pruning on
        pruned = tmp_path / "p.json"
        bare = tmp_path / "b.json"
        assert main(["generate", "-t", multicast_topo_file, "-o", str(pruned)]) == 0
        assert main(["generate", "-t", topo_file, "-o", str(bare)]) == 0
        has_pruned = lambda s: any(b.pruned for rt in s.roots for b in rt.batches)
        assert has_pruned(parse_schedule(pruned.read_text()))
        assert not has_pruned(parse_schedule(bare.read_text()))

    def test_unwritable_output_is_exit_1(self, topo_file, tmp_path, capsys):
        out_file = tmp_path / "no" / "such" / "dir" / "x.json"
        assert main(["generate", "-t", topo_file, "-o", str(out_file)]) == 1
        err = capsys.readouterr().err
        assert "error: cannot write" in err
        assert "Traceback" not in err

    def test_byte_identical_reruns(self, topo_file, capsys):
        def run(argv):
            assert main(argv) == 0
            return capsys.readouterr().out

        assert run(["generate", "-t", topo_file]) == run(["generate", "-t", topo_file])


class TestVerify:
    def test_round_trip_is_ok(self, topo_file, tmp_path, capsys):
        sched = tmp_path / "s.json"
        main(["generate", "-t", topo_file, "-o", str(sched)])
        capsys.readouterr()
        assert main(["verify", "-t", topo_file, str(sched)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "ok"
        assert "achieved T_comm = 1/8 per unit" in out
        assert out.splitlines()[-1] == "cut = {c2_1, c2_2, c2_3, c2_4, w2}"

    def test_tampered_schedule_is_exit_2(self, topo_file, tmp_path, capsys):
        sched = tmp_path / "s.json"
        main(["generate", "-t", topo_file, "-o", str(sched)])
        doc = json.loads(sched.read_text())
        del doc["roots"][0]["batches"][0]["edges"][0]  # break spanning
        sched.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "-t", topo_file, str(sched)]) == 2
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "FAIL"
        assert "NotSpanning" in out

    def test_tampered_tree_bandwidth_is_exit_2(self, topo_file, tmp_path, capsys):
        sched = tmp_path / "s.json"
        main(["generate", "-t", topo_file, "-o", str(sched)])
        doc = json.loads(sched.read_text())
        doc["tree_bandwidth"] = "999/1"  # y must be 1/U
        sched.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "-t", topo_file, str(sched)]) == 2
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "FAIL"
        assert "MetadataMismatch" in out

    def test_tampered_optimal_ratio_is_exit_2(self, tmp_path, capsys):
        # a fixed-k schedule is judged against achieved <= bound, so only
        # tying inv_x_star to U/k catches an inflated claim
        topo, sched = tmp_path / "ring.json", tmp_path / "s.json"
        main(["synth", "ring", "--param", "n=4", "--param", "bw=3",
              "--param", "bidirectional=true", "-o", str(topo)])
        assert main(["generate", "-t", str(topo), "--fixed-k", "2", "-o", str(sched)]) == 0
        doc = json.loads(sched.read_text())
        doc["optimal_inv_x"] = "999/1"
        sched.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "-t", str(topo), str(sched)]) == 2
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "FAIL"
        assert "MetadataMismatch" in out

    def test_wrong_topology_is_exit_2(self, topo_file, tmp_path, capsys):
        sched = tmp_path / "s.json"
        main(["generate", "-t", topo_file, "-o", str(sched)])
        other = tmp_path / "ring.json"
        main(["synth", "ring", "--param", "n=8", "--param", "bw=1",
              "-o", str(other)])
        capsys.readouterr()
        assert main(["verify", "-t", str(other), str(sched)]) == 2

    def test_json_report(self, topo_file, tmp_path, capsys):
        sched = tmp_path / "s.json"
        main(["generate", "-t", topo_file, "-o", str(sched)])
        capsys.readouterr()
        assert main(["verify", "-t", topo_file, str(sched), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["achieved_T_comm"] == "1/8"
        assert doc["cut"] == ["c2_1", "c2_2", "c2_3", "c2_4", "w2"]

    def test_old_layout_is_exit_1(self, tmp_path, capsys):
        topo, sched = tmp_path / "ring2.json", tmp_path / "s.json"
        topo.write_text(serialize_topology(synth_topology("ring", n=2, bw=1)))
        sched.write_text(OLD_LAYOUT_SCHEDULE)
        assert main(["verify", "-t", str(topo), str(sched)]) == 1
        assert "old indented schedule layout; re-export" in capsys.readouterr().err

    def test_malformed_schedule_is_exit_1(self, topo_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["verify", "-t", topo_file, str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_string_exact_bound_is_exit_1(self, topo_file, tmp_path, capsys):
        sched = tmp_path / "s.json"
        main(["generate", "-t", topo_file, "-o", str(sched)])
        doc = json.loads(sched.read_text())
        doc["exact_bound"] = "false"
        sched.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "-t", topo_file, str(sched)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_threads_option_is_gone(self, topo_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "-t", topo_file, "--threads", "4"])
        assert exc.value.code == 1


    def test_huge_multiplicity_is_reported_not_allocated(self, tmp_path):
        # Memory must not grow with the claimed number of tree copies: run
        # under a 1 GiB address-space limit so a regression fails cleanly.
        topo = tmp_path / "ring2.json"
        topo.write_text(serialize_topology(synth_topology("ring", n=2, bw=1)))
        sched = tmp_path / "s.json"
        assert main(["generate", "-t", str(topo), "-o", str(sched)]) == 0
        doc = json.loads(sched.read_text())
        for rt in doc["roots"]:
            for batch in rt["batches"]:
                batch["multiplicity"] = 10**12
                for _, _, paths in batch["edges"]:
                    for path in paths:
                        path[1] = 10**12
        sched.write_text(json.dumps(doc))

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = dict(os.environ, PYTHONPATH=str(Path(collsched.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "collsched.cli", "verify", "-t", str(topo), str(sched)],
            capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "CapacityExceeded: link c1->c2 carries 1000000000000 > 1 tree units" in proc.stdout


class TestSynth:
    def test_boxes_family_round_trips(self, tmp_path, fig3a, capsys):
        out_file = tmp_path / "t.json"
        code = main(
            ["synth", "boxes", "--param", "boxes=2", "--param", "gpus_per_box=4",
             "--param", "intra=10", "--param", "inter=1", "-o", str(out_file)]
        )
        assert code == 0
        assert out_file.read_text() == serialize_topology(fig3a)

    def test_stdout_default_and_bool_params(self, capsys):
        code = main(
            ["synth", "ring", "--param", "n=4", "--param", "bw=2",
             "--param", "bidirectional=true"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["links"]) == 8

    def test_bad_family_and_params_are_exit_1(self, capsys):
        assert main(["synth", "torus", "--param", "n=4"]) == 1
        assert main(["synth", "ring", "--param", "n4"]) == 1
        assert main(["synth", "ring", "--param", "n=4"]) == 1  # missing bw
        # parameters of the wrong type or name are refused, never coerced
        assert main(["synth", "ring", "--param", "n=3", "--param", "bw=1",
                     "--param", "bidirectional=no"]) == 1
        assert main(["synth", "ring", "--param", "n=3", "--param", "bw=1",
                     "--param", "bidirectional=1"]) == 1
        assert main(["synth", "ring", "--param", "n=3", "--param", "bw=1.5"]) == 1
        assert main(["synth", "ring", "--param", "n=3", "--param", "bw=1",
                     "--param", "bidi=true"]) == 1
        assert main(["synth", "boxes", "--param", "boxes=true", "--param", "gpus_per_box=4",
                     "--param", "intra=10", "--param", "inter=1"]) == 1
        # integers are plain ASCII digits, as int() alone would not insist
        for n in ("1_0", " 4", "\u0664", "+4"):
            assert main(["synth", "ring", "--param", f"n={n}", "--param", "bw=1"]) == 1
        # out-of-range values too
        assert main(["synth", "ring", "--param", "n=1", "--param", "bw=1"]) == 1
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err.count("error:") == 13
        assert "Traceback" not in err.err


class TestExportDot:
    def test_renders_digraphs(self, topo_file, tmp_path, capsys):
        sched = tmp_path / "s.json"
        main(["generate", "-t", topo_file, "-o", str(sched)])
        capsys.readouterr()
        assert main(["export-dot", str(sched)]) == 0
        out = capsys.readouterr().out
        assert out.count("digraph") == 8

    def test_missing_schedule_is_exit_1(self, tmp_path, capsys):
        assert main(["export-dot", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_old_layout_is_exit_1(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        sched.write_text(OLD_LAYOUT_SCHEDULE)
        assert main(["export-dot", str(sched)]) == 1
        assert "old indented schedule layout; re-export" in capsys.readouterr().err


class TestUsageErrors:
    """Bad flags exit 1 with the usage and an error line; 2 stays reserved
    for a failed verification or an oracle disagreement."""

    @pytest.mark.parametrize("argv", [
        ["generate", "-t", "{topo}", "--fixed-k", "abc"],
        ["generate", "-t", "{topo}", "--groups", "g.json"],
        ["optimality"],
        ["synth", "ring", "--param", "n=3", "--param", "bw=1", "--json"],
        ["export-dot", "s.json", "--json"],
        ["no-such-command"],
        ["generate", "-t", "{topo}", "--no-multicast"],
        # tree counts are plain ASCII digits, not whatever int() accepts
        ["generate", "-t", "{topo}", "--fixed-k", "1_0"],
        ["generate", "-t", "{topo}", "--fixed-k", "\u0662"],
        ["generate", "-t", "{topo}", "--fixed-k", "+2"],
        ["generate", "-t", "{topo}", "--fixed-k", " 2"],
    ])
    def test_exit_1_with_usage(self, argv, topo_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([a.format(topo=topo_file) for a in argv])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: collsched")
        assert "error: " in err

    def test_help_is_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--help"])
        assert exc.value.code == 0
        assert "--groups" not in capsys.readouterr().out
