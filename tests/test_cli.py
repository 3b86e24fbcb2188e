"""Tests for the command-line interface."""

import itertools
import json

import pytest

from repro.cli import build_parser, main
from repro.obs.report import TABLE2_PHASES, RunReport


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_join_defaults(self):
        args = build_parser().parse_args(["join"])
        assert args.algorithm == "s3j"
        assert args.workload == "UN1-UN2"

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["join", "--algorithm", "nested"])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["join", "--workload", "XYZ"])

    # The removed sharding flags accept no value at all: argparse
    # rejects each as an unrecognized argument.
    @pytest.mark.parametrize("value", ["0", "-2", "abc", "1.5"])
    def test_rejects_bad_worker_counts(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["join", "--workers", value])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "17", "-3", "two"])
    def test_rejects_bad_shard_levels(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["join", "--shard-level", value])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --shard-level" in capsys.readouterr().err

    def test_removed_planner_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["join", "--planner", "residual"]
            )
        assert exit_info.value.code == 2
        assert "--planner" in capsys.readouterr().err

    def test_removed_max_inflight_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--max-inflight", "8"])
        assert exit_info.value.code == 2
        assert "--max-inflight" in capsys.readouterr().err

    def test_removed_disk_backend_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["join", "--backend", "disk"])
        assert exit_info.value.code == 2
        assert "'memory', 'durable'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["join", "--workers", "2"],
            ["join", "--shard-level", "1"],
            ["join", "--inject-crash", "cell-0"],
            ["join", "--crash-attempts", "2"],
            ["join", "--partial-results"],
            ["verify", "--workers", "2"],
        ],
    )
    def test_removed_sharding_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert argv[1] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["join", "--algorithm", "pbsm", "--tiles", "0"],
            ["join", "--algorithm", "pbsm", "--tiles", "-3"],
            ["join", "--scale", "nan"],
            ["join", "--scale", "-1"],
            ["join", "--scale", "0"],
            ["join", "--scale", "inf"],
            ["join", "--scale", "abc"],
            ["table3", "--scale", "nan"],
            ["table4", "--scale", "-1"],
            ["join", "--algorithm", "rtree"],  # the retired R-tree join
            ["serve", "--port", "70000"],
            ["serve", "--port", "-5"],
            ["join", "--algorithm", "sweep"],  # the retired sweep engine
        ],
    )
    def test_bad_arguments_exit_2_before_running(self, argv, capsys, monkeypatch):
        """argparse refuses each before any data set is generated (or,
        for ``serve``, any index built)."""
        monkeypatch.setattr("repro.cli.run_algorithm", pytest.fail)
        monkeypatch.setattr("repro.service.PersistentIndex", pytest.fail)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"argument {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "abc"])
    @pytest.mark.parametrize(
        "argv",
        [["join", "--algorithm", "pbsm"], ["table3"], ["table4", "--only", "TR"]],
        ids=["join", "table3", "table4"],
    )
    def test_bad_repro_scale_exits_2_before_running(self, argv, value, capsys, monkeypatch):
        """``REPRO_SCALE`` stands in for ``--scale`` and is refused the
        same way, before any data set is generated."""
        monkeypatch.setenv("REPRO_SCALE", value)
        monkeypatch.setattr("repro.cli.run_algorithm", pytest.fail)
        monkeypatch.setattr("repro.cli.table3_rows", pytest.fail)
        monkeypatch.setattr("repro.cli.table4_rows", pytest.fail)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "REPRO_SCALE must be a finite number above 0" in capsys.readouterr().err

    def test_serve_rejects_nan_rate_before_binding(self, capsys, monkeypatch):
        """A NaN rate would admit every query: refused before the index
        is built or a socket bound."""
        monkeypatch.setattr("repro.service.ServiceServer", pytest.fail)
        monkeypatch.setattr("repro.service.PersistentIndex", pytest.fail)
        assert main(["serve", "--rate", "nan"]) == 2
        assert "rate must be positive and finite" in capsys.readouterr().err

    def test_verify_defaults(self):
        args = build_parser().parse_args(["verify", "--quick"])
        assert args.quick
        assert not args.no_minimize

    @pytest.mark.parametrize(
        "flags",
        [
            ["--chaos", "--crash"],
            ["--service", "--serve-roundtrip"],
            ["--crash", "--service", "--chaos"],
            ["--crash", "--fsync-mutations"],
            ["--fsync-mutations", "--serve-roundtrip"],
        ],
    )
    def test_verify_mode_flags_are_mutually_exclusive(self, flags, capsys):
        """Two gates on one command line used to run whichever came
        first in an if-chain; now it is a usage error."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["verify", *flags])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, gate",
        [("--fsync-mutations", "run_fsync_mutations"), ("--serve-roundtrip", "run_serve_roundtrip")],
    )
    def test_verify_runs_the_crash_module_gates(self, flag, gate, monkeypatch, capsys):
        """The crash module's two extra gates are ``repro verify`` modes
        and print the one report like every other gate."""
        from repro import verify

        seeds = []

        def stub(seed, progress):
            seeds.append(seed)
            report = verify.Report(gate=gate)
            report.fail("stub", flag, "seeded")
            return report

        monkeypatch.setattr(verify, gate, stub)
        assert main(["verify", flag, "--seed", "3"]) == 1
        assert seeds == [3]
        assert capsys.readouterr().out.startswith(f"{gate}: FAIL")

    def test_verify_rejects_bad_workers(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["verify", "--workers", "0"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err


class TestCommands:
    def test_table3(self, capsys):
        assert main(["table3", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "UN1" in out and "CFD" in out

    def test_join_runs(self, capsys):
        assert main(
            ["join", "--workload", "UN1-UN2", "--scale", "0.02"]
        ) == 0
        out = capsys.readouterr().out
        assert "pairs" in out and "partition" in out

    def test_join_pbsm_with_tiles(self, capsys):
        assert main(
            [
                "join",
                "--workload",
                "UN1-UN2",
                "--algorithm",
                "pbsm",
                "--tiles",
                "8",
                "--scale",
                "0.02",
            ]
        ) == 0
        assert "r_A / r_B" in capsys.readouterr().out

    def test_tiles_rejected_for_s3j(self, capsys):
        assert main(["join", "--tiles", "8", "--scale", "0.02"]) == 2

    def test_table4_single_workload(self, capsys):
        assert main(["table4", "--only", "UN1-UN2", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "UN1-UN2" in out


class TestVerifyCommand:
    def test_single_workload_passes(self, capsys):
        assert main(
            [
                "verify",
                "--workloads",
                "grid-aligned",
                "--algorithms",
                "s3j,pbsm",
                "--transforms",
                "axis-swap",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out
        assert "grid-aligned" in captured.out
        assert "case grid-aligned" in captured.err  # progress goes to stderr

    def test_json_report(self, capsys):
        assert main(
            [
                "verify",
                "--workloads",
                "uniform",
                "--algorithms",
                "pbsm",
                "--transforms",
                "swap-ab",
                "--json",
            ]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["cases"] == ["uniform"]
        assert report["runs"] > 0

    def test_unknown_algorithm_exits_2(self, capsys):
        assert main(["verify", "--algorithms", "nested"]) == 2
        assert "unknown algorithms" in capsys.readouterr().err

    def test_retired_rtree_join_exits_2(self, capsys):
        assert main(["verify", "--algorithms", "rtree"]) == 2
        assert "unknown algorithms" in capsys.readouterr().err

    def test_retired_sweep_engine_exits_2(self, capsys):
        assert main(["verify", "--algorithms", "sweep"]) == 2
        assert "unknown algorithms" in capsys.readouterr().err

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["verify", "--workloads", "no-such"]) == 2
        assert "unknown workloads" in capsys.readouterr().err

    def test_unknown_transform_exits_2(self, capsys):
        assert main(["verify", "--transforms", "rotate-45"]) == 2
        assert "unknown transforms" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_report_to_stdout_is_pure_json(self, capsys):
        assert main(
            ["join", "--workload", "UN1-UN2", "--scale", "0.02", "--report", "-"]
        ) == 0
        out = capsys.readouterr().out
        report = RunReport.from_json(out)  # would raise on any non-JSON noise
        assert report.algorithm == "s3j"
        assert report.pairs > 0
        for phase in ("partition", "sort", "join"):
            assert phase in report.metrics.phases
            assert report.phase_wall.get(phase, 0.0) > 0.0

    @pytest.mark.parametrize("algorithm", sorted(TABLE2_PHASES))
    def test_report_and_trace_files(self, algorithm, capsys, tmp_path):
        """Every algorithm's report carries each of its Table-2 phases,
        with simulated and wall time, and its trace has events."""
        report_path = tmp_path / "run.report.json"
        trace_path = tmp_path / "run.trace.json"
        assert main(
            [
                "join",
                "--algorithm",
                algorithm,
                "--workload",
                "UN1-UN2",
                "--scale",
                "0.02",
                "--report",
                str(report_path),
                "--trace",
                str(trace_path),
            ]
        ) == 0
        assert "pairs" in capsys.readouterr().out  # summary still printed
        report = RunReport.load(str(report_path))
        assert report.algorithm == algorithm
        assert report.pairs > 0
        for phase in TABLE2_PHASES[algorithm]:
            assert phase in report.metrics.phases, phase
            assert report.metrics.phase_time(phase) > 0.0, phase
            assert report.phase_wall.get(phase, 0.0) > 0.0, phase
        trace = json.loads(trace_path.read_text())
        events = trace["traceEvents"]
        assert events and all(event["ph"] == "X" for event in events)
        assert {event["name"] for event in events} >= {"partition", "join"}

    def test_no_flags_no_observability(self, capsys):
        assert main(["join", "--workload", "UN1-UN2", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_table4_json_round_trips(self, capsys):
        assert main(
            ["table4", "--only", "UN1-UN2", "--scale", "0.02", "--json"]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        row = rows[0]
        assert row["workload"] == "UN1-UN2"
        assert {"s3j", "pbsm_small", "pbsm_large", "shj"} <= set(row)
        assert json.loads(json.dumps(rows)) == rows


class TestExecutionModes:
    """`repro join --mode memory`."""

    def test_memory_mode_runs(self, capsys):
        assert main(
            ["join", "--mode", "memory", "--scale", "0.02"]
        ) == 0
        out = capsys.readouterr().out
        assert "mode      : memory" in out
        assert "page I/Os : 0" in out

    def test_memory_mode_rejects_non_s3j(self, capsys):
        assert main(
            ["join", "--mode", "memory", "--algorithm", "pbsm",
             "--scale", "0.02"]
        ) == 2
        assert "s3j only" in capsys.readouterr().err

    def test_memory_mode_rejects_retry_flags(self, capsys):
        """The retry layer is deleted: its flags are unknown in every mode."""
        for mode, flag in itertools.product(("memory", "ledger"), ("--retry-attempts", "--retry-backoff")):
            with pytest.raises(SystemExit) as exit_info:
                main(["join", "--mode", mode, flag, "2", "--scale", "0.02"])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

class TestCrossModeCommand:
    def test_default_sweep_holds_both_modes(self, capsys):
        """Ledger-vs-memory parity is part of every sweep: both S3J
        engines run (refining) beside the other algorithms."""
        assert main(
            ["verify", "--workloads", "uniform,mixed-self", "--algorithms", "s3j",
             "--transforms", "identity", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["executors"] == ["s3j", "s3j:memory"]

    def test_cross_mode_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--cross-mode"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cross-mode" in capsys.readouterr().err
