"""Tests for the `repro report` subcommand, the `--events` stream flag,
and the up-front artifact-path validation on `repro join`."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.events import events_from_jsonl
from repro.obs.report import RunReport


@pytest.fixture(scope="module")
def report_paths(tmp_path_factory):
    """One real instrumented run, shared across render tests."""
    out = tmp_path_factory.mktemp("observatory")
    report_path = out / "run.report.json"
    events_path = out / "run.events.jsonl"
    code = main(
        [
            "join",
            "--workload", "UN1-UN2",
            "--scale", "0.02",
            "--report", str(report_path),
            "--events", str(events_path),
        ]
    )
    assert code == 0
    return report_path, events_path


class TestEventsFlag:
    def test_stream_file_written_and_in_schema(self, report_paths):
        report_path, events_path = report_paths
        # events_from_jsonl re-validates every line against the schema.
        streamed = events_from_jsonl(events_path.read_text())
        assert streamed
        types = [event["type"] for event in streamed]
        assert types[0] == "run_started"
        assert types[-1] == "run_completed"
        assert {"partition", "sort"} <= {
            event["phase"] for event in streamed if event["type"] == "shard_progress"
        }

    def test_stream_matches_report_events(self, report_paths):
        report_path, events_path = report_paths
        report = RunReport.load(str(report_path))
        streamed = events_from_jsonl(events_path.read_text())
        assert streamed == report.events

    def test_events_without_report_still_streams(self, tmp_path, capsys):
        events_path = tmp_path / "only.events.jsonl"
        assert main(
            [
                "join",
                "--workload", "UN1-UN2",
                "--scale", "0.02",
                "--events", str(events_path),
            ]
        ) == 0
        capsys.readouterr()
        streamed = events_from_jsonl(events_path.read_text())
        assert streamed[0]["type"] == "run_started"
        assert streamed[-1]["type"] == "run_completed"


class TestPathValidation:
    """Artifact-flag mistakes must fail fast with exit 2, before the
    join runs (satellite: `--trace` without `--report` misbehavior)."""

    def test_trace_to_stdout_rejected(self, capsys):
        assert main(["join", "--trace", "-"]) == 2
        err = capsys.readouterr().err
        assert "cannot write to stdout" in err

    def test_events_to_stdout_rejected(self, capsys):
        assert main(["join", "--events", "-"]) == 2
        assert "cannot write to stdout" in capsys.readouterr().err

    def test_missing_parent_directory_rejected(self, tmp_path, capsys):
        bad = tmp_path / "nope" / "run.trace.json"
        assert main(["join", "--trace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert "create it first" in err

    def test_directory_target_rejected(self, tmp_path, capsys):
        assert main(["join", "--report", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_duplicate_paths_rejected(self, tmp_path, capsys):
        path = tmp_path / "same.json"
        assert main(
            ["join", "--report", str(path), "--trace", str(path)]
        ) == 2
        assert "give them distinct paths" in capsys.readouterr().err

    def test_trace_alone_to_file_works(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        assert main(
            [
                "join",
                "--workload", "UN1-UN2",
                "--scale", "0.02",
                "--trace", str(trace_path),
            ]
        ) == 0
        capsys.readouterr()
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]


class TestReportCommand:
    def test_terminal_render(self, report_paths, capsys):
        report_path, _ = report_paths
        assert main(["report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "s3j" in out
        for phase in ("partition", "sort", "join"):
            assert phase in out
        report = RunReport.load(str(report_path))
        assert f"events    : {len(report.events)} (" in out

    def test_json_summary(self, report_paths, capsys):
        report_path, _ = report_paths
        assert main(["report", str(report_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["algorithm"] == "s3j"
        assert summary["events"] == len(RunReport.load(str(report_path)).events)
        assert set(summary["phase_table"]) >= {"partition", "sort", "join"}

    def test_html_render(self, report_paths, tmp_path, capsys):
        report_path, _ = report_paths
        html_path = tmp_path / "run.html"
        assert main(
            ["report", str(report_path), "--html", str(html_path)]
        ) == 0
        capsys.readouterr()
        html = html_path.read_text()
        assert html.startswith("<!doctype html>")
        assert "Span flame view" in html
        assert "<h2>Phases</h2>" in html

    def test_report_written_before_planner_removal_still_renders(
        self, report_paths, tmp_path, capsys
    ):
        # Reports saved while sharded execution existed carry a
        # per-shard ``analytics`` block, ``shard_*`` lifecycle events and
        # plan details this version no longer writes; `repro report`
        # must load and render them, not reject the artifact.  The
        # writer is gone, so the old shape is built from a serial report.
        report_path, _ = report_paths
        data = json.loads(report_path.read_text())
        assert data["schema_version"] == 2
        lane = {
            "shard_id": "cell-0", "kind": "tile", "attempts": 1,
            "failed": False, "pairs": data["pairs"], "records": 1054,
            "start_s": 0.07, "wall_s": 0.82, "phase_wall": {"join": 0.5},
        }
        data["analytics"] = {
            "shards": [lane], "workers": 2, "makespan_s": 0.9,
            "imbalance_factor": 1.0, "record_imbalance_factor": 1.0,
            "parallel_efficiency": 0.91, "retries": 0, "timeouts": 0,
            "failures": 0, "heartbeats": 0, "progress_events": 3,
            "duration_percentiles": {"p50": 0.82, "max": 0.82},
            "critical_path": {"shard_id": "cell-0", "kind": "tile",
                              "wall_s": 0.82, "share_of_total": 1.0},
            "planner": "residual", "residual" + "_share": 0.0,
        }
        ts = data["events"][0]["ts"]
        data["events"][0] |= {"workers": 2, "shard_level": 1, "tasks": 1}
        data["events"][1:1] = [
            {"v": 1, "type": "shard_dispatched", "ts": ts, "shard_id": "cell-0",
             "kind": "tile", "attempt": 1, "records": 1054, "in_process": False},
            {"v": 1, "type": "shard_completed", "ts": ts, "shard_id": "cell-0",
             "kind": "tile", "attempt": 1, "pairs": data["pairs"], "wall_s": 0.82},
        ]
        data["metrics"]["details"] |= {
            "parallel": True, "shard_level": 1,
            "plan": {"shard_level": 1, "tasks": 1, "mini_joins": 4},
        }
        old_path = tmp_path / "old.report.json"
        old_path.write_text(json.dumps(data))

        assert main(["report", str(old_path)]) == 0
        out = capsys.readouterr().out
        assert "1 shard_dispatched" in out and "1 shard_completed" in out
        assert main(["report", str(old_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["pairs"] == data["pairs"]
        assert summary["events"] == len(data["events"])
        html_path = tmp_path / "old.html"
        assert main(["report", str(old_path), "--html", str(html_path)]) == 0
        assert html_path.read_text().startswith("<!doctype html>")

    def test_serial_report_renders_without_analytics(self, tmp_path, capsys):
        report_path = tmp_path / "serial.report.json"
        assert main(
            [
                "join",
                "--workload", "UN1-UN2",
                "--scale", "0.02",
                "--report", str(report_path),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "s3j" in out

    def test_missing_file_exits_2(self, capsys):
        assert main(["report", "/no/such/report.json"]) == 2
        assert "no such report" in capsys.readouterr().err

    def test_non_report_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text('{"not": "a report"}')
        assert main(["report", str(path)]) == 2
        assert "not a RunReport" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{this is not json")
        assert main(["report", str(path)]) == 2
        assert "not a RunReport" in capsys.readouterr().err

    def test_html_missing_parent_exits_2(self, report_paths, capsys):
        report_path, _ = report_paths
        assert main(
            ["report", str(report_path), "--html", "/no/such/dir/out.html"]
        ) == 2
        assert "does not exist" in capsys.readouterr().err
