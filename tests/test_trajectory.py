"""Tests for the benchmark trajectory store and regression gate
(benchmarks.trajectory)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.trajectory import (
    DEFAULT_MIN_SAMPLES,
    GATES,
    HISTORY_DIR,
    GateSpec,
    append_entry,
    bench_name_of,
    check_artifact,
    history_path,
    load_history,
    main,
    make_entry,
)


def synthetic_payload(speedup_uniform=6.0, speedup_self=13.0) -> dict:
    return {
        "entities": 20000,
        "rows": [
            {"workload": "uniform", "speedup": speedup_uniform},
            {"workload": "self-join", "speedup": speedup_self},
        ],
    }


@pytest.fixture(autouse=True)
def synthetic_gate(monkeypatch):
    """A default-threshold gate over two series of a made-up benchmark:
    the one committed series (``service``) is collapse-only, too wide to
    show the 20% policy."""
    monkeypatch.setitem(
        GATES,
        "synthetic",
        (
            GateSpec(
                metric="speedup",
                select=lambda payload: {
                    f"speedup[{row['workload']}]": float(row["speedup"])
                    for row in payload.get("rows", [])
                },
            ),
        ),
    )


def seed_history(tmp_path: Path, count: int = 4) -> Path:
    for _ in range(count):
        append_entry("synthetic", synthetic_payload(), history_dir=tmp_path)
    return history_path("synthetic", tmp_path)


class TestHistory:
    def test_bench_name_of(self):
        assert bench_name_of("BENCH_service.json") == "service"
        assert bench_name_of("/a/b/BENCH_parallel_scaling.json") == (
            "parallel_scaling"
        )

    def test_entry_captures_gated_metrics_and_config(self):
        entry = make_entry("synthetic", synthetic_payload())
        assert entry["schema"] == 1
        assert entry["metrics"]["speedup[uniform]"] == 6.0
        assert entry["metrics"]["speedup[self-join]"] == 13.0
        assert entry["config"]["entities"] == 20000

    def test_append_and_load_round_trip(self, tmp_path):
        path = seed_history(tmp_path, count=3)
        entries = load_history(path)
        assert len(entries) == 3
        assert all(entry["bench"] == "synthetic" for entry in entries)

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "synthetic.jsonl"
        path.write_text(json.dumps({"schema": 99, "bench": "synthetic"}) + "\n")
        with pytest.raises(ValueError, match="unsupported history schema"):
            load_history(path)

    def test_missing_history_is_empty(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == []


class TestGate:
    def test_seeded_25pct_regression_is_caught(self, tmp_path):
        """The issue's acceptance gate: a 25% speedup drop must fail."""
        seed_history(tmp_path)
        history = load_history(history_path("synthetic", tmp_path))
        regressed = synthetic_payload(
            speedup_uniform=6.0 * 0.75, speedup_self=13.0 * 0.75
        )
        report = check_artifact(regressed, "synthetic", history)
        assert not report.ok
        failing = [r.metric for r in report.results if r.regressed]
        assert "speedup[uniform]" in failing
        assert "speedup[self-join]" in failing

    def test_within_threshold_passes(self, tmp_path):
        seed_history(tmp_path)
        history = load_history(history_path("synthetic", tmp_path))
        wobble = synthetic_payload(
            speedup_uniform=6.0 * 0.9, speedup_self=13.0 * 1.1
        )
        report = check_artifact(wobble, "synthetic", history)
        assert report.ok

    def test_min_samples_guard(self, tmp_path):
        """Too little history: the gate reports but never fails."""
        seed_history(tmp_path, count=DEFAULT_MIN_SAMPLES - 1)
        history = load_history(history_path("synthetic", tmp_path))
        report = check_artifact(
            synthetic_payload(speedup_uniform=0.1, speedup_self=0.1),
            "synthetic",
            history,
        )
        assert report.ok
        assert all(r.baseline is None for r in report.results)
        assert "insufficient history" in report.describe()

    def test_baseline_is_rolling_median(self, tmp_path):
        # One crazy-fast outlier entry must not poison the baseline.
        for speedup in (6.0, 6.1, 5.9, 60.0):
            append_entry(
                "synthetic",
                synthetic_payload(speedup_uniform=speedup),
                history_dir=tmp_path,
            )
        history = load_history(history_path("synthetic", tmp_path))
        report = check_artifact(synthetic_payload(), "synthetic", history)
        uniform = next(
            r for r in report.results if r.metric == "speedup[uniform]"
        )
        assert uniform.baseline == pytest.approx(6.05)
        assert report.ok

    def test_lower_is_better_direction(self):
        gate = GateSpec(
            metric="latency",
            select=lambda p: {"latency": p["latency"]},
            direction="lower",
        )
        assert gate.regressed(current=1.3, baseline=1.0)
        assert not gate.regressed(current=1.1, baseline=1.0)
        assert not gate.regressed(current=0.5, baseline=1.0)

    def test_higher_is_better_direction(self):
        gate = GateSpec(metric="speedup", select=lambda p: {})
        assert gate.regressed(current=0.7, baseline=1.0)
        assert not gate.regressed(current=0.9, baseline=1.0)


class TestCli:
    def _artifact(self, tmp_path, **kwargs) -> str:
        path = tmp_path / "BENCH_synthetic.json"
        path.write_text(json.dumps(synthetic_payload(**kwargs)))
        return str(path)

    def test_append_then_check_passes(self, tmp_path, capsys):
        artifact = self._artifact(tmp_path)
        history = tmp_path / "history"
        for _ in range(3):
            assert main(
                ["--history-dir", str(history), "append", artifact]
            ) == 0
        assert main(["--history-dir", str(history), "check", artifact]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_fails_on_regression(self, tmp_path, capsys):
        good = self._artifact(tmp_path)
        history = tmp_path / "history"
        for _ in range(3):
            main(["--history-dir", str(history), "append", good])
        bad_path = tmp_path / "BENCH_bad.json"
        bad_path.write_text(
            json.dumps(synthetic_payload(speedup_uniform=4.0, speedup_self=8.0))
        )
        code = main(
            ["--history-dir", str(history), "check", str(bad_path),
             "--bench", "synthetic"]
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_ungated_bench_check_is_noop(self, tmp_path, capsys):
        path = tmp_path / "BENCH_mystery.json"
        path.write_text("{}")
        assert main(["check", str(path)]) == 0
        assert "no gates registered" in capsys.readouterr().out

    def test_show(self, tmp_path, capsys):
        artifact = self._artifact(tmp_path)
        history = tmp_path / "history"
        main(["--history-dir", str(history), "append", artifact])
        assert main(["--history-dir", str(history), "show", "synthetic"]) == 0
        out = capsys.readouterr().out
        assert "speedup[uniform]" in out


class TestCommittedHistory:
    """The repository's own seed must satisfy its own gate."""

    def test_committed_seed_exists_and_loads(self):
        entries = load_history(HISTORY_DIR / "service.jsonl")
        assert len(entries) >= DEFAULT_MIN_SAMPLES
        for entry in entries:
            assert entry["metrics"]["service_qps"] > 0

    def test_committed_seed_is_self_consistent(self):
        """The last seed entry, replayed as a fresh artifact, passes
        the gate against the history — it is not pre-regressed."""
        entries = load_history(HISTORY_DIR / "service.jsonl")
        payload = {"service_qps": entries[-1]["metrics"]["service_qps"]}
        report = check_artifact(payload, "service", entries)
        assert report.ok, report.describe()
        assert all(result.baseline is not None for result in report.results)
