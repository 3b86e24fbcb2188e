"""Benchmark trajectory store: history, deltas, and the regression gate.

Every ``BENCH_*.json`` artifact is a point-in-time number; this module
gives them a time axis.  ``append`` folds an artifact into a JSONL
history file (one entry per benchmark run, schema-versioned); ``check``
compares a fresh artifact against the **rolling median** of the last
``WINDOW`` history entries and fails when a gated metric regressed by
more than its threshold (default 20%); ``show`` prints the trajectory.

Gating policy:

- A tight (default 20%) gate suits only a **machine-portable ratio**
  — both sides of the division ran on the same host in the same
  process, so it survives moving between the dev box and a CI runner.
  Host-dependent metrics (the one series left, ``service_qps``) get a
  wide threshold, so only a collapse — not a slower runner — fires.
- The comparison baseline is the rolling **median**, not the last run
  — one noisy history entry cannot poison the gate.
- A gate needs ``min_samples`` history entries before it fires; until
  then it reports "insufficient history" and passes, so a fresh clone
  is never blocked by its own first run.

CLI::

    python -m benchmarks.trajectory append BENCH_service.json
    python -m benchmarks.trajectory check  BENCH_service.json
    python -m benchmarks.trajectory show   service

The history file defaults to ``benchmarks/history/<bench>.jsonl``
(committed, so CI has a baseline) and is written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.obs.fileio import atomic_write_text

HISTORY_SCHEMA_VERSION = 1

HISTORY_DIR = Path(__file__).resolve().parent / "history"
"""Committed rolling-baseline home: ``benchmarks/history/<bench>.jsonl``."""

WINDOW = 8
"""History entries the rolling median is computed over (most recent)."""

DEFAULT_THRESHOLD = 0.20
"""A gated metric may degrade by at most this fraction vs the median."""

DEFAULT_MIN_SAMPLES = 3
"""History entries a gate needs before it can fire."""


@dataclass(frozen=True)
class GateSpec:
    """One gated metric of one benchmark.

    ``direction`` is ``"higher"`` when bigger is better (speedup,
    throughput) or ``"lower"`` when smaller is better (latency).
    ``select`` extracts the metric values from an artifact payload as
    ``{series_label: value}`` — one gate can cover several rows.
    """

    metric: str
    select: Callable[[dict[str, Any]], dict[str, float]]
    direction: str = "higher"
    threshold: float = DEFAULT_THRESHOLD
    min_samples: int = DEFAULT_MIN_SAMPLES

    def regressed(self, current: float, baseline: float) -> bool:
        if baseline <= 0:
            return False
        if self.direction == "higher":
            return current < baseline * (1.0 - self.threshold)
        return current > baseline * (1.0 + self.threshold)


def _service_qps(payload: dict[str, Any]) -> dict[str, float]:
    if "service_qps" not in payload:
        return {}
    return {"service_qps": float(payload["service_qps"])}


GATES: dict[str, tuple[GateSpec, ...]] = {
    # Service throughput over real TCP is host-dependent, so it only
    # fires on a collapse, not on a slower runner; correctness of every
    # response is checked inside the benchmark itself.
    "service": (
        GateSpec(metric="service_qps", select=_service_qps, threshold=0.60),
    ),
}
"""Per-benchmark gate specs; benchmarks without an entry are
history-tracked only."""


# -- history file ------------------------------------------------------


def bench_name_of(artifact_path: str | os.PathLike[str]) -> str:
    """``BENCH_service.json`` -> ``service``."""
    stem = Path(artifact_path).name
    if stem.startswith("BENCH_") and stem.endswith(".json"):
        return stem[len("BENCH_") : -len(".json")]
    return Path(artifact_path).stem


def history_path(bench: str, history_dir: Path | None = None) -> Path:
    return (history_dir or HISTORY_DIR) / f"{bench}.jsonl"


def load_history(path: Path) -> list[dict[str, Any]]:
    """Parse a history JSONL file (missing file -> empty history)."""
    if not path.exists():
        return []
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        entry = json.loads(line)
        if entry.get("schema") != HISTORY_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported history schema {entry.get('schema')!r} in {path}"
            )
        entries.append(entry)
    return entries


def make_entry(
    bench: str, payload: dict[str, Any], meta: dict[str, Any] | None = None
) -> dict[str, Any]:
    """One history entry: every gate's metrics plus run configuration."""
    metrics: dict[str, float] = {}
    for gate in GATES.get(bench, ()):
        metrics.update(gate.select(payload))
    config = {
        key: payload[key]
        for key in (
            "entities",
            "entities_per_side",
            "clients",
            "ops_per_client",
        )
        if key in payload
    }
    return {
        "schema": HISTORY_SCHEMA_VERSION,
        "bench": bench,
        "ts": time.time(),
        "config": config,
        "metrics": metrics,
        "meta": meta or {},
    }


def append_entry(
    bench: str,
    payload: dict[str, Any],
    history_dir: Path | None = None,
    meta: dict[str, Any] | None = None,
) -> Path:
    """Fold one artifact into the history (atomic rewrite)."""
    path = history_path(bench, history_dir)
    entries = load_history(path)
    entries.append(make_entry(bench, payload, meta))
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in entries)
    atomic_write_text(path, text)
    return path


# -- the gate ----------------------------------------------------------


@dataclass
class GateResult:
    """One metric series' verdict."""

    metric: str
    current: float
    baseline: float | None
    samples: int
    regressed: bool
    threshold: float
    direction: str

    @property
    def delta(self) -> float | None:
        if self.baseline is None or self.baseline == 0:
            return None
        return self.current / self.baseline - 1.0

    def describe(self) -> str:
        if self.baseline is None:
            return (
                f"{self.metric}: {self.current:.3f} "
                f"(insufficient history: {self.samples} samples)"
            )
        arrow = "REGRESSED" if self.regressed else "ok"
        return (
            f"{self.metric}: {self.current:.3f} vs median {self.baseline:.3f} "
            f"({self.delta:+.1%}, {self.direction} is better, "
            f"threshold {self.threshold:.0%}) {arrow}"
        )


@dataclass
class GateReport:
    """The whole artifact's verdict against its history."""

    bench: str
    results: list[GateResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(result.regressed for result in self.results)

    def describe(self) -> str:
        lines = [f"trajectory gate: {self.bench}"]
        lines += [f"  {result.describe()}" for result in self.results]
        lines.append(f"  => {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def check_artifact(
    payload: dict[str, Any],
    bench: str,
    history: list[dict[str, Any]],
    window: int = WINDOW,
) -> GateReport:
    """Gate one artifact against the rolling median of its history."""
    report = GateReport(bench=bench)
    recent = history[-window:]
    for gate in GATES.get(bench, ()):
        for label, current in sorted(gate.select(payload).items()):
            series = [
                entry["metrics"][label]
                for entry in recent
                if label in entry.get("metrics", {})
            ]
            if len(series) < gate.min_samples:
                report.results.append(
                    GateResult(
                        metric=label,
                        current=current,
                        baseline=None,
                        samples=len(series),
                        regressed=False,
                        threshold=gate.threshold,
                        direction=gate.direction,
                    )
                )
                continue
            baseline = statistics.median(series)
            report.results.append(
                GateResult(
                    metric=label,
                    current=current,
                    baseline=baseline,
                    samples=len(series),
                    regressed=gate.regressed(current, baseline),
                    threshold=gate.threshold,
                    direction=gate.direction,
                )
            )
    return report


# -- CLI ---------------------------------------------------------------


def _load_artifact(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def cmd_check(args: argparse.Namespace) -> int:
    payload = _load_artifact(args.artifact)
    bench = args.bench or bench_name_of(args.artifact)
    if bench not in GATES:
        print(f"no gates registered for benchmark {bench!r}; nothing to check")
        return 0
    history = load_history(history_path(bench, args.history_dir))
    report = check_artifact(payload, bench, history, window=args.window)
    print(report.describe())
    return 0 if report.ok else 1


def cmd_append(args: argparse.Namespace) -> int:
    payload = _load_artifact(args.artifact)
    bench = args.bench or bench_name_of(args.artifact)
    meta = {"source": os.path.basename(args.artifact)}
    path = append_entry(bench, payload, args.history_dir, meta=meta)
    entries = load_history(path)
    print(f"appended to {path} ({len(entries)} entries)")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    path = history_path(args.bench, args.history_dir)
    entries = load_history(path)
    if not entries:
        print(f"no history for {args.bench!r} at {path}")
        return 1
    labels = sorted(
        {label for entry in entries for label in entry.get("metrics", {})}
    )
    print(f"{args.bench}: {len(entries)} entries in {path}")
    for label in labels:
        series = [
            entry["metrics"][label]
            for entry in entries
            if label in entry.get("metrics", {})
        ]
        recent = series[-WINDOW:]
        median = statistics.median(recent)
        print(
            f"  {label:<36} last={series[-1]:.3f} "
            f"median[{len(recent)}]={median:.3f} "
            f"min={min(series):.3f} max={max(series):.3f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajectory", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--history-dir",
        type=Path,
        default=None,
        help=f"history directory (default: {HISTORY_DIR})",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser(
        "check", help="gate an artifact against the rolling median"
    )
    check.add_argument("artifact", help="a BENCH_*.json artifact")
    check.add_argument("--bench", default=None, help="benchmark name override")
    check.add_argument("--window", type=int, default=WINDOW)

    append = commands.add_parser(
        "append", help="fold an artifact into the history"
    )
    append.add_argument("artifact", help="a BENCH_*.json artifact")
    append.add_argument("--bench", default=None, help="benchmark name override")

    show = commands.add_parser("show", help="print a benchmark's trajectory")
    show.add_argument("bench", help="benchmark name (e.g. service)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"check": cmd_check, "append": cmd_append, "show": cmd_show}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
