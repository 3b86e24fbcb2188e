"""CI smoke benchmark: one small instrumented run per algorithm.

Runs ``repro join --report --trace`` for every algorithm on a small
workload, validates that each report parses back into a
:class:`~repro.obs.report.RunReport` containing every Table-2 phase of
its algorithm and that each trace file is a well-formed Chrome
trace-event document, then leaves the JSON artifacts for CI to upload::

    python -m benchmarks.smoke --out-dir bench-artifacts --scale 0.05

The run also exercises the execution observatory: one instrumented S3J
join with the event log streaming to JSONL, whose report must carry
every Table-2 phase and the same event stream that was streamed,
rendered through ``repro report`` both as terminal view and as the
self-contained HTML artifact CI uploads.

Exits nonzero when a report is missing a phase (or anything else is
malformed), so the CI job fails loudly instead of shipping an empty
artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli import main as repro_main
from repro.obs.events import events_from_jsonl
from repro.obs.report import TABLE2_PHASES, RunReport

WORKLOAD = "UN1-UN2"


def run_one(algorithm: str, out_dir: Path, scale: float) -> list[str]:
    """Run one algorithm; return a list of validation failures."""
    report_path = out_dir / f"smoke_{algorithm}.report.json"
    trace_path = out_dir / f"smoke_{algorithm}.trace.json"
    code = repro_main(
        [
            "join",
            "--algorithm",
            algorithm,
            "--workload",
            WORKLOAD,
            "--scale",
            str(scale),
            "--report",
            str(report_path),
            "--trace",
            str(trace_path),
        ]
    )
    if code != 0:
        return [f"{algorithm}: repro join exited with {code}"]

    failures: list[str] = []
    report = RunReport.load(str(report_path))
    for phase in TABLE2_PHASES[algorithm]:
        if phase not in report.metrics.phases:
            failures.append(f"{algorithm}: report is missing phase {phase!r}")
        elif report.metrics.phase_time(phase) <= 0.0:
            failures.append(
                f"{algorithm}: phase {phase!r} has no simulated time"
            )
        if report.phase_wall.get(phase, 0.0) <= 0.0:
            failures.append(f"{algorithm}: phase {phase!r} has no wall time")
    if report.pairs <= 0:
        failures.append(f"{algorithm}: no candidate pairs")

    with open(trace_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        failures.append(f"{algorithm}: trace has no traceEvents")
    return failures


def run_observatory(out_dir: Path, scale: float) -> list[str]:
    """One instrumented run through the execution observatory.

    Streams the event log to JSONL, then requires the report to carry
    every Table-2 phase of S3J and the streamed events, and renders it
    with ``repro report`` — terminal view to stdout, HTML artifact for
    CI to upload.
    """
    report_path = out_dir / "smoke_observatory.report.json"
    events_path = out_dir / "smoke_observatory.events.jsonl"
    html_path = out_dir / "smoke_observatory.html"
    code = repro_main(
        [
            "join",
            "--algorithm",
            "s3j",
            "--workload",
            WORKLOAD,
            "--scale",
            str(scale),
            "--report",
            str(report_path),
            "--events",
            str(events_path),
        ]
    )
    if code != 0:
        return [f"observatory: repro join exited with {code}"]

    failures: list[str] = []
    report = RunReport.load(str(report_path))
    for phase in TABLE2_PHASES["s3j"]:
        if phase not in report.metrics.phases:
            failures.append(f"observatory: report is missing phase {phase!r}")
    if not report.events:
        failures.append("observatory: report carries no events")
    stream = events_from_jsonl(events_path.read_text(encoding="utf-8"))
    if stream != report.events:
        failures.append(
            f"observatory: streamed {len(stream)} events but the report "
            f"carries {len(report.events)} different ones"
        )
    # Render: terminal view to stdout, HTML artifact for upload.
    for render_args in (
        [str(report_path)],
        [str(report_path), "--html", str(html_path)],
    ):
        code = repro_main(["report", *render_args])
        if code != 0:
            failures.append(f"observatory: repro report exited with {code}")
    html = html_path.read_text(encoding="utf-8") if html_path.exists() else ""
    for probe in ("<h2>Phases</h2>", "Span flame view"):
        if probe not in html:
            failures.append(f"observatory: HTML report is missing {probe!r}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="bench-artifacts")
    parser.add_argument("--scale", type=float, default=0.05)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    for algorithm in sorted(TABLE2_PHASES):
        print(f"=== smoke: {algorithm} ===")
        failures.extend(run_one(algorithm, out_dir, args.scale))
    print("=== smoke: observatory ===")
    failures.extend(run_observatory(out_dir, args.scale))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"smoke OK: artifacts in {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
