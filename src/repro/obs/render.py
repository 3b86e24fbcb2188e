"""Terminal rendering of a :class:`~repro.obs.report.RunReport`.

``repro report <run.json>`` prints what a finished run looked like:
the phase table (simulated vs wall seconds, I/O counts) and a count of
its events by type.  Everything here reads the serialized report only;
nothing recomputes or touches a ledger.
"""

from __future__ import annotations

from typing import Any

from repro.obs.report import RunReport


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 100:
        return f"{value:.0f}s"
    if value >= 1:
        return f"{value:.2f}s"
    return f"{value * 1000:.1f}ms"


def render_header(report: RunReport) -> list[str]:
    lines = [f"algorithm : {report.algorithm}"]
    if report.workload:
        scale = f" (scale {report.scale})" if report.scale is not None else ""
        lines.append(f"workload  : {report.workload}{scale}")
    mode = report.metrics.details.get("mode", "ledger")
    lines.append(f"mode      : {mode}")
    lines.append(f"pairs     : {report.pairs:,}")
    lines.append(
        f"time      : {_fmt_seconds(report.wall_seconds)} wall, "
        f"{report.simulated_seconds:.2f}s simulated"
    )
    return lines


def render_phase_table(report: RunReport) -> list[str]:
    table = report.phase_table()
    if not table:
        return []
    lines = [
        "",
        f"{'phase':<12}{'simulated':>11}{'wall':>10}{'I/Os':>10}"
        f"{'reads':>9}{'writes':>9}",
    ]
    for name, row in table.items():
        lines.append(
            f"{name:<12}{row['simulated_s']:>10.2f}s"
            f"{_fmt_seconds(row['wall_s']):>10}{row['ios']:>10,.0f}"
            f"{row['reads']:>9,.0f}{row['writes']:>9,.0f}"
        )
    return lines


def render_events_summary(report: RunReport) -> list[str]:
    if not report.events:
        return []
    counts: dict[str, int] = {}
    for event in report.events:
        counts[event["type"]] = counts.get(event["type"], 0) + 1
    parts = ", ".join(f"{n} {t}" for t, n in sorted(counts.items()))
    return ["", f"events    : {len(report.events)} ({parts})"]


def render_report(report: RunReport) -> str:
    """The full terminal view of one run report."""
    lines = render_header(report)
    lines += render_phase_table(report)
    lines += render_events_summary(report)
    return "\n".join(lines) + "\n"


def summary_dict(report: RunReport) -> dict[str, Any]:
    """A compact machine-readable summary (``repro report --json``)."""
    return {
        "algorithm": report.algorithm,
        "workload": report.workload,
        "pairs": report.pairs,
        "wall_seconds": report.wall_seconds,
        "simulated_seconds": report.simulated_seconds,
        "phase_table": report.phase_table(),
        "events": len(report.events),
    }
