"""Terminal rendering of a :class:`~repro.obs.report.RunReport`.

``repro report <run.json>`` prints what a finished run looked like:
the phase table (simulated vs wall seconds, I/O counts), and — when the
run was sharded with events enabled — the straggler picture: per-shard
Gantt lanes on the run's timeline, the duration distribution, the
imbalance factor, and the critical path.  Everything here reads the
serialized report only; nothing recomputes or touches a ledger.
"""

from __future__ import annotations

from typing import Any

from repro.obs.report import RunReport
from repro.obs.straggler import ShardLane, StragglerAnalytics

GANTT_WIDTH = 48
"""Character width of the Gantt bar area."""

_BAR_FULL = "█"
_BAR_FAILED = "░"


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 100:
        return f"{value:.0f}s"
    if value >= 1:
        return f"{value:.2f}s"
    return f"{value * 1000:.1f}ms"


def _fmt_ratio(value: float | None, suffix: str = "") -> str:
    return "-" if value is None else f"{value:.2f}{suffix}"


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


def _gantt_bar(lane: ShardLane, span_s: float, origin_s: float) -> str:
    """One lane's bar, positioned on a ``GANTT_WIDTH``-char timeline."""
    if span_s <= 0:
        return _BAR_FULL * (1 if lane.wall_s >= 0 else 0)
    start = int((lane.start_s - origin_s) / span_s * GANTT_WIDTH)
    length = max(1, round(lane.wall_s / span_s * GANTT_WIDTH))
    start = min(start, GANTT_WIDTH - 1)
    length = min(length, GANTT_WIDTH - start)
    char = _BAR_FAILED if lane.failed else _BAR_FULL
    return " " * start + char * length


def render_gantt(analytics: StragglerAnalytics) -> list[str]:
    """Per-shard lanes on the run's relative timeline."""
    lanes = sorted(analytics.lanes, key=lambda lane: (lane.start_s, lane.shard_id))
    if not lanes:
        return []
    origin = min(lane.start_s for lane in lanes)
    span = max(lane.end_s for lane in lanes) - origin
    lines = ["", f"shard lanes ({len(lanes)} shards, "
             f"makespan {_fmt_seconds(analytics.makespan_s)}):"]
    for lane in lanes:
        bar = _gantt_bar(lane, span, origin)
        status = "FAILED" if lane.failed else _fmt_seconds(lane.wall_s)
        extra = f" x{lane.attempts}" if lane.attempts > 1 else ""
        pairs = f" {lane.pairs:,}p" if lane.pairs is not None else ""
        lines.append(
            f"  {lane.shard_id:<12} |{bar:<{GANTT_WIDTH}}| {status}{pairs}{extra}"
        )
    return lines


def render_straggler_summary(analytics: StragglerAnalytics) -> list[str]:
    lines = ["", "straggler analytics:"]
    if analytics.workers is not None:
        lines.append(f"  workers             : {analytics.workers}")
    lines.append(f"  total shard work    : {_fmt_seconds(analytics.total_shard_s)}")
    lines.append(
        f"  imbalance factor    : {_fmt_ratio(analytics.imbalance_factor)}"
        "  (max shard / mean shard; 1.00 = balanced)"
    )
    if analytics.record_imbalance_factor is not None:
        lines.append(
            f"  record imbalance    : "
            f"{_fmt_ratio(analytics.record_imbalance_factor)}"
            "  (max shard records / mean; plan-deterministic)"
        )
    if analytics.parallel_efficiency is not None:
        lines.append(
            f"  parallel efficiency : "
            f"{analytics.parallel_efficiency * 100:.1f}%"
        )
    pct = analytics.duration_percentiles
    if pct:
        lines.append(
            "  shard durations     : "
            f"p50 {_fmt_seconds(pct.get('p50'))}, "
            f"p95 {_fmt_seconds(pct.get('p95'))}, "
            f"p99 {_fmt_seconds(pct.get('p99'))}, "
            f"max {_fmt_seconds(pct.get('max'))}"
        )
    if analytics.retries or analytics.timeouts or analytics.failures:
        lines.append(
            f"  faults              : {analytics.retries} retries, "
            f"{analytics.timeouts} timeouts, {analytics.failures} failures"
        )
    if analytics.critical_path:
        cp = analytics.critical_path
        share = cp.get("share_of_total")
        share_text = f" ({share * 100:.1f}% of shard work)" if share else ""
        lines.append(
            f"  critical path       : {cp['shard_id']} "
            f"({_fmt_seconds(cp.get('wall_s'))}{share_text})"
        )
        phase_wall = cp.get("phase_wall") or {}
        for phase, seconds in phase_wall.items():
            lines.append(f"      {phase:<16}{_fmt_seconds(seconds):>10}")
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
    analytics = (
        StragglerAnalytics.from_dict(report.analytics)
        if report.analytics
        else None
    )
    if analytics is not None and analytics.lanes:
        lines += render_gantt(analytics)
        lines += render_straggler_summary(analytics)
    lines += render_events_summary(report)
    return "\n".join(lines) + "\n"


def analytics_of(report: RunReport) -> StragglerAnalytics | None:
    """The report's analytics, deserialized (None when absent)."""
    if not report.analytics:
        return None
    return StragglerAnalytics.from_dict(report.analytics)


def summary_dict(report: RunReport) -> dict[str, Any]:
    """A compact machine-readable summary (``repro report --json``)."""
    summary: dict[str, Any] = {
        "algorithm": report.algorithm,
        "workload": report.workload,
        "pairs": report.pairs,
        "wall_seconds": report.wall_seconds,
        "simulated_seconds": report.simulated_seconds,
        "phase_table": report.phase_table(),
        "events": len(report.events),
    }
    analytics = analytics_of(report)
    if analytics is not None:
        summary["analytics"] = {
            "shards": analytics.shard_count,
            "workers": analytics.workers,
            "makespan_s": analytics.makespan_s,
            "imbalance_factor": analytics.imbalance_factor,
            "record_imbalance_factor": analytics.record_imbalance_factor,
            "parallel_efficiency": analytics.parallel_efficiency,
            "duration_percentiles": analytics.duration_percentiles,
        }
    return summary
