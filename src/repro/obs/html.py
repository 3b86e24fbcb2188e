"""Self-contained HTML rendering of a :class:`~repro.obs.report.RunReport`.

``repro report run.json --html out.html`` writes a single HTML file —
inline CSS, no JavaScript, no external assets — that renders:

- the run summary and per-phase table (simulated vs wall seconds);
- the **span flame view**: the tracer's nested span tree as stacked
  bars positioned on the run's wall-clock timeline.

Everything is rendered server-side from the serialized report, so the
artifact is safe to archive in CI and opens anywhere.
"""

from __future__ import annotations

import html as html_escape
from typing import Any

from repro.obs.fileio import atomic_write_text
from repro.obs.render import _fmt_seconds
from repro.obs.report import RunReport

_MAX_FLAME_DEPTH = 12

_CSS = """
body { font: 13px/1.45 -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 960px; color: #1a1a2e; padding: 0 1em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.8em; }
table { border-collapse: collapse; margin: 0.6em 0; }
th, td { padding: 0.25em 0.8em; text-align: right; border-bottom: 1px solid #e0e0e8; }
th:first-child, td:first-child { text-align: left; }
th { background: #f4f4f8; }
.timeline { position: relative; background: #f7f7fb; border: 1px solid #e0e0e8;
            border-radius: 3px; margin: 0.4em 0; }
.bar { position: absolute; height: 16px; border-radius: 2px; overflow: hidden;
       font-size: 10px; line-height: 16px; color: #fff; padding-left: 3px;
       white-space: nowrap; box-sizing: border-box; }
footer { margin-top: 3em; color: #888; font-size: 11px; }
"""

_FLAME_COLORS = (
    "#4a7ebb", "#5b9aa0", "#6b8e23", "#b8860b", "#c0504d",
    "#8064a2", "#4bacc6", "#9a6a4f",
)


def _esc(value: Any) -> str:
    return html_escape.escape(str(value))


def _flame_rows(
    spans: list[dict[str, Any]],
    origin_s: float,
    total_s: float,
    depth: int,
    rows: list[str],
) -> int:
    """Append one absolutely-positioned bar per span; returns max depth."""
    deepest = depth
    for span in spans:
        if depth >= _MAX_FLAME_DEPTH or total_s <= 0:
            break
        left = max(0.0, (span["start_s"] - origin_s) / total_s * 100)
        width = max(0.15, span["wall_s"] / total_s * 100)
        width = min(width, 100 - left)
        color = _FLAME_COLORS[depth % len(_FLAME_COLORS)]
        title = (
            f"{span['name']} — {_fmt_seconds(span['wall_s'])} wall, "
            f"{_fmt_seconds(span['cpu_s'])} cpu"
        )
        rows.append(
            f'<div class="bar" style="left:{left:.3f}%;width:{width:.3f}%;'
            f"top:{depth * 19}px;background:{color}\" "
            f'title="{_esc(title)}">{_esc(span["name"])}</div>'
        )
        child_deepest = _flame_rows(
            span.get("children", []), origin_s, total_s, depth + 1, rows
        )
        deepest = max(deepest, child_deepest)
    return deepest


def _flame_section(report: RunReport) -> str:
    spans = report.spans
    if not spans:
        return ""
    origin = min(span["start_s"] for span in spans)
    total = max(
        span["start_s"] + span["wall_s"] for span in spans
    ) - origin
    rows: list[str] = []
    deepest = _flame_rows(spans, origin, total, 0, rows)
    height = (deepest + 1) * 19 + 4
    return (
        "<h2>Span flame view</h2>"
        f"<p>Wall-clock timeline, {_fmt_seconds(total)} total; hover a bar "
        "for its wall/CPU split.</p>"
        f'<div class="timeline" style="height:{height}px">'
        + "".join(rows)
        + "</div>"
    )


def _phase_section(report: RunReport) -> str:
    table = report.phase_table()
    if not table:
        return ""
    rows = "".join(
        f"<tr><td>{_esc(name)}</td><td>{row['simulated_s']:.2f}s</td>"
        f"<td>{_fmt_seconds(row['wall_s'])}</td><td>{row['ios']:,.0f}</td>"
        f"<td>{row['reads']:,.0f}</td><td>{row['writes']:,.0f}</td></tr>"
        for name, row in table.items()
    )
    return (
        "<h2>Phases</h2><table><thead><tr><th>phase</th><th>simulated</th>"
        "<th>wall</th><th>I/Os</th><th>reads</th><th>writes</th></tr></thead>"
        f"<tbody>{rows}</tbody></table>"
    )


def render_html(report: RunReport) -> str:
    """The report as one self-contained HTML document."""
    mode = report.metrics.details.get("mode", "ledger")
    workload = report.workload or "?"
    scale = f" @ scale {report.scale}" if report.scale is not None else ""
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>repro report — {_esc(report.algorithm)} on "
        f"{_esc(workload)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(report.algorithm)} on {_esc(workload)}{_esc(scale)}</h1>",
        f"<p>mode <b>{_esc(mode)}</b> · <b>{report.pairs:,}</b> pairs · "
        f"{_fmt_seconds(report.wall_seconds)} wall · "
        f"{report.simulated_seconds:.2f}s simulated · "
        f"{len(report.events)} events</p>",
        _phase_section(report),
        _flame_section(report),
        "<footer>Generated by <code>repro report</code> — Size Separation "
        "Spatial Join reproduction. Self-contained; no external assets."
        "</footer></body></html>",
    ]
    return "".join(parts)


def write_html_report(report: RunReport, path: str) -> None:
    """Render and write the HTML artifact atomically."""
    atomic_write_text(path, render_html(report))
