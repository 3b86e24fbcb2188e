"""Machine-readable run reports.

A :class:`RunReport` bundles everything one instrumented join produced:

- the :class:`~repro.join.metrics.JoinMetrics` (per-phase ledger
  counters and the cost model that prices them),
- the metrics-registry dump (buffer pool, per-file I/O, scan, DSB and
  sort series),
- the span tree (simulated *and* wall-clock/CPU seconds per phase and
  sub-step),

and round-trips through JSON (``to_json`` / ``from_json``), so
benchmark artifacts and CI uploads can be diffed across PRs instead of
scraping stdout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.fileio import atomic_write_text
from repro.obs.tracer import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at runtime: repro.join pulls in the storage
    # manager, which imports repro.obs — a module-level import here
    # would close that cycle during package initialization.
    from repro.join.metrics import JoinMetrics
    from repro.join.result import JoinResult
    from repro.obs import Observability

SCHEMA_VERSION = 2
"""Version 2 adds the execution event stream (``events``); version-1
reports load with it empty.  Version-2 reports of sharded runs also
carry an ``analytics`` block of per-shard statistics, which loads and is
ignored: the sharded executor that wrote it is gone."""

_ACCEPTED_SCHEMAS = (1, 2)

TABLE2_PHASES: dict[str, tuple[str, ...]] = {
    "s3j": ("partition", "sort", "join"),
    "pbsm": ("partition", "join", "sort"),
    "shj": ("partition", "join"),
}
"""The per-algorithm phases of the paper's Table 2; a report for an
algorithm must contain every one of them (``tests/test_cli.py`` enforces it).
"""


def phase_wall_times(spans: list[Span]) -> dict[str, float]:
    """Wall seconds per phase, attributed to the *innermost* phase span
    — mirroring how the ledger attributes counts to the innermost open
    phase, so e.g. PBSM's repartition rounds (a ``partition`` span
    nested inside ``join``) count as partition, not join, time."""
    acc: dict[str, float] = {}
    _consume_phase_wall(spans, acc)
    return acc


def _consume_phase_wall(spans: list[Span], acc: dict[str, float]) -> float:
    """Accumulate into ``acc``; return wall seconds consumed by phase
    spans anywhere in this forest."""
    consumed = 0.0
    for span in spans:
        inner = _consume_phase_wall(span.children, acc)
        if span.attrs.get("kind") == "phase":
            acc[span.name] = acc.get(span.name, 0.0) + span.wall_s - inner
            consumed += span.wall_s
        else:
            consumed += inner
    return consumed


@dataclass
class RunReport:
    """One instrumented join run, ready for serialization."""

    algorithm: str
    metrics: JoinMetrics
    pairs: int
    wall_seconds: float
    phase_wall: dict[str, float] = field(default_factory=dict)
    registry: dict[str, Any] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    workload: str | None = None
    scale: float | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)

    @property
    def simulated_seconds(self) -> float:
        """Total simulated response time (the cost model's seconds)."""
        return self.metrics.response_time

    @property
    def phase_names(self) -> tuple[str, ...]:
        return self.metrics.all_phase_names

    def phase_table(self) -> dict[str, dict[str, float]]:
        """Per-phase simulated seconds, wall seconds, and I/O counts."""
        table: dict[str, dict[str, float]] = {}
        for name in self.phase_names:
            stats = self.metrics.phases.get(name)
            table[name] = {
                "simulated_s": self.metrics.phase_time(name),
                "wall_s": self.phase_wall.get(name, 0.0),
                "ios": 0 if stats is None else stats.total_ios,
                "reads": 0 if stats is None else stats.page_reads,
                "writes": 0 if stats is None else stats.page_writes,
            }
        return table

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "workload": self.workload,
            "scale": self.scale,
            "pairs": self.pairs,
            "wall_seconds": self.wall_seconds,
            "simulated_seconds": self.simulated_seconds,
            "phase_wall": dict(self.phase_wall),
            "phase_table": self.phase_table(),
            "metrics": self.metrics.to_dict(),
            "registry": self.registry,
            "spans": self.spans,
            "meta": self.meta,
            "events": self.events,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str) -> None:
        """Write the report atomically (temp file + ``os.replace``), so
        an interrupted run never leaves a truncated JSON artifact."""
        atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> RunReport:
        from repro.join.metrics import JoinMetrics

        version = data.get("schema_version")
        if version not in _ACCEPTED_SCHEMAS:
            raise ValueError(
                f"unsupported RunReport schema version {version!r} "
                f"(accepted: {_ACCEPTED_SCHEMAS})"
            )
        return cls(
            algorithm=data["algorithm"],
            metrics=JoinMetrics.from_dict(data["metrics"]),
            pairs=int(data["pairs"]),
            wall_seconds=float(data["wall_seconds"]),
            phase_wall={k: float(v) for k, v in data["phase_wall"].items()},
            registry=data["registry"],
            spans=data["spans"],
            workload=data["workload"],
            scale=data["scale"],
            meta=data.get("meta", {}),
            events=data.get("events", []),
        )

    @classmethod
    def from_json(cls, text: str) -> RunReport:
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> RunReport:
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def build_run_report(
    result: JoinResult,
    obs: Observability,
    workload: str | None = None,
    scale: float | None = None,
    wall_seconds: float | None = None,
    **meta: Any,
) -> RunReport:
    """Assemble the report for one finished join run.

    ``wall_seconds`` defaults to the total wall time of the tracer's
    root spans (the whole instrumented region).
    """
    tracer: Tracer = obs.tracer
    if wall_seconds is None:
        wall_seconds = sum(span.wall_s for span in tracer.roots)
    events = obs.events.to_dicts() if obs.events.enabled else []
    return RunReport(
        algorithm=result.metrics.algorithm,
        metrics=result.metrics,
        pairs=len(result),
        wall_seconds=wall_seconds,
        phase_wall=phase_wall_times(tracer.roots),
        registry=obs.metrics.as_dict(),
        spans=tracer.to_dicts(),
        workload=workload,
        scale=scale,
        meta=dict(meta),
        events=events,
    )
