"""repro.obs — the observability subsystem.

Three pieces (see DESIGN.md section 8):

- :class:`Tracer` — nested spans (phase → sub-step) capturing wall-
  clock, process-CPU, and simulated seconds; exportable as JSONL and
  Chrome trace-event JSON (``chrome://tracing``).
- :class:`MetricsRegistry` — named counters/gauges/histograms fed by
  hooks in the buffer pool, the I/O ledger, paged files, the
  synchronized scan, the DSB, and the external sorter.
- :class:`RunReport` — a machine-readable bundle of one run's
  :class:`~repro.join.metrics.JoinMetrics`, metric series, and span
  tree, with JSON round-tripping.

An :class:`Observability` object carries one tracer plus one registry
and is threaded through :class:`~repro.storage.manager.StorageManager`.
The default is :data:`NULL_OBS` (no-op tracer and registry): an
uninstrumented run allocates nothing and — by construction, verified by
the parity tests — records the exact same simulated ledger as an
instrumented one.

Typical use::

    from repro.obs import Observability
    obs = Observability()                  # enabled tracer + registry
    result = spatial_join(a, b, obs=obs)
    report = build_run_report(result, obs)
    report.save("run.json")
"""

from __future__ import annotations

from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    NULL_EVENTS,
    EventLog,
    EventSink,
    events_from_jsonl,
    progress_emitter,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    series_key,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.report import (
    TABLE2_PHASES,
    RunReport,
    build_run_report,
    phase_wall_times,
)


class Observability:
    """One run's tracer, metrics registry, and event sink.

    ``Observability()`` builds an enabled tracer and registry; pass
    explicit instances to mix (e.g. tracing without metrics).  The
    event sink defaults to :data:`NULL_EVENTS` — opt into the event
    stream with ``Observability(events=EventLog())`` (see
    :mod:`repro.obs.events`).
    """

    __slots__ = ("tracer", "metrics", "events")

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        events: EventSink | None = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else NULL_EVENTS

    @property
    def enabled(self) -> bool:
        return (
            self.tracer.enabled or self.metrics.enabled or self.events.enabled
        )

    @property
    def active_metrics(self) -> MetricsRegistry | None:
        """The registry when enabled, else None — the convention the
        low-level hooks use to skip instrumentation entirely."""
        return self.metrics if self.metrics.enabled else None

    @classmethod
    def disabled(cls) -> Observability:
        """A fresh all-disabled instance (prefer :data:`NULL_OBS`)."""
        return cls(
            tracer=NullTracer(), metrics=NullMetricsRegistry(), events=EventSink()
        )


NULL_OBS = Observability(
    tracer=NULL_TRACER, metrics=NULL_METRICS, events=NULL_EVENTS
)
"""The shared no-op observability object (safe: it stores nothing)."""

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "EventLog",
    "EventSink",
    "Histogram",
    "MetricsRegistry",
    "NULL_EVENTS",
    "NULL_METRICS",
    "NULL_OBS",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "Observability",
    "RunReport",
    "Span",
    "TABLE2_PHASES",
    "Tracer",
    "build_run_report",
    "events_from_jsonl",
    "phase_wall_times",
    "progress_emitter",
    "series_key",
]
