"""The structured event log: typed, schema-versioned execution events.

Where spans (:mod:`repro.obs.tracer`) describe *how long* each nested
region took after the fact, events describe *what happened when* while
a run is still in flight: a join starting, making progress through its
phases, and completing; the service admitting, answering and rejecting
queries.  The stream lands in the run report and ``repro report``
counts it.

Design (DESIGN.md section 13):

- **Typed** — every event has a ``type`` drawn from :data:`EVENT_TYPES`;
  emitting an unknown type raises immediately (a misspelled hook is a
  bug, not a new event kind).
- **Schema-versioned** — every event carries ``v`` =
  :data:`EVENT_SCHEMA_VERSION` plus ``ts``, a Unix wall-clock timestamp.
- **Streaming** — an :class:`EventLog` opened with a ``stream_path``
  appends each event to a JSONL file the moment it is emitted, so
  ``tail -f`` shows a run's progress live.
- **Zero-cost when disabled** — the default sink everywhere is
  :data:`NULL_EVENTS`; hot loops additionally guard on
  ``events.enabled`` so an un-observed run never builds an event dict.

Events never touch the simulated I/O ledger or the metrics registry:
the parity suite proves a run's ledger is byte-identical with the event
layer on or off.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, TextIO

EVENT_SCHEMA_VERSION = 1

EVENT_TYPES = frozenset(
    {
        "run_started",
        "run_completed",
        "shard_heartbeat",
        "shard_progress",
        "service_started",
        "service_stopped",
        "query_started",
        "query_completed",
        "query_rejected",
        "query_failed",
        "index_updated",
        "compaction_started",
        "compaction_completed",
        "compaction_failed",
        "breaker_opened",
        "breaker_closed",
    }
)
"""Every event type the schema admits.  ``run_*`` bracket a whole join
and ``shard_progress``/``shard_heartbeat`` report its phases from
inside (the names predate the serial-only engine and are kept for the
schema's sake); ``service_*``/``query_*``/``index_updated``/
``compaction_*``/``breaker_*`` describe the long-lived join service
(DESIGN.md section 15).  Both streams flow through the same log,
report, and renderer."""

HEARTBEAT_INTERVAL_S = 0.25
"""Minimum spacing of ``shard_heartbeat`` events: :meth:`EventSink.
heartbeat` may be called once per inner-loop iteration and emits only
when this much wall time passed since the sink's last event."""


class EventSink:
    """The do-nothing base sink: ``emit``/``heartbeat`` are no-ops.

    Hot paths hold a sink reference and guard on :attr:`enabled`, so an
    un-observed run pays one attribute test per hook site and never
    allocates an event.
    """

    enabled = False

    def emit(self, type: str, **fields: Any) -> None:
        """Record one event (no-op here)."""

    def heartbeat(self, phase: str) -> None:
        """Record a liveness beat, rate-limited (no-op here)."""


NULL_EVENTS = EventSink()
"""Shared no-op sink (safe: it never stores anything)."""


class EventLog(EventSink):
    """The enabled sink: validates, timestamps and keeps every event,
    optionally streaming JSONL live.

    ``stream_path`` appends each event to a file as it is emitted (line
    buffered and flushed, so ``tail -f`` follows the run).  A lock
    guards the log, since a sink may be shared across threads.
    """

    enabled = True

    def __init__(self, stream_path: str | None = None) -> None:
        self.events: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._last_ts = 0.0
        self.stream_path = stream_path
        self._stream: TextIO | None = None
        if stream_path is not None:
            self._stream = open(stream_path, "w", encoding="utf-8")

    def emit(self, type: str, **fields: Any) -> None:
        if type not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {type!r}; the schema admits "
                f"{sorted(EVENT_TYPES)}"
            )
        event = {"v": EVENT_SCHEMA_VERSION, "type": type, "ts": time.time(), **fields}
        with self._lock:
            self.events.append(event)
            self._last_ts = event["ts"]
            if self._stream is not None:
                self._stream.write(json.dumps(event, sort_keys=True) + "\n")
                self._stream.flush()

    def heartbeat(self, phase: str) -> None:
        """Emit a ``shard_heartbeat`` if the sink has been quiet for
        :data:`HEARTBEAT_INTERVAL_S` — cheap enough to call every
        iteration of a long inner loop."""
        if time.time() - self._last_ts >= HEARTBEAT_INTERVAL_S:
            self.emit("shard_heartbeat", phase=phase)

    def to_dicts(self) -> list[dict[str, Any]]:
        """The recorded events as plain dicts (shared, do not mutate)."""
        return list(self.events)

    def to_jsonl(self) -> str:
        """One JSON object per event, in emission order."""
        lines = [json.dumps(event, sort_keys=True) for event in self.events]
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self.events)

    def close(self) -> None:
        """Close the stream file (idempotent); the in-memory log stays."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> EventLog:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def events_from_jsonl(text: str) -> list[dict[str, Any]]:
    """Parse a JSONL event stream back into event dicts (validated)."""
    events = []
    for line in text.splitlines():
        if not line.strip():
            continue
        event = json.loads(line)
        if event.get("type") not in EVENT_TYPES:
            raise ValueError(f"unknown event type {event.get('type')!r}")
        events.append(event)
    return events


def progress_emitter(
    events: EventSink, phase: str, total: int, every: int = 1, **fields: Any
) -> Callable[[int, str | None], None] | None:
    """A per-iteration progress callback for a loop of ``total`` steps,
    or ``None`` when events are disabled (callers guard on that, so the
    disabled path costs one truth test per loop, not per iteration).

    The returned callable takes ``(done, detail)`` and emits a
    ``shard_progress`` event every ``every`` completions (always the
    last one), heartbeating in between.
    """
    if not events.enabled:
        return None

    def on_progress(done: int, detail: str | None = None) -> None:
        if done % every == 0 or done >= total:
            payload = dict(fields)
            if detail is not None:
                payload["detail"] = detail
            events.emit(
                "shard_progress", phase=phase, done=done, total=total, **payload
            )
        else:
            events.heartbeat(phase)

    return on_progress
