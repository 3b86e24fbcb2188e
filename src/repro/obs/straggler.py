"""Straggler analytics: load balance computed from the event stream.

Tsitsigkos & Mamoulis (PAPERS.md, 1908.11740) show parallel in-memory
spatial joins live or die by per-partition load balance.  This module
turns the execution event stream (:mod:`repro.obs.events`) into the
numbers that make a straggler shard visible per run:

- the **per-shard duration distribution** (count / mean / exact
  p50 / p95 / p99 / max, via :class:`~repro.obs.metrics.Histogram`);
- the **imbalance factor** — longest shard over mean shard duration,
  the standard makespan-imbalance measure (1.0 = perfectly balanced;
  with ``W`` workers, the run cannot scale past ``shards / imbalance``
  of ideal speedup);
- the **record imbalance factor** — the same max-over-mean ratio on
  per-shard *input records*, a wall-clock-free balance measure that is
  deterministic across hosts and worker counts (durations wobble with
  scheduling; record counts are a pure function of the plan);
- the **critical path** — the longest shard and its per-phase wall
  breakdown, i.e. where the makespan actually went;
- **Gantt lanes** — per-shard ``(start, duration)`` on the run's
  relative timeline, the input to ``repro report``'s shard lanes.

Analytics are derived purely from events — they never touch the ledger
or the metrics registry, so they can never perturb a simulated number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.metrics import Histogram


@dataclass
class ShardLane:
    """One shard's timeline lane, relative to the run's first event."""

    shard_id: str
    kind: str
    start_s: float
    wall_s: float
    attempts: int = 1
    pairs: int | None = None
    records: int | None = None
    phase_wall: dict[str, float] = field(default_factory=dict)
    failed: bool = False

    @property
    def end_s(self) -> float:
        return self.start_s + self.wall_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "kind": self.kind,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "attempts": self.attempts,
            "pairs": self.pairs,
            "records": self.records,
            "phase_wall": dict(self.phase_wall),
            "failed": self.failed,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> ShardLane:
        return cls(
            shard_id=data["shard_id"],
            kind=data["kind"],
            start_s=float(data["start_s"]),
            wall_s=float(data["wall_s"]),
            attempts=int(data.get("attempts", 1)),
            pairs=data.get("pairs"),
            records=data.get("records"),
            phase_wall={
                k: float(v) for k, v in (data.get("phase_wall") or {}).items()
            },
            failed=bool(data.get("failed", False)),
        )


@dataclass
class StragglerAnalytics:
    """Load-balance analytics for one run, JSON round-trippable."""

    lanes: list[ShardLane] = field(default_factory=list)
    makespan_s: float = 0.0
    total_shard_s: float = 0.0
    imbalance_factor: float | None = None
    record_imbalance_factor: float | None = None
    critical_path: dict[str, Any] | None = None
    duration_percentiles: dict[str, float | None] = field(default_factory=dict)
    workers: int | None = None
    parallel_efficiency: float | None = None
    retries: int = 0
    timeouts: int = 0
    failures: int = 0
    progress_events: int = 0
    heartbeats: int = 0

    @property
    def shard_count(self) -> int:
        return len(self.lanes)

    def to_dict(self) -> dict[str, Any]:
        return {
            "shards": [lane.to_dict() for lane in self.lanes],
            "makespan_s": self.makespan_s,
            "total_shard_s": self.total_shard_s,
            "imbalance_factor": self.imbalance_factor,
            "record_imbalance_factor": self.record_imbalance_factor,
            "critical_path": self.critical_path,
            "duration_percentiles": dict(self.duration_percentiles),
            "workers": self.workers,
            "parallel_efficiency": self.parallel_efficiency,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "failures": self.failures,
            "progress_events": self.progress_events,
            "heartbeats": self.heartbeats,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> StragglerAnalytics:
        return cls(
            lanes=[ShardLane.from_dict(d) for d in data.get("shards", [])],
            makespan_s=float(data.get("makespan_s", 0.0)),
            total_shard_s=float(data.get("total_shard_s", 0.0)),
            imbalance_factor=data.get("imbalance_factor"),
            record_imbalance_factor=data.get("record_imbalance_factor"),
            critical_path=data.get("critical_path"),
            duration_percentiles=dict(data.get("duration_percentiles", {})),
            workers=data.get("workers"),
            parallel_efficiency=data.get("parallel_efficiency"),
            retries=int(data.get("retries", 0)),
            timeouts=int(data.get("timeouts", 0)),
            failures=int(data.get("failures", 0)),
            progress_events=int(data.get("progress_events", 0)),
            heartbeats=int(data.get("heartbeats", 0)),
        )


def analyze_events(events: list[dict[str, Any]]) -> StragglerAnalytics:
    """Compute :class:`StragglerAnalytics` from an event stream.

    Tolerates partial streams: a shard with a ``shard_dispatched`` but
    no ``shard_completed`` (failed or still running) gets a zero-length
    lane flagged ``failed`` when a ``shard_failed`` event names it.
    Serial (un-sharded) runs produce no shard events and come back as
    an empty analytics object — callers render phases only.
    """
    analytics = StragglerAnalytics()
    if not events:
        return analytics
    epoch = min(event["ts"] for event in events)

    dispatched: dict[str, dict[str, Any]] = {}
    first_worker_ts: dict[str, float] = {}
    completed: dict[str, dict[str, Any]] = {}
    attempts: dict[str, int] = {}
    failed: set[str] = set()

    for event in events:
        kind = event["type"]
        shard_id = event.get("shard_id")
        if kind == "run_started":
            analytics.workers = event.get("workers", analytics.workers)
        elif kind == "shard_dispatched":
            dispatched.setdefault(shard_id, event)
            attempts[shard_id] = max(
                attempts.get(shard_id, 0), int(event.get("attempt", 1))
            )
        elif kind in ("shard_progress", "shard_heartbeat"):
            if kind == "shard_progress":
                analytics.progress_events += 1
            else:
                analytics.heartbeats += 1
            if shard_id is not None:
                ts = float(event["ts"])
                if shard_id not in first_worker_ts or ts < first_worker_ts[shard_id]:
                    first_worker_ts[shard_id] = ts
        elif kind == "shard_completed":
            completed[shard_id] = event
        elif kind == "shard_retry":
            analytics.retries += 1
        elif kind == "shard_timed_out":
            analytics.timeouts += 1
        elif kind == "shard_failed":
            analytics.failures += 1
            if shard_id is not None:
                failed.add(shard_id)

    durations = Histogram()
    lane_order = list(dispatched)
    for shard_id in completed:
        if shard_id not in dispatched:
            lane_order.append(shard_id)
    for shard_id in lane_order:
        done = completed.get(shard_id)
        origin = dispatched.get(shard_id, done)
        start_ts = first_worker_ts.get(
            shard_id, float(origin["ts"]) if origin else epoch
        )
        wall_s = float(done.get("wall_s", 0.0)) if done else 0.0
        lane = ShardLane(
            shard_id=shard_id,
            kind=(origin or {}).get("kind", "cell"),
            start_s=start_ts - epoch,
            wall_s=wall_s,
            attempts=attempts.get(shard_id, 1),
            pairs=done.get("pairs") if done else None,
            records=(origin or {}).get("records"),
            phase_wall={
                k: float(v)
                for k, v in ((done or {}).get("phase_wall") or {}).items()
            },
            failed=shard_id in failed and done is None,
        )
        analytics.lanes.append(lane)
        if done is not None:
            durations.observe(wall_s)

    if analytics.lanes:
        analytics.makespan_s = max(lane.end_s for lane in analytics.lanes) - min(
            lane.start_s for lane in analytics.lanes
        )
        analytics.total_shard_s = durations.total
        if durations.count and durations.mean > 0:
            analytics.imbalance_factor = (durations.max or 0.0) / durations.mean
        record_counts = [
            lane.records for lane in analytics.lanes if lane.records
        ]
        if record_counts:
            mean_records = sum(record_counts) / len(record_counts)
            if mean_records > 0:
                analytics.record_imbalance_factor = (
                    max(record_counts) / mean_records
                )
        analytics.duration_percentiles = {
            "p50": durations.quantile(0.50),
            "p95": durations.quantile(0.95),
            "p99": durations.quantile(0.99),
            "max": durations.max,
            "mean": durations.mean or None,
        }
        slowest = max(
            (lane for lane in analytics.lanes if not lane.failed),
            key=lambda lane: lane.wall_s,
            default=None,
        )
        if slowest is not None and slowest.wall_s > 0:
            analytics.critical_path = {
                "shard_id": slowest.shard_id,
                "kind": slowest.kind,
                "wall_s": slowest.wall_s,
                "share_of_total": (
                    slowest.wall_s / durations.total if durations.total else None
                ),
                "phase_wall": dict(slowest.phase_wall),
            }
        if analytics.workers and analytics.makespan_s > 0:
            analytics.parallel_efficiency = min(
                1.0,
                analytics.total_shard_s
                / (analytics.makespan_s * analytics.workers),
            )
    return analytics
