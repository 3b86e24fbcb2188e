"""The asyncio query front-end of the join service.

Three defensive layers sit between a request and the index, each one a
standard serving-system idiom in pure python:

- **Token-bucket rate limiting** — ``rate`` queries/second with a
  ``burst`` allowance; a query arriving to an empty bucket is rejected
  up front (``status="rejected"``) without touching the index.
- **A circuit breaker** — repeated query failures (a storage error:
  an ``OSError`` from the file-I/O seam, or a
  :class:`~repro.storage.durable.DurableStoreError` such as a slot
  checksum mismatch) trip it open; while open the service does not
  touch the failing storage at all and serves **declared-partial**
  results — an empty pair set carrying a :class:`ShardFailure` that
  names the open breaker, never a silent wrong answer.  After
  ``reset_s`` one probe is let through (half-open); success closes the
  breaker.
- **An LRU result cache** of the current index epoch — any insert,
  delete, *or compaction* advances the epoch, and the cache empties the
  first time it sees a newer one, so entries are only reused while the
  live set and its backing files are exactly those the entry was
  computed against, and none outlives them.

Queries execute inline on the event loop (the index is single-writer
and the scans are simulated-I/O bound); no request suspends, so each
runs to completion before the next begins.  Everything observable flows
through the session's :mod:`repro.obs` registry and event log, so
``repro report`` renders a service run exactly like a batch join run.
"""

from __future__ import annotations

import asyncio
import enum
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable

from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.result import Pair
from repro.service.index import PersistentIndex
from repro.storage.durable import DurableStoreError

Clock = Callable[[], float]


@dataclass(frozen=True)
class ShardFailure:
    """One unit of work that could not be completed, in a JSON-ready
    form — what a declared-partial reply reports instead of raising."""

    shard_id: str
    kind: str
    error_type: str
    message: str
    attempts: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning of one :class:`JoinService` instance.  The background
    compactor has no knob: it wakes when a mutation leaves the index
    due for a fold (:attr:`PersistentIndex.needs_compaction`)."""

    rate: float | None = None  # queries/second; None = unlimited
    burst: int = 16
    cache_size: int = 128
    breaker_threshold: int = 3  # consecutive failures that trip it
    breaker_reset_s: float = 0.05  # open -> half-open probe delay

    def __post_init__(self) -> None:
        # Written so NaN fails them: a NaN rate would admit every query,
        # and a NaN reset delay would hold a tripped breaker open for good.
        if self.rate is not None and not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite (or None for unlimited)")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if not 0 <= self.breaker_reset_s < math.inf:
            raise ValueError("breaker_reset_s must be finite and non-negative")


class TokenBucket:
    """The classic token bucket: ``rate`` tokens/second, ``burst`` cap.

    ``try_acquire`` is non-blocking — the service rejects rather than
    delays, so an overloaded client sees back-pressure immediately.
    A ``rate`` of ``None`` disables limiting (always admits).
    """

    def __init__(
        self, rate: float | None, burst: int, clock: Clock = time.monotonic
    ) -> None:
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        if self.rate is None:
            return True
        now = self._clock()
        self._tokens = min(
            float(self.burst), self._tokens + (now - self._last) * self.rate
        )
        self._last = now
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Trips open after ``threshold`` consecutive failures.

    While open, :meth:`allow` is False — callers serve declared-partial
    results without touching the protected resource.  After ``reset_s``
    the breaker goes half-open: exactly one probe is admitted; its
    success closes the breaker, its failure re-opens it (and restarts
    the reset clock).
    """

    def __init__(
        self, threshold: int, reset_s: float, clock: Clock = time.monotonic
    ) -> None:
        self.threshold = threshold
        self.reset_s = reset_s
        self._clock = clock
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        self.opened_count = 0

    @property
    def state(self) -> BreakerState:
        self._maybe_half_open()
        return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._consecutive_failures

    def _maybe_half_open(self) -> None:
        if (
            self._state is BreakerState.OPEN
            and self._clock() - self._opened_at >= self.reset_s
        ):
            self._state = BreakerState.HALF_OPEN
            self._probe_inflight = False

    def allow(self) -> bool:
        """Whether a request may touch the protected resource now."""
        self._maybe_half_open()
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.HALF_OPEN and not self._probe_inflight:
            self._probe_inflight = True  # one probe at a time
            return True
        return False

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._probe_inflight = False
        self._state = BreakerState.CLOSED

    def record_failure(self) -> bool:
        """Count one failure; returns True when this call opened it."""
        self._maybe_half_open()
        self._consecutive_failures += 1
        tripped = (
            self._state is BreakerState.HALF_OPEN
            or self._consecutive_failures >= self.threshold
        )
        if tripped and self._state is not BreakerState.OPEN:
            self._state = BreakerState.OPEN
            self._opened_at = self._clock()
            self._probe_inflight = False
            self.opened_count += 1
            return True
        if tripped:
            self._opened_at = self._clock()
        return False


class ResultCache:
    """A plain LRU cache of one index epoch's answers.

    Every lookup and store names the epoch it runs at, and the first one
    at a new epoch empties the cache: an entry is never served against
    another live set, and none that a mutation made unreachable stays
    pinned until the LRU gets round to it."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.epoch: int | None = None
        self._entries: dict[Any, Any] = {}
        self.hits = 0
        self.misses = 0

    def _at(self, epoch: int) -> None:
        if epoch != self.epoch:
            self._entries.clear()
            self.epoch = epoch

    def get(self, key: Any, epoch: int) -> Any | None:
        self._at(epoch)
        try:
            value = self._entries.pop(key)
        except KeyError:
            self.misses += 1
            return None
        self._entries[key] = value  # re-insertion = most recent
        self.hits += 1
        return value

    def put(self, key: Any, epoch: int, value: Any) -> None:
        self._at(epoch)
        if self.maxsize == 0:
            return
        self._entries.pop(key, None)
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.pop(next(iter(self._entries)))

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class QueryOutcome:
    """What one query returned, JSON-ready.

    ``status`` is the service's trichotomy: ``"ok"`` (correct),
    ``"failed"`` (loud: a typed error, named in ``error``),
    ``"partial"`` (declared: ``failures`` says why the result is
    incomplete — only ever emitted with the breaker open), or
    ``"rejected"`` (admission: the query never executed).
    """

    op: str
    status: str
    epoch: int
    eids: tuple[int, ...] | None = None
    pairs: frozenset[Pair] | None = None
    failures: tuple[ShardFailure, ...] = ()
    cached: bool = False
    error: str | None = None

    @property
    def complete(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "status": self.status,
            "epoch": self.epoch,
            "eids": list(self.eids) if self.eids is not None else None,
            "pairs": (
                sorted(list(pair) for pair in self.pairs)
                if self.pairs is not None
                else None
            ),
            "failures": [failure.to_dict() for failure in self.failures],
            "cached": self.cached,
            "error": self.error,
        }


def _require_finite(**coordinates: float) -> None:
    """NaN compares false with everything, so a non-finite query would
    pass ``Rect``'s ordering check and silently match nothing."""
    for field, value in coordinates.items():
        if not math.isfinite(value):
            raise ValueError(f"query coordinate {field} must be finite, got {value!r}")


class JoinService:
    """The long-lived query front-end over one :class:`PersistentIndex`.

    No request suspends: each method runs straight through, so
    :class:`ServiceServer` completes a request in the callback that read
    it and no other request sees the index half-way.  That invariant, not
    a lock, serializes requests; group commit (ROADMAP item 8) must bring
    explicit serialization back with its first await that can wait.
    """

    def __init__(
        self,
        index: PersistentIndex,
        config: ServiceConfig | None = None,
        clock: Clock = time.monotonic,
    ) -> None:
        self.index = index
        self.config = config or ServiceConfig()
        self.obs = index.obs
        self.bucket = TokenBucket(self.config.rate, self.config.burst, clock)
        self.breaker = CircuitBreaker(
            self.config.breaker_threshold, self.config.breaker_reset_s, clock
        )
        self.cache = ResultCache(self.config.cache_size)
        self._compactor: asyncio.Task[None] | None = None
        self._delta_grew = asyncio.Event()
        self.queries = 0
        self.rejected = 0
        self.failed = 0
        self.partial = 0

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Emit the start event and launch the background compactor."""
        events = self.obs.events
        if events.enabled:
            events.emit(
                "service_started",
                entities=len(self.index),
                epoch=self.index.epoch,
            )
        if self._compactor is None:
            self._compactor = asyncio.create_task(self._compaction_loop())

    async def stop(self) -> None:
        """Stop the compactor and emit the stop event (index stays open)."""
        if self._compactor is not None:
            self._compactor.cancel()
            try:
                await self._compactor
            except asyncio.CancelledError:
                pass
            self._compactor = None
        events = self.obs.events
        if events.enabled:
            events.emit(
                "service_stopped",
                queries=self.queries,
                epoch=self.index.epoch,
                compactions=self.index.compactions,
            )

    async def __aenter__(self) -> JoinService:
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- mutations -------------------------------------------------------

    async def insert(self, entity: Entity) -> int:
        """Insert one entity; returns the new epoch."""
        epoch = self.index.insert(entity)
        self._note_mutation("insert", entity.eid, epoch)
        return epoch

    async def delete(self, eid: int) -> int:
        """Delete one live entity; returns the new epoch."""
        epoch = self.index.delete(eid)
        self._note_mutation("delete", eid, epoch)
        return epoch

    def _note_mutation(self, op: str, eid: int, epoch: int) -> None:
        events = self.obs.events
        if events.enabled:
            events.emit("index_updated", op=op, eid=eid, epoch=epoch)
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.count("service.mutations", op=op)
        if self.index.needs_compaction:
            self._delta_grew.set()

    async def compact(self) -> bool:
        """Run one compaction now (also what the background loop calls)."""
        events = self.obs.events
        pending = self.index.delta_records
        if pending == 0:
            return False
        if events.enabled:
            events.emit(
                "compaction_started",
                delta_records=pending,
                epoch=self.index.epoch,
            )
        compacted = self.index.compact()
        if events.enabled:
            events.emit(
                "compaction_completed",
                epoch=self.index.epoch,
                compactions=self.index.compactions,
                **self.index.last_fold,
            )
        metrics = self.obs.active_metrics
        if metrics is not None:
            metrics.count("service.compactions")
        return compacted

    async def _compaction_loop(self) -> None:
        """Background compactor: fold the delta whenever the index is
        due, then sleep until a mutation leaves it due again.

        A failed fold is loud in the event log (``compaction_failed``)
        and does not end the loop, so :meth:`stop` still returns.  It
        cannot spin: only a mutation wakes the loop, and a store whose
        write failed refuses every mutation until it is reopened."""
        while True:
            self._delta_grew.clear()
            if self.index.needs_compaction:
                try:
                    await self.compact()
                except (OSError, DurableStoreError) as error:
                    events = self.obs.events
                    if events.enabled:
                        events.emit(
                            "compaction_failed",
                            error=f"{type(error).__name__}: {error}",
                            epoch=self.index.epoch,
                        )
            await self._delta_grew.wait()

    # -- queries ---------------------------------------------------------

    async def point(self, x: float, y: float) -> QueryOutcome:
        _require_finite(x=x, y=y)
        return await self._query("point", ("point", x, y))

    async def window(
        self, xlo: float, ylo: float, xhi: float, yhi: float
    ) -> QueryOutcome:
        """A window may reach outside the unit square (only the part
        inside can hit anything) but every corner must be a number."""
        _require_finite(xlo=xlo, ylo=ylo, xhi=xhi, yhi=yhi)
        return await self._query("window", ("window", xlo, ylo, xhi, yhi))

    async def join(self) -> QueryOutcome:
        return await self._query("join", ("join",))

    async def _query(self, op: str, key: tuple[Any, ...]) -> QueryOutcome:
        self.queries += 1
        events = self.obs.events
        metrics = self.obs.active_metrics
        if not self.bucket.try_acquire():
            self.rejected += 1
            if events.enabled:
                events.emit("query_rejected", op=op, reason="rate_limited")
            if metrics is not None:
                metrics.count("service.queries", op=op, status="rejected")
            return QueryOutcome(
                op=op,
                status="rejected",
                epoch=self.index.epoch,
                error="rate limited",
            )
        if events.enabled:
            events.emit("query_started", op=op, epoch=self.index.epoch)
        outcome = self._execute(op, key)
        if events.enabled:
            if outcome.status == "failed":
                events.emit("query_failed", op=op, error=outcome.error)
            else:
                events.emit(
                    "query_completed",
                    op=op,
                    status=outcome.status,
                    epoch=outcome.epoch,
                    cached=outcome.cached,
                )
        if metrics is not None:
            metrics.count("service.queries", op=op, status=outcome.status)
        return outcome

    def _execute(self, op: str, key: tuple[Any, ...]) -> QueryOutcome:
        """The synchronous query core: cache -> breaker -> index."""
        epoch = self.index.epoch
        cached = self.cache.get(key, epoch)
        if cached is not None:
            return replace(cached, cached=True)
        if not self.breaker.allow():
            self.partial += 1
            return QueryOutcome(
                op=op,
                status="partial",
                epoch=epoch,
                eids=() if op in ("point", "window") else None,
                pairs=frozenset() if op == "join" else None,
                failures=(
                    ShardFailure(
                        shard_id="service",
                        kind="breaker",
                        error_type="CircuitOpen",
                        message=(
                            "circuit breaker open after repeated query "
                            "failures; declared-partial result"
                        ),
                        attempts=0,
                    ),
                ),
            )
        try:
            if op == "point":
                answer = {"eids": self.index.point_query(key[1], key[2])}
            elif op == "window":
                answer = {"eids": self.index.window_query(Rect(*key[1:]))}
            elif op == "join":
                answer = {"pairs": self.index.self_join()}
            else:
                raise ValueError(f"unknown query op {op!r}")
            outcome = QueryOutcome(op=op, status="ok", epoch=epoch, **answer)
        except (OSError, DurableStoreError) as error:
            self.failed += 1
            opened = self.breaker.record_failure()
            if opened:
                events = self.obs.events
                if events.enabled:
                    events.emit(
                        "breaker_opened",
                        failures=self.breaker.consecutive_failures,
                    )
            return QueryOutcome(
                op=op,
                status="failed",
                epoch=epoch,
                error=f"{type(error).__name__}: {error}",
            )
        was_recovering = self.breaker.state is not BreakerState.CLOSED
        self.breaker.record_success()
        if was_recovering:
            events = self.obs.events
            if events.enabled:
                events.emit("breaker_closed")
        self.cache.put(key, epoch, outcome)
        return outcome

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """A JSON-ready service snapshot (the ``stats`` server op);
        ``pool_hit_ratio`` is the ledger's ``query`` phase, self-joins
        included.  ``delta_records`` counts the mutations since the last
        fold (an insert deleted again counts twice, as its two journal
        notes do), and a fold is due when it reaches
        ``compaction_due_at``."""
        index = self.index
        ledger = index.storage.stats.phases.get("query")
        fetches = ledger.buffer_hits + ledger.page_reads if ledger else 0
        return {
            "index_queries": index.queries,
            "pages_read_per_query": index.query_page_reads / max(index.queries, 1),
            "pool_fetches_per_query": index.query_page_fetches / max(index.queries, 1),
            "records_examined_per_hit": index.query_records_examined
            / max(index.query_hits, 1),
            "pool_hit_ratio": ledger.buffer_hits / fetches if fetches else 0.0,
            "entities": len(self.index),
            "epoch": self.index.epoch,
            "notes_replayed": index.notes_replayed,
            "debris_dropped": index.debris_dropped,
            "delta_records": self.index.delta_records,
            "compaction_due_at": index.compaction_due_at,
            "compactions": self.index.compactions,
            "last_fold": index.last_fold,
            "queries": self.queries,
            "rejected": self.rejected,
            "failed": self.failed,
            "partial": self.partial,
            "cache": {
                "size": len(self.cache),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
            },
            "breaker": {
                "state": self.breaker.state.value,
                "opened_count": self.breaker.opened_count,
            },
        }
