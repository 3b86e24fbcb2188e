"""The fault-injecting storage backend.

:class:`FaultInjectingBackend` wraps any
:class:`~repro.storage.backend.StorageBackend` and consults a
:class:`~repro.faults.plan.FaultPlan` on every read, write, and rename:

- **transient** — raise :class:`TransientIOError` *before* touching the
  inner backend (nothing is persisted; a retry can succeed);
- **permanent** — raise :class:`PermanentIOError`, likewise before any
  side effect;
- **torn** (writes only) — persist only a *prefix* of the page's
  records to the inner backend and return as if the write succeeded,
  exactly like a power cut mid-write.  The wrapper remembers what the
  page *should* contain; the next physical read of that page detects
  the mismatch and raises :class:`TornWriteError`.  A later full
  rewrite of the page heals it.

Torn-write detection is what keeps the chaos gate honest: a
partially persisted page can never silently flow into a wrong answer —
it either stays cached (the in-memory copy is correct), gets
overwritten, or fails loudly on read.

Each injected fault charges ``plan.latency_ops`` counted
``fault_latency`` CPU operations to the ledger (when one is attached),
so injected latency is priced into simulated response time, and bumps
the ``faults.injected`` observability counter.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.faults.errors import (
    PermanentIOError,
    TornWriteError,
    TransientIOError,
)
from repro.faults.plan import FaultPlan, InjectionLog
from repro.storage.backend import Page, StorageBackend
from repro.storage.records import RecordCodec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.storage.iostats import IOStats


class FaultInjectingBackend(StorageBackend):
    """Wrap a backend, injecting the faults a :class:`FaultPlan` chose."""

    def __init__(
        self,
        inner: StorageBackend,
        plan: FaultPlan,
        stats: IOStats | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.stats = stats
        self.metrics = metrics
        self.log = InjectionLog()
        self._rng = random.Random(plan.seed) if plan.seed is not None else None
        # Torn pages only, keyed by (file, page): what the caller asked
        # to persist when the torn write fired.  An entry means the
        # on-medium page is known-partial; a later full write heals it.
        # The bytes stand for the page: a torn prefix never matches them.
        self._shadow: dict[tuple[str, int], tuple[int, bytes]] = {}

    # -- the injection decision -----------------------------------------

    def _decide(self, op: str, file_name: str) -> str | None:
        """The fault kind to inject on this call, or None."""
        index = self.log.calls[op] = self.log.calls[op] + 1
        for rule in self.plan.schedule:
            if rule.fires(op, index, file_name):
                return rule.kind
        if self._rng is None:
            return None
        draw = self._rng.random()  # one draw per call: stream is stable
        plan = self.plan
        if (
            plan.max_faults is not None
            and self.log.total_injected >= plan.max_faults
        ):
            return None
        if op == "read":
            if draw < plan.transient_read_rate:
                return "transient"
            if draw < plan.transient_read_rate + plan.permanent_rate:
                return "permanent"
        elif op == "write":
            threshold = plan.transient_write_rate
            if draw < threshold:
                return "transient"
            threshold += plan.torn_write_rate
            if draw < threshold:
                return "torn"
            if draw < threshold + plan.permanent_rate:
                return "permanent"
        else:  # rename
            if draw < plan.transient_write_rate:
                return "transient"
            if draw < plan.transient_write_rate + plan.permanent_rate:
                return "permanent"
        return None

    def _inject(self, op: str, file_name: str, detail: str) -> str | None:
        kind = self._decide(op, file_name)
        if kind is None:
            return None
        self.log.injected[kind] += 1
        if self.stats is not None and self.plan.latency_ops:
            self.stats.charge_cpu("fault_latency", self.plan.latency_ops)
        if self.metrics is not None:
            self.metrics.count("faults.injected", op=op, kind=kind)
        index = self.log.calls[op]
        if kind == "transient":
            raise TransientIOError(
                f"injected transient {op} failure at {op} #{index} ({detail})"
            )
        if kind == "permanent":
            raise PermanentIOError(
                f"injected permanent {op} failure at {op} #{index} ({detail})"
            )
        return kind  # "torn": the caller simulates the partial persist

    # -- StorageBackend -------------------------------------------------

    def create_file(self, name: str, codec: RecordCodec, page_size: int) -> None:
        self.inner.create_file(name, codec, page_size)

    def delete_file(self, name: str) -> None:
        self.inner.delete_file(name)
        for key in [k for k in self._shadow if k[0] == name]:
            del self._shadow[key]

    def rename_file(self, old: str, new: str) -> None:
        self._inject("rename", old, f"{old!r} -> {new!r}")
        self.inner.rename_file(old, new)
        for key in [k for k in self._shadow if k[0] == old]:
            self._shadow[(new, key[1])] = self._shadow.pop(key)

    def read_page(self, name: str, page_no: int) -> Page:
        self._inject("read", name, f"{name!r} page {page_no}")
        records = self.inner.read_page(name, page_no)
        expected = self._shadow.get((name, page_no))
        if expected is not None and records.tobytes() != expected[1]:
            if self.metrics is not None:
                self.metrics.count("faults.torn_detected")
            raise TornWriteError(
                f"torn write detected: {name!r} page {page_no} holds "
                f"{len(records)} record(s), the last write intended "
                f"{expected[0]}"
            )
        return records

    def write_page(self, name: str, page_no: int, records: Page) -> None:
        kind = self._inject("write", name, f"{name!r} page {page_no}")
        if kind == "torn":
            # A power-cut write: a prefix reaches the medium, but the
            # caller is told nothing went wrong.  Remember the intended
            # contents so the next physical read fails loudly.
            self.inner.write_page(name, page_no, records[: len(records) // 2])
            self._shadow[(name, page_no)] = (len(records), records.tobytes())
            return
        self.inner.write_page(name, page_no, records)
        self._shadow.pop((name, page_no), None)  # a full write heals the page

    def sync(self) -> None:
        self.inner.sync()

    def journal_append(self, note: bytes, reset: bool = False) -> None:
        self.inner.journal_append(note, reset)

    def journal(self) -> list[bytes]:
        return self.inner.journal()

    def close(self) -> None:
        self.inner.close()
