"""Bounded, deterministic retries at the storage boundary.

:class:`RetryingBackend` sits between the buffer pool and the physical
backend (the :class:`~repro.storage.manager.StorageManager` installs it
when its config carries a :class:`RetryPolicy`) and transparently
re-issues operations that raised
:class:`~repro.faults.errors.TransientIOError`:

- attempts are bounded (``max_attempts`` including the first try);
- backoff is exponential with *deterministic* jitter — a hash of
  ``(seed, operation token, attempt)`` — so a rerun of the same fault
  scenario backs off identically;
- backoff time is **simulated**, never slept: it accumulates on
  :attr:`RetryingBackend.simulated_backoff_s` and is exported as the
  ``faults.backoff_s`` histogram, keeping tests and chaos sweeps fast;
- permanent faults (:class:`PermanentIOError`, including torn-write
  detections) pass straight through;
- exhausting the budget raises
  :class:`~repro.faults.errors.RetriesExhaustedError` chained to the
  last transient fault.

Observability: each retry bumps ``faults.retries_attempted`` and emits
a ``retry:<op>`` span event; a recovery bumps
``faults.retries_succeeded``; a give-up bumps ``faults.giveups``.  On
the fault-free path the wrapper adds *nothing* — no counter, no span,
no ledger entry — which is what makes the retry-layer parity gate hold
byte-for-byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.faults.errors import RetriesExhaustedError, TransientIOError
from repro.obs import NULL_OBS, Observability
from repro.storage.backend import Page, StorageBackend
from repro.storage.records import RecordCodec

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with exponential backoff and seeded jitter."""

    max_attempts: int = 3
    base_backoff_s: float = 0.005
    multiplier: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_backoff_s < 0:
            raise ValueError("base_backoff_s must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_s(self, attempt: int, token: str) -> float:
        """Simulated backoff before retry number ``attempt`` (1-based:
        the wait after the first failure is ``backoff_s(1, ...)``)."""
        base = self.base_backoff_s * self.multiplier ** (attempt - 1)
        if not self.jitter:
            return base
        digest = hashlib.blake2b(
            f"{self.seed}:{token}:{attempt}".encode(), digest_size=8
        ).digest()
        fraction = int.from_bytes(digest, "big") / 2**64
        return base * (1.0 + self.jitter * fraction)


class RetryingBackend(StorageBackend):
    """Wrap a backend, absorbing transient faults per a retry policy."""

    def __init__(
        self,
        inner: StorageBackend,
        policy: RetryPolicy,
        obs: Observability | None = None,
    ) -> None:
        self.inner = inner
        self.policy = policy
        self.obs = obs if obs is not None else NULL_OBS
        self.simulated_backoff_s = 0.0

    def _call(self, op: str, token: str, fn: Callable[[], T]) -> T:
        attempt = 1
        metrics = self.obs.active_metrics
        while True:
            try:
                result = fn()
            except TransientIOError as error:
                if attempt >= self.policy.max_attempts:
                    if metrics is not None:
                        metrics.count("faults.giveups", op=op)
                    raise RetriesExhaustedError(
                        f"gave up on {op} {token} after {attempt} "
                        f"attempt(s): {error}"
                    ) from error
                backoff = self.policy.backoff_s(attempt, token)
                self.simulated_backoff_s += backoff
                if metrics is not None:
                    metrics.count("faults.retries_attempted", op=op)
                    metrics.observe("faults.backoff_s", backoff)
                if self.obs.tracer.enabled:
                    with self.obs.tracer.span(
                        f"retry:{op}",
                        kind="fault",
                        token=token,
                        attempt=attempt,
                        backoff_s=backoff,
                        error=str(error),
                    ):
                        pass
                attempt += 1
                continue
            if attempt > 1 and metrics is not None:
                metrics.count("faults.retries_succeeded", op=op)
            return result

    # -- StorageBackend -------------------------------------------------

    def create_file(self, name: str, codec: RecordCodec, page_size: int) -> None:
        self.inner.create_file(name, codec, page_size)

    def delete_file(self, name: str) -> None:
        self.inner.delete_file(name)

    def rename_file(self, old: str, new: str) -> None:
        self._call(
            "rename", f"{old}->{new}", lambda: self.inner.rename_file(old, new)
        )

    def read_page(self, name: str, page_no: int) -> Page:
        return self._call(
            "read",
            f"{name}:{page_no}",
            lambda: self.inner.read_page(name, page_no),
        )

    def write_page(self, name: str, page_no: int, records: Page) -> None:
        self._call(
            "write",
            f"{name}:{page_no}",
            lambda: self.inner.write_page(name, page_no, records),
        )

    def sync(self) -> None:
        self.inner.sync()

    def journal_append(self, note: bytes, reset: bool = False) -> None:
        self.inner.journal_append(note, reset)

    def journal(self) -> list[bytes]:
        return self.inner.journal()

    def close(self) -> None:
        self.inner.close()
