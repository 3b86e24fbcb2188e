"""The typed fault taxonomy.

Every failure the fault subsystem injects, detects, or reports is a
:class:`FaultError`, so callers (and the chaos harness) can separate
*declared* failures from genuine bugs with one ``except FaultError``.
The I/O branch additionally subclasses :class:`IOError`, keeping code
that already guards storage calls with ``except IOError`` working.

Retryability is encoded in the type, not in a flag:

- :class:`TransientIOError` — the one retryable kind.  The retry layer
  (:mod:`repro.faults.retry`) absorbs these up to its attempt bound.
- :class:`PermanentIOError` — never retried; fails loudly at once.
- :class:`TornWriteError` — a page read back with contents differing
  from what was last written (a partially persisted write).  Permanent:
  retrying a read cannot un-tear a page.
- :class:`RetriesExhaustedError` — a transient fault that outlived the
  retry budget; permanent from the caller's point of view.

The executor-facing branch (:class:`WorkerCrashError`,
:class:`ShardTimeoutError`, :class:`ShardExecutionError`) covers the
parallel executor's fault surface; :class:`ShardFailure` is the
structured per-shard report that partial-results mode returns instead
of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable


class FaultError(Exception):
    """Base of every typed fault raised by the fault subsystem."""


class FaultIOError(FaultError, IOError):
    """An injected or detected storage-level fault."""


class TransientIOError(FaultIOError):
    """A storage fault that may succeed if the operation is retried."""


class PermanentIOError(FaultIOError):
    """A storage fault that no amount of retrying will fix."""


class TornWriteError(PermanentIOError):
    """A page whose persisted contents differ from the last write."""


class RetriesExhaustedError(PermanentIOError):
    """A transient fault that persisted past the retry budget."""


class WorkerCrashError(FaultError):
    """A shard worker died (or, in-process, simulated dying) mid-task."""


class ShardTimeoutError(FaultError):
    """A shard exceeded the executor's per-shard timeout."""


@dataclass(frozen=True)
class ShardFailure:
    """One shard that could not be completed, in a picklable, JSON-ready
    form — what partial-results mode reports instead of raising."""

    shard_id: str
    kind: str  # the planner's task kind: "tile"
    error_type: str
    message: str
    attempts: int

    def describe(self) -> str:
        return (
            f"shard {self.shard_id} ({self.kind}) failed after "
            f"{self.attempts} attempt(s): {self.error_type}: {self.message}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> ShardFailure:
        return cls(
            shard_id=str(data["shard_id"]),
            kind=str(data["kind"]),
            error_type=str(data["error_type"]),
            message=str(data["message"]),
            attempts=int(data["attempts"]),
        )


class ShardExecutionError(FaultError):
    """Raised when shards failed and partial results were not opted in.

    Carries the structured :class:`ShardFailure` reports so callers can
    still see *which* shards died and why.
    """

    def __init__(self, failures: Iterable[ShardFailure]) -> None:
        self.failures: tuple[ShardFailure, ...] = tuple(failures)
        summary = "; ".join(
            f"{f.shard_id} ({f.error_type})" for f in self.failures
        )
        super().__init__(
            f"{len(self.failures)} shard(s) failed: {summary}"
        )

    def __reduce__(self):  # keep the failures through pickling
        return (self.__class__, (self.failures,))
