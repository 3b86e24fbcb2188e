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

:class:`ShardFailure` is the structured failure report the service's
circuit breaker returns with a declared-partial reply.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any


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
