"""repro.faults — deterministic fault injection and recovery.

Four pieces (see DESIGN.md section 11):

- **taxonomy** (:mod:`repro.faults.errors`) — every injected, detected,
  or reported failure is a typed :class:`FaultError`; retryability is
  encoded in the type (:class:`TransientIOError` vs
  :class:`PermanentIOError` / :class:`TornWriteError`).
- **injection** (:mod:`repro.faults.plan` / :mod:`repro.faults.inject`)
  — a frozen :class:`FaultPlan` (seeded rates and/or explicit
  :class:`ScheduledFault` rules) executed by
  :class:`FaultInjectingBackend`, a wrapper over any storage backend
  that also simulates torn writes and detects them on read.
- **recovery** (:mod:`repro.faults.retry`) — :class:`RetryPolicy`
  (bounded attempts, exponential backoff, deterministic jitter) applied
  by :class:`RetryingBackend` at the buffer-pool/backend boundary;
  backoff is simulated, and retries/give-ups/backoff are exported as
  ``faults.*`` metrics and ``retry:*`` span events.
- **chaos verification** lives in :mod:`repro.verify.chaos`: sampled
  fault plans driven through the differential harness, asserting the
  that every run ends as a correct result or a typed failure.

Typical use::

    from repro.faults import FaultPlan, RetryPolicy
    from repro.storage.manager import StorageConfig

    config = StorageConfig(
        fault_plan=FaultPlan(seed=7, transient_write_rate=0.05),
        retry=RetryPolicy(max_attempts=3),
    )
    result = spatial_join(a, b, storage=config)   # recovers or fails loudly
"""

from repro.faults.errors import (
    FaultError,
    FaultIOError,
    PermanentIOError,
    RetriesExhaustedError,
    ShardFailure,
    TornWriteError,
    TransientIOError,
)
from repro.faults.inject import FaultInjectingBackend
from repro.faults.plan import (
    KINDS,
    NO_FAULTS,
    OPS,
    FaultPlan,
    InjectionLog,
    ScheduledFault,
)
from repro.faults.retry import RetryingBackend, RetryPolicy

__all__ = [
    "FaultError",
    "FaultIOError",
    "FaultInjectingBackend",
    "FaultPlan",
    "InjectionLog",
    "KINDS",
    "NO_FAULTS",
    "OPS",
    "PermanentIOError",
    "RetriesExhaustedError",
    "RetryingBackend",
    "RetryPolicy",
    "ScheduledFault",
    "ShardFailure",
    "TornWriteError",
    "TransientIOError",
]
