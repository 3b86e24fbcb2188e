"""Deterministic fault plans.

A :class:`FaultPlan` says *which* storage calls fail and *how*, in a
way that is a pure function of the plan and the call sequence —
rerunning the same workload under the same plan injects the exact same
faults.  Two sources compose:

- an explicit **schedule** of :class:`ScheduledFault` rules ("the 3rd
  write onward fails permanently"), matched against a per-operation
  call counter;
- a **seeded** per-call random draw with independent rates per fault
  kind, optionally capped by ``max_faults`` so a plan can model "flaky
  for a while, then healthy".

Plans are frozen, hashable dataclasses that ride inside
:class:`~repro.storage.manager.StorageConfig`.  The mutable call
counters live in the :class:`~repro.faults.inject.FaultInjectingBackend`,
never here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

OPS = ("read", "write", "rename")
KINDS = ("transient", "permanent", "torn")


@dataclass(frozen=True)
class ScheduledFault:
    """One explicit injection rule, matched by operation call index.

    Fires on every call of ``op`` whose 1-based index falls in
    ``[first, last]`` (``last=None`` = forever), optionally restricted
    to one storage file name.
    """

    op: str
    kind: str
    first: int = 1
    last: int | None = None
    file: str | None = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"op must be one of {OPS}, got {self.op!r}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "torn" and self.op != "write":
            raise ValueError("torn faults only apply to writes")
        if self.first < 1:
            raise ValueError("first is a 1-based call index (>= 1)")
        if self.last is not None and self.last < self.first:
            raise ValueError("last must be >= first")

    def fires(self, op: str, index: int, file_name: str) -> bool:
        """Whether this rule injects on the given call."""
        if op != self.op or index < self.first:
            return False
        if self.last is not None and index > self.last:
            return False
        return self.file is None or self.file == file_name


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault scenario for storage.

    Rates are per-call probabilities drawn from a ``random.Random``
    seeded with ``seed`` (``seed=None`` disables the random source;
    scheduled rules still fire).  ``max_faults`` caps the *random*
    injections only — schedules are explicit and always honored.

    Every injected storage fault charges ``latency_ops`` counted
    ``fault_latency`` CPU operations to the ledger, so injected latency
    is priced into the simulated response time by the cost model
    exactly like any other counted work.
    """

    seed: int | None = None
    transient_read_rate: float = 0.0
    transient_write_rate: float = 0.0
    permanent_rate: float = 0.0
    torn_write_rate: float = 0.0
    max_faults: int | None = None
    latency_ops: int = 1
    schedule: tuple[ScheduledFault, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "transient_read_rate",
            "transient_write_rate",
            "permanent_rate",
            "torn_write_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        if self.latency_ops < 0:
            raise ValueError("latency_ops must be non-negative")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError("max_faults must be non-negative")

    # -- convenience constructors ---------------------------------------

    @classmethod
    def failing_writes(
        cls, after: int, kind: str = "permanent", file: str | None = None
    ) -> FaultPlan:
        """Every write past the first ``after`` of them fails — the
        promoted form of the test suite's old ad-hoc ``FlakyBackend``."""
        return cls(
            schedule=(
                ScheduledFault(op="write", kind=kind, first=after + 1, file=file),
            )
        )

    @property
    def random_enabled(self) -> bool:
        """Whether the seeded random source can ever inject."""
        return self.seed is not None and (
            self.transient_read_rate > 0
            or self.transient_write_rate > 0
            or self.permanent_rate > 0
            or self.torn_write_rate > 0
        )

    @property
    def injects_storage_faults(self) -> bool:
        return bool(self.schedule) or self.random_enabled

    def describe(self) -> str:
        """A short human-readable signature for reports and logs."""
        parts = []
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        for label, rate in (
            ("tr", self.transient_read_rate),
            ("tw", self.transient_write_rate),
            ("perm", self.permanent_rate),
            ("torn", self.torn_write_rate),
        ):
            if rate:
                parts.append(f"{label}={rate}")
        if self.max_faults is not None:
            parts.append(f"max={self.max_faults}")
        if self.schedule:
            parts.append(f"sched={len(self.schedule)}")
        return "FaultPlan(" + (" ".join(parts) or "none") + ")"


NO_FAULTS = FaultPlan()
"""A plan that never injects (useful as an explicit 'retry layer
installed, zero faults' parity configuration)."""


@dataclass
class InjectionLog:
    """Mutable tally of what a fault-injecting backend actually did."""

    calls: dict[str, int] = field(
        default_factory=lambda: {op: 0 for op in OPS}
    )
    injected: dict[str, int] = field(
        default_factory=lambda: {kind: 0 for kind in KINDS}
    )

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())
