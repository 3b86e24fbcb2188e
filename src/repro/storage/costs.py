"""Cost models: turn ledger counts into simulated seconds.

The paper ran on an IBM RS6000 43P with a Seagate Hawk disk (average
access time including latency: 18.1 ms for random reads) and computed
Hilbert values in under 10 microseconds each.  We do not have that
hardware; instead the :class:`DiskModel` and :class:`CpuModel` convert
the counts recorded by :class:`~repro.storage.iostats.IOStats` into a
simulated response time with the same cost structure, so the *relative*
phase times and algorithm rankings the paper reports are reproduced
(see DESIGN.md, substitution table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.storage.iostats import PhaseStats


def sort_comparison_count(n: int) -> int:
    """Comparisons charged for an in-memory sort of ``n`` records:
    ``n * log2(n)``, the paper's sort-cost term.

    Shared by the external sorter's run formation, the plane sweep's
    input ordering, and the synchronized scan's per-page x-sort, so all
    three charge the ledger with one consistent formula.
    """
    if n < 2:
        return 0
    return int(n * math.log2(n))


@dataclass(frozen=True)
class DiskModel:
    """A simple seek + transfer disk.

    ``random_access_time`` is charged for every random page transfer
    (seek + rotational latency + transfer); sequential transfers pay
    only ``sequential_transfer_time``.  Defaults follow the paper's
    Seagate Hawk 4: 18.1 ms average random access; sequential transfer
    of a 4 KB page at roughly 5 MB/s mid-90s media rate ~ 0.8 ms.
    """

    random_access_time: float = 0.0181
    sequential_transfer_time: float = 0.0008

    def time(self, stats: PhaseStats) -> float:
        """Simulated disk seconds for the transfers in ``stats``."""
        random_ios = stats.random_reads + stats.random_writes
        sequential_ios = (
            stats.sequential_reads + stats.sequential_writes
        )
        return (
            random_ios * self.random_access_time
            + sequential_ios * self.sequential_transfer_time
        )


DEFAULT_CPU_COSTS: dict[str, float] = {
    "hilbert": 10e-6,       # per Hilbert value, paper section 4.1.1 (H)
    "level": 1e-6,          # per Level() computation (bit-prefix scan)
    "compare": 0.5e-6,      # per sort comparison
    "mbr_test": 0.25e-6,    # per MBR intersection test (4 compares)
    "refine": 5e-6,         # per exact-geometry refinement test
    "bitmap": 0.5e-6,       # per DSB bit set/probe
    "rtree": 2e-6,          # per R-tree node visit
    "partition": 0.5e-6,    # per entity routed to a partition/tile
}
"""Per-operation CPU costs in seconds, scaled to the paper's 133 MHz
PowerPC (SPECint95 4.72).  The 10 us Hilbert cost is measured by the
authors; the others are set so that, e.g., the Hilbert computation
accounts for ~8% of S3J response time on the UN1/UN2 join as reported
in section 5.2.1."""


@dataclass(frozen=True)
class CpuModel:
    """Charges a fixed cost per counted CPU operation kind."""

    op_costs: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CPU_COSTS)
    )

    def time(self, stats: PhaseStats) -> float:
        """Simulated CPU seconds for the operations in ``stats``.

        Unknown operation kinds are charged at the ``compare`` rate so
        that adding a new counter never silently costs zero.
        """
        fallback = self.op_costs.get("compare", 0.5e-6)
        return sum(
            count * self.op_costs.get(op, fallback)
            for op, count in stats.cpu_ops.items()
        )


@dataclass(frozen=True)
class CostModel:
    """Disk + CPU model; response time is their sum (single-threaded,
    non-overlapped I/O, as in the paper's prototype)."""

    disk: DiskModel = field(default_factory=DiskModel)
    cpu: CpuModel = field(default_factory=CpuModel)

    def response_time(self, stats: PhaseStats) -> float:
        """Simulated seconds: disk time plus CPU time."""
        return self.disk.time(stats) + self.cpu.time(stats)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready parameters (for serialized run reports)."""
        return {
            "disk": {
                "random_access_time": self.disk.random_access_time,
                "sequential_transfer_time": self.disk.sequential_transfer_time,
            },
            "cpu": {"op_costs": dict(self.cpu.op_costs)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> CostModel:
        return cls(
            disk=DiskModel(
                random_access_time=float(data["disk"]["random_access_time"]),
                sequential_transfer_time=float(
                    data["disk"]["sequential_transfer_time"]
                ),
            ),
            cpu=CpuModel(
                op_costs={
                    str(op): float(cost)
                    for op, cost in data["cpu"]["op_costs"].items()
                }
            ),
        )
