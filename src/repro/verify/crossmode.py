"""Cross-mode parity: ledger mode and memory mode must agree exactly.

The two execution engines share nothing below :func:`spatial_join` —
the ledger mode scans simulated pages, the memory mode sweeps columnar
arrays — so identical pair sets across them is strong differential
evidence.  :func:`run_cross_mode` sweeps the verification workload
catalog and requires, per case:

- ledger-mode and memory-mode candidate pair sets identical, at every
  requested worker count (serial and Hilbert-sharded execution);
- both equal to the brute-force oracle on the case's expanded boxes;
- refined pair sets (the exact-predicate step) identical across modes.

This is the gate behind ``repro verify --cross-mode`` and the CI
fastpath job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.join.api import spatial_join
from repro.verify.cases import VerifyCase
from repro.verify.oracle import oracle_for_case
from repro.verify.workloads import default_cases

Progress = Callable[[str], None]

DEFAULT_WORKER_COUNTS = (1, 2)


@dataclass
class CrossModeMismatch:
    """One disagreement between execution modes (or with the oracle)."""

    case: str
    run: str
    kind: str  # "pairs" or "refined"
    expected: int
    got: int
    missing: int
    extra: int

    def describe(self) -> str:
        return (
            f"[cross-mode] {self.run} on {self.case}: {self.kind} set has "
            f"{self.got} pairs, expected {self.expected} "
            f"({self.missing} missing, {self.extra} extra)"
        )


@dataclass
class CrossModeReport:
    """Outcome of one cross-mode parity sweep."""

    cases: list[str] = field(default_factory=list)
    worker_counts: list[int] = field(default_factory=list)
    runs: int = 0
    pairs_checked: int = 0
    mismatches: list[CrossModeMismatch] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        lines = [
            f"cross-mode: {len(self.cases)} workloads x "
            f"workers {self.worker_counts} x 2 modes = "
            f"{self.runs} runs in {self.elapsed_s:.1f}s",
            f"  workloads : {', '.join(self.cases)}",
            f"  pair sets : {self.pairs_checked} pairs compared",
        ]
        if self.ok:
            lines.append(
                "  PASS: ledger mode and memory mode agree with each other "
                "and the oracle on every run"
            )
        else:
            lines.append(f"  FAIL: {len(self.mismatches)} mismatch(es)")
            lines.extend("  - " + m.describe() for m in self.mismatches)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "cases": self.cases,
            "worker_counts": self.worker_counts,
            "runs": self.runs,
            "pairs_checked": self.pairs_checked,
            "mismatches": [m.describe() for m in self.mismatches],
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _compare(
    report: CrossModeReport,
    case: VerifyCase,
    run: str,
    kind: str,
    expected: frozenset,
    got: frozenset,
) -> None:
    if got != expected:
        report.mismatches.append(
            CrossModeMismatch(
                case=case.name,
                run=run,
                kind=kind,
                expected=len(expected),
                got=len(got),
                missing=len(expected - got),
                extra=len(got - expected),
            )
        )


def run_cross_mode(
    cases: list[VerifyCase] | None = None,
    worker_counts: tuple[int, ...] = DEFAULT_WORKER_COUNTS,
    refine: bool = True,
    seed: int = 0,
    progress: Progress | None = None,
) -> CrossModeReport:
    """Sweep the oracle suite through both execution modes and diff.

    Every case runs in ledger mode and memory mode at each worker
    count; all pair sets must equal the case's brute-force oracle, and
    when ``refine`` is set the refined sets must match across modes
    (the oracle covers the filter step only, so refined sets are
    compared mode-to-mode).
    """
    say = progress or (lambda message: None)
    started = time.monotonic()
    if cases is None:
        cases = default_cases(quick=False, seed=seed)
    report = CrossModeReport(
        cases=[case.name for case in cases],
        worker_counts=list(worker_counts),
    )
    for case in cases:
        say(f"case {case.describe()}")
        expected = oracle_for_case(case)
        report.pairs_checked += len(expected)
        refined_sets: dict[str, frozenset] = {}
        for workers in worker_counts:
            for mode in ("ledger", "memory"):
                run = f"{mode}@{workers}w"
                result = spatial_join(
                    case.dataset_a,
                    case.dataset_b,
                    algorithm="s3j",
                    predicate=case.predicate,
                    workers=workers,
                    mode=mode,
                    refine=refine,
                )
                report.runs += 1
                _compare(report, case, run, "pairs", expected, result.pairs)
                if refine and result.refined is not None:
                    refined_sets[run] = result.refined
        if refine and refined_sets:
            runs = sorted(refined_sets)
            reference_run = runs[0]
            reference = refined_sets[reference_run]
            for run in runs[1:]:
                _compare(
                    report,
                    case,
                    f"{run} vs {reference_run}",
                    "refined",
                    reference,
                    refined_sets[run],
                )
    report.elapsed_s = time.monotonic() - started
    return report
