"""A cost-based join-method chooser.

Section 4's motivation: "S3J has relatively simple cost estimation
formulas that can be exploited by a query optimizer."  This module is
that optimizer fragment: given catalog statistics about two inputs, it
prices all three algorithms with the section-4 formulas and picks the
cheapest, exposing the per-algorithm estimates for inspection.

The discussion in section 5.3 is encoded in the estimators: S3J's
estimate needs no data statistics beyond sizes (its headline
advantage); PBSM's and SHJ's estimates depend on replication factors
that can only be *guessed* without detailed statistics, so both carry
an explicit uncertainty note when the catalog lacks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.costmodel.pbsm import expected_replication_factor, pbsm_io
from repro.costmodel.s3j import s3j_io, s3j_worst_case_io
from repro.costmodel.shj import shj_io
from repro.filtertree.occupancy import level_fractions


@dataclass(frozen=True)
class CatalogStats:
    """What a catalog would know about one join input."""

    pages: int
    avg_side: float | None = None       # mean entity extent (None: unknown)
    replication_hint: float | None = None  # measured r_f, if available

    def __post_init__(self) -> None:
        if self.pages < 0:
            raise ValueError("pages must be non-negative")
        if self.avg_side is not None and not 0.0 <= self.avg_side <= 1.0:
            raise ValueError("avg_side must be in [0, 1]")


@dataclass(frozen=True)
class PlanEstimate:
    """One algorithm's predicted cost."""

    algorithm: str
    total_ios: int
    notes: tuple[str, ...] = field(default_factory=tuple)


def estimate_plans(
    stats_a: CatalogStats,
    stats_b: CatalogStats,
    memory_pages: int,
    result_pages: int = 0,
    tiles_per_dim: int = 32,
) -> list[PlanEstimate]:
    """Price all three algorithms; cheapest first."""
    if memory_pages < 2:
        raise ValueError("memory_pages must be at least 2")
    estimates = [
        _estimate_s3j(stats_a, stats_b, memory_pages, result_pages),
        _estimate_pbsm(
            stats_a, stats_b, memory_pages, result_pages, tiles_per_dim
        ),
        _estimate_shj(stats_a, stats_b, memory_pages, result_pages),
    ]
    return sorted(estimates, key=lambda e: e.total_ios)


def choose_algorithm(
    stats_a: CatalogStats,
    stats_b: CatalogStats,
    memory_pages: int,
    result_pages: int = 0,
    tiles_per_dim: int = 32,
) -> str:
    """Name of the predicted-cheapest algorithm."""
    return estimate_plans(
        stats_a, stats_b, memory_pages, result_pages, tiles_per_dim
    )[0].algorithm


def _estimate_s3j(
    stats_a: CatalogStats,
    stats_b: CatalogStats,
    memory: int,
    result_pages: int,
) -> PlanEstimate:
    notes = []
    if stats_a.avg_side is not None and stats_b.avg_side is not None:
        fractions_a = level_fractions(max(stats_a.avg_side, 1e-6))
        fractions_b = level_fractions(max(stats_b.avg_side, 1e-6))
        total = s3j_io(
            stats_a.pages, stats_b.pages, memory, fractions_a, fractions_b,
            result_pages,
        ).total_ios
    else:
        # No statistics at all: S3J still has a guaranteed bound —
        # section 4's worst case (equation 6).
        total = s3j_worst_case_io(
            stats_a.pages, stats_b.pages, memory, result_pages
        )
        notes.append("no size statistics: worst-case bound (eq. 6)")
    return PlanEstimate("s3j", int(total), tuple(notes))


def _estimate_pbsm(
    stats_a: CatalogStats,
    stats_b: CatalogStats,
    memory: int,
    result_pages: int,
    tiles_per_dim: int,
) -> PlanEstimate:
    notes = []
    r_a = stats_a.replication_hint
    r_b = stats_b.replication_hint
    if r_a is None:
        if stats_a.avg_side is not None:
            r_a = expected_replication_factor(stats_a.avg_side, tiles_per_dim)
        else:
            r_a = 1.5
            notes.append("replication of A guessed (no statistics)")
    if r_b is None:
        if stats_b.avg_side is not None:
            r_b = expected_replication_factor(stats_b.avg_side, tiles_per_dim)
        else:
            r_b = 1.5
            notes.append("replication of B guessed (no statistics)")
    candidate_pages = max(result_pages, math.ceil(result_pages * r_a * r_b))
    total = pbsm_io(
        stats_a.pages,
        stats_b.pages,
        memory,
        replication_a=r_a,
        replication_b=r_b,
        candidate_pages=candidate_pages,
        result_pages=result_pages,
    ).total_ios
    return PlanEstimate("pbsm", int(total), tuple(notes))


def _estimate_shj(
    stats_a: CatalogStats,
    stats_b: CatalogStats,
    memory: int,
    result_pages: int,
) -> PlanEstimate:
    from repro.baselines.shj import suggested_partitions

    notes = []
    partitions = suggested_partitions(stats_a.pages, memory)
    r_b = stats_b.replication_hint
    if r_b is None:
        r_b = 1.5
        notes.append("replication of B guessed (no statistics)")
    part_pages = (stats_a.pages + r_b * stats_b.pages) / max(1, partitions)
    fits = part_pages <= max(1, memory - 1)
    if not fits:
        notes.append("partitions predicted not to fit: blockwise join")
    total = shj_io(
        stats_a.pages,
        stats_b.pages,
        memory,
        num_partitions=partitions,
        replication_b=r_b,
        result_pages=result_pages,
        partitions_fit=fits,
    ).total_ios
    return PlanEstimate("shj", int(total), tuple(notes))
