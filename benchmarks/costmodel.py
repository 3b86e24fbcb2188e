"""The paper's section-4 page-I/O formulas (equations 1-19).

"S3J has relatively simple cost estimation formulas that can be
exploited by a query optimizer."  These are those formulas for all
three algorithms, plus the level occupancy of uniform squares
(equation 2) and the replication fraction behind figure 7 (equation
11).  Nothing in the join system calls them; the benches and tests that
hold them against the storage ledger do: E-A1
(``bench_analytic_vs_measured.py``, the section-4 predictability table),
E-F7 (``bench_fig7_replication.py``) and ``tests/test_costmodel.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# -- equation 2: level occupancy of uniform squares --------------------
#
# For a data set of ``d x d`` squares uniformly distributed over the unit
# square, the fraction of objects landing in level file ``i`` is::
#
#     f_0    = d (2 - d)
#     f_i    = 2^i d (2 - (3 * 2^i - 2) d)     for i = 1 .. k(d) - 1
#     f_k(d) = (1 - (2^k - 1) d)^2
#
# where ``k(d) = floor(-log2 d)`` is the lowest level any ``d x d``
# object can fall to (the finest grid whose cells are still at least
# ``d`` wide).  The forms follow from ``P(level >= i) = (1 - (2^i - 1) d)^2``
# — per dimension, the MBR avoids all ``2^i - 1`` interior grid lines —
# and are consistent with the paper's ``f_0`` and ``f_k`` terms.


def lowest_level(d: float) -> int:
    """``k(d)``: the deepest level a ``d x d`` square can reach."""
    if not 0.0 < d <= 1.0:
        raise ValueError("square side d must be in (0, 1]")
    return max(0, math.floor(-math.log2(d)))


def probability_level_at_least(i: int, d: float) -> float:
    """``P(level >= i)`` for a uniform ``d x d`` square."""
    if i < 0:
        raise ValueError("level must be non-negative")
    if not 0.0 < d <= 1.0:
        raise ValueError("square side d must be in (0, 1]")
    per_dim = 1.0 - ((1 << i) - 1) * d
    if per_dim <= 0.0:
        return 0.0
    return per_dim * per_dim


def level_fraction(i: int, d: float) -> float:
    """``f_i``: fraction of uniform ``d x d`` squares in level file ``i``."""
    k = lowest_level(d)
    if i > k:
        return 0.0
    if i == k:
        return probability_level_at_least(k, d)
    return probability_level_at_least(i, d) - probability_level_at_least(i + 1, d)


def level_fractions(d: float, max_level: int | None = None) -> list[float]:
    """All occupancy fractions ``[f_0, ..., f_k(d)]``.

    When ``max_level`` is given, deeper levels are folded into the
    ``max_level`` entry (matching a capped ``LevelAssigner``).
    """
    k = lowest_level(d)
    fractions = [level_fraction(i, d) for i in range(k + 1)]
    if max_level is not None and k > max_level:
        folded = fractions[: max_level + 1]
        folded[max_level] += sum(fractions[max_level + 1 :])
        fractions = folded
    return fractions


# -- S3J: section 4.1.1, equations 1-7 ---------------------------------


@dataclass(frozen=True)
class S3JCostBreakdown:
    """Page reads+writes per S3J phase."""

    scan_ios: int      # equation 1: 2 S_A + 2 S_B
    sort_ios: int      # equation 3: 2 sum_i l_i S_i per data set
    join_ios: int      # equation 4: S_A + S_B + J

    @property
    def total_ios(self) -> int:
        return self.scan_ios + self.sort_ios + self.join_ios


def sort_passes(file_pages: int, memory_pages: int, fan_in: int) -> int:
    """``l_i``: total passes (run formation + merges) to sort a file."""
    if file_pages <= 0:
        return 0
    if file_pages <= memory_pages:
        return 1
    runs = math.ceil(file_pages / memory_pages)
    return 1 + math.ceil(math.log(runs, fan_in))


def s3j_io(
    pages_a: int,
    pages_b: int,
    memory_pages: int,
    fractions_a: list[float],
    fractions_b: list[float],
    result_pages: int,
    fan_in: int | None = None,
) -> S3JCostBreakdown:
    """Predicted S3J page I/O.

    ``fractions_a``/``fractions_b`` are the level-file occupancy
    fractions (equation 2 for uniform squares, or measured); the level
    file sizes are ``S_i = f_i * S``.
    """
    fan_in = fan_in or max(2, memory_pages - 1)
    scan = 2 * pages_a + 2 * pages_b
    sort = 0
    for pages, fractions in ((pages_a, fractions_a), (pages_b, fractions_b)):
        for fraction in fractions:
            level_pages = math.ceil(fraction * pages)
            sort += 2 * sort_passes(level_pages, memory_pages, fan_in) * level_pages
    join = pages_a + pages_b + result_pages
    return S3JCostBreakdown(scan_ios=scan, sort_ios=sort, join_ios=join)


def s3j_best_case_io(pages_a: int, pages_b: int, result_pages: int) -> int:
    """Equation 5: every level file fits in memory -> ``5 S_A + 5 S_B + J``."""
    return 5 * pages_a + 5 * pages_b + result_pages


def s3j_worst_case_io(
    pages_a: int,
    pages_b: int,
    memory_pages: int,
    result_pages: int,
    fan_in: int | None = None,
) -> int:
    """Equation 6: a single level file per data set ->
    ``3 S_A + 3 S_B + 2 l_A S_A + 2 l_B S_B + J``."""
    fan_in = fan_in or max(2, memory_pages - 1)
    l_a = sort_passes(pages_a, memory_pages, fan_in)
    l_b = sort_passes(pages_b, memory_pages, fan_in)
    return (
        3 * pages_a
        + 3 * pages_b
        + 2 * l_a * pages_a
        + 2 * l_b * pages_b
        + result_pages
    )


def s3j_hilbert_cpu(
    pages_a: int,
    pages_b: int,
    entries_per_page: int,
    hilbert_seconds: float = 10e-6,
) -> float:
    """Equation 7: ``H (S_A + S_B) E`` seconds of Hilbert computation."""
    return hilbert_seconds * (pages_a + pages_b) * entries_per_page


# -- PBSM: section 4.1.2, equations 8-15 -------------------------------


def pbsm_partitions(pages_a: int, pages_b: int, memory_pages: int) -> int:
    """Equation 8: ``D = (S_A + S_B) / M``."""
    return max(1, math.ceil((pages_a + pages_b) / memory_pages))


def expected_replication_factor(side: float, tiles_per_dim: int) -> float:
    """Expected copies per uniform ``side x side`` object on a
    ``tiles_per_dim^2`` grid: ``(1 + d 2^j)^2`` — each dimension
    overlaps ``1 + d / tile_side`` tiles on average."""
    if not 0.0 <= side <= 1.0:
        raise ValueError("side must be in [0, 1]")
    if tiles_per_dim < 1:
        raise ValueError("tiles_per_dim must be positive")
    per_dim = 1.0 + side * tiles_per_dim
    return per_dim * per_dim


@dataclass(frozen=True)
class PBSMCostBreakdown:
    """Page reads+writes per PBSM step."""

    partition_ios: int    # equation 10: (1 + r_A) S_A + (1 + r_B) S_B
    repartition_ios: int  # equation 13 (half the partitions redo)
    join_ios: int         # equations 12/14: read partitions, write C
    sort_ios: int         # equation 15: sort C with duplicate elimination

    @property
    def total_ios(self) -> int:
        return (
            self.partition_ios + self.repartition_ios + self.join_ios + self.sort_ios
        )


def pbsm_io(
    pages_a: int,
    pages_b: int,
    memory_pages: int,
    replication_a: float,
    replication_b: float,
    candidate_pages: int,
    result_pages: int,
    repartition_fraction: float = 0.5,
    dedup_shrink: float = 0.0,
    fan_in: int | None = None,
) -> PBSMCostBreakdown:
    """Predicted PBSM page I/O.

    ``repartition_fraction`` is the share of partitions that overflow
    memory and must be repartitioned — "we expect half the partitions to
    require repartitioning" under equation 8's partition count.
    ``dedup_shrink`` is the per-pass shrink factor of equation 15's
    duplicate elimination (0 = no shrinkage, a conservative bound).
    """
    if not 0.0 <= repartition_fraction <= 1.0:
        raise ValueError("repartition_fraction must be in [0, 1]")
    ra_pages = replication_a * pages_a
    rb_pages = replication_b * pages_b

    partition = (1.0 + replication_a) * pages_a + (1.0 + replication_b) * pages_b
    repartition = repartition_fraction * (
        (1.0 + replication_a) * ra_pages + (1.0 + replication_b) * rb_pages
    )
    join = ra_pages + rb_pages + candidate_pages
    sort = _dedup_sort_ios(
        candidate_pages,
        result_pages,
        memory_pages,
        dedup_shrink,
        fan_in or max(2, memory_pages - 1),
    )
    return PBSMCostBreakdown(
        partition_ios=math.ceil(partition),
        repartition_ios=math.ceil(repartition),
        join_ios=math.ceil(join),
        sort_ios=math.ceil(sort),
    )


def _dedup_sort_ios(
    candidate_pages: int,
    result_pages: int,
    memory_pages: int,
    shrink: float,
    fan_in: int,
) -> float:
    """Equation 15: sorting the candidate list with per-pass shrinkage.

    When C fits in memory the cost is ``C + J`` (read once, write the
    deduplicated result)."""
    if candidate_pages <= 0:
        return 0.0
    if candidate_pages <= memory_pages:
        return candidate_pages + result_pages
    passes = sort_passes(candidate_pages, memory_pages, fan_in)
    total = 0.0
    remaining = float(candidate_pages)
    for _ in range(passes):
        total += 2.0 * remaining
        remaining *= 1.0 - shrink
    return total


# -- SHJ: section 4.1.3, equations 16-19 -------------------------------


@dataclass(frozen=True)
class SHJCostBreakdown:
    """Page reads+writes per SHJ step."""

    sample_ios: int      # equation 16's cD term: random sampling reads
    partition_ios: int   # 2 S_A (eq. 16) + (1 + r_B) S_B (eq. 17)
    join_ios: int        # eq. 18 when partitions fit; blockwise otherwise

    @property
    def total_ios(self) -> int:
        return self.sample_ios + self.partition_ios + self.join_ios


def shj_io(
    pages_a: int,
    pages_b: int,
    memory_pages: int,
    num_partitions: int,
    replication_b: float,
    result_pages: int,
    sample_pages_per_partition: int = 1,
    partitions_fit: bool = True,
) -> SHJCostBreakdown:
    """Predicted SHJ page I/O.

    With ``partitions_fit=True`` the join phase is equation 18
    (``S_A + r_B S_B + J``).  Otherwise the blockwise fallback is
    modeled (the analysis's nested-loops case, equation 19): assuming
    uniform partition sizes ``S_A / D`` and ``r_B S_B / D``, each A
    block of ``M - 1`` pages rescans its B partition.
    """
    sample = sample_pages_per_partition * num_partitions
    partition = 2 * pages_a + math.ceil((1.0 + replication_b) * pages_b)
    rb_pages = replication_b * pages_b
    if partitions_fit:
        join = pages_a + math.ceil(rb_pages) + result_pages
    else:
        block = max(1, memory_pages - 1)
        part_a = pages_a / max(1, num_partitions)
        part_b = rb_pages / max(1, num_partitions)
        blocks = math.ceil(part_a / block)
        join = math.ceil(num_partitions * (part_a + blocks * part_b)) + result_pages
    return SHJCostBreakdown(
        sample_ios=sample, partition_ios=partition, join_ios=join
    )


# -- equation 11 / figure 7: the replicated fraction -------------------
#
# For uniformly distributed ``d x d`` squares and a regular partitioning
# of the unit square into tiles of side ``2^-j``, the fraction of objects
# falling wholly inside tiles is ``1 - d 2^(j+1) + d^2 2^(2j)`` (equation
# 11), so the fraction of *replicated* objects is
# ``replicated(x) = 2x - x^2`` with ``x = d * 2^j``, which rises toward 1
# as ``x -> 1`` — the paper's figure 7 curve.


def inside_fraction(d_times_tiles: float) -> float:
    """Equation 11: fraction of objects wholly inside one tile, as a
    function of ``x = d * 2^j`` (object side times tiles per dimension)."""
    x = _validated(d_times_tiles)
    return (1.0 - x) * (1.0 - x)


def replicated_fraction(d_times_tiles: float) -> float:
    """Figure 7: fraction of objects crossing a tile boundary."""
    return 1.0 - inside_fraction(d_times_tiles)


def _validated(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError(
            "d * 2^j must be in [0, 1] (object side at most one tile side)"
        )
    return x
