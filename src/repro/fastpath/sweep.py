"""The vectorized forward-sweep interval join kernel.

*The* sweep of both execution modes: given two sets of rectangles,
report every pair whose MBRs intersect (closed intervals — boundary
contact counts, matching ``Rect.intersects``).

The kernel follows the *forward sweep* of Tsitsigkos & Mamoulis
(PAPERS.md, 1908.11740): with both inputs sorted by ``xlo``, every
x-overlapping pair ``(a, b)`` falls in exactly one of two disjoint
classes,

1. ``b.xlo ∈ [a.xlo, a.xhi]`` — *b starts inside a*, and
2. ``a.xlo ∈ (b.xlo, b.xhi]`` — *a starts strictly inside b*,

and each class is a single contiguous range of the other input's sorted
``xlo`` array.  One expansion, :func:`_expand_ranges`, turns per-row
ranges into explicit index pairs with ``repeat``/``cumsum`` arithmetic,
repeating the row ids themselves; the caller filters them by a
vectorized closed-interval y-overlap mask — no Python-level loop over
candidates anywhere.  The ranges are computed two ways, one per entry
point:

- **sparse**, memory mode's (:func:`forward_sweep_pairs`, once per cell
  level and role).  Its keys are int64 composites ``cell * R + rank``
  (any ordered key with ``lo <= hi`` per row works), so one call sweeps
  every cell of a level, and most rows meet no candidate (70 % of the
  rows of the layered benchmark's seed-1 join).  So only a row with a
  candidate pays for a range, and the candidates, possibly millions,
  are expanded in chunks.
- **dense**, the paged engines' (:func:`sweep_intersecting_pairs`, per
  arriving page or partition pair through
  :func:`repro.sweep.plane_sweep.sweep_intersections`): four
  ``searchsorted`` calls.  Those calls are small (~800 open rows, most
  with a candidate), NumPy's per-call overhead dominates, and the
  sparse body there cost ``batch_ledger`` 8–11 % more (ROADMAP
  negative result 24).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

Boxes = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
"""Rectangles as parallel arrays ``(xlo, ylo, xhi, yhi)``."""

CHUNK_CANDIDATES = 1 << 16
"""Candidates per chunk of :func:`forward_sweep_pairs`: a chunk and its
caller's y-mask are a few MiB, cache-resident, where a whole level of a
90k-entity join is tens of MiB of index arrays."""


def _expand_ranges(
    rows: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand the half-open index range ``[starts[k], stops[k])`` of
    row ``rows[k]`` into explicit ``(row, index)`` pairs.

    Returns ``(rows, indices)``: each row id repeated once per element
    of its range — the ids themselves, so no candidate-sized gather
    follows — and the ranges enumerated in order.
    """
    counts = stops - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Output slot k of row i holds starts[i] + (k - first slot of i):
    # a global arange plus the (repeated) per-row constant.
    block_starts = np.cumsum(counts) - counts
    indices = np.repeat(starts - block_starts, counts) + np.arange(total, dtype=np.int64)
    return np.repeat(rows, counts), indices


def _overlap_ranges(
    axlo: np.ndarray, axhi: np.ndarray, bxlo: np.ndarray, bxhi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-interval x-overlap (``axlo[i] <= bxhi[j] and bxlo[j] <=
    axhi[i]``) as half-open index ranges ``(lo1, hi1, lo2, hi2)``: row
    ``i`` of A overlaps ``b[lo1[i]:hi1[i]]`` (class 1) and row ``j`` of B
    overlaps ``a[lo2[j]:hi2[j]]`` (class 2), each pair in exactly one.
    ``axlo`` and ``bxlo`` must be sorted ascending (``axhi`` / ``bxhi``
    ride along unsorted)."""
    # Class 1: b starts inside a — bxlo[j] in [axlo[i], axhi[i]].
    lo1 = np.searchsorted(bxlo, axlo, side="left")
    hi1 = np.searchsorted(bxlo, axhi, side="right")
    # Class 2: a starts strictly inside b — axlo[i] in (bxlo[j], bxhi[j]].
    lo2 = np.searchsorted(axlo, bxlo, side="right")
    hi2 = np.searchsorted(axlo, bxhi, side="right")
    return lo1, np.maximum(lo1, hi1), lo2, np.maximum(lo2, hi2)


def forward_sweep_pairs(
    axlo: np.ndarray, axhi: np.ndarray, bxlo: np.ndarray, bxhi: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Memory mode's entry point onto the kernel: every x-overlapping
    index pair exactly once, as ``(ia, ib)`` chunks of whole rows, each
    as long as fits :data:`CHUNK_CANDIDATES` pairs (a single row above
    that goes alone); class 1, then class 2, each in row order.

    Only rows with a candidate get a range.  Class 1's starts follow
    from class 2's by a merge: ``lo1[i]`` counts the ``j`` with
    ``lo2[j] <= i``.  An A row has a class-1 candidate exactly when the
    B key at ``lo1[i]`` (a sentinel past B's end) is ``<= axhi[i]``, so
    ``hi1`` is searched for those rows alone.
    """
    if not len(axlo) or not len(bxlo):
        return
    lo2 = np.searchsorted(axlo, bxlo, side="right")
    hi2 = np.searchsorted(axlo, bxhi, side="right")
    lo1 = np.cumsum(np.bincount(lo2, minlength=len(axlo) + 1)[:-1])
    sentinel = np.inf if bxlo.dtype.kind == "f" else np.iinfo(bxlo.dtype).max
    rows1 = np.flatnonzero(np.append(bxlo, sentinel)[lo1] <= axhi)
    lo1 = lo1[rows1]
    hi1 = np.searchsorted(bxlo, axhi[rows1], side="right")
    rows2 = np.flatnonzero(hi2 > lo2)
    for rows, starts, stops, step in ((rows1, lo1, hi1, 1), (rows2, lo2[rows2], hi2[rows2], -1)):
        ends = np.cumsum(stops - starts)
        first = 0
        while first < len(rows):
            budget = (ends[first - 1] if first else 0) + CHUNK_CANDIDATES
            last = max(first + 1, int(np.searchsorted(ends, budget, side="right")))
            chunk = _expand_ranges(rows[first:last], starts[first:last], stops[first:last])
            yield chunk[::step]  # class 2's rows are B's
            first = last


def sweep_intersecting_pairs(a: Boxes, b: Boxes) -> tuple[np.ndarray, np.ndarray, int]:
    """The paged engines' entry point: all index pairs of intersecting
    rectangles between two inputs that are each ordered by ``xlo``.

    The third element is the number of x-overlapping candidate pairs
    the y-mask tested: the ``mbr_test`` count of the ledger, in both
    execution modes.

    Pairs come out in the order the record-at-a-time sweep reports
    them — by the ``xlo`` of whichever rectangle starts first, A before
    B on ties — because a file of them may be sorted with duplicate
    elimination afterwards (PBSM), and which duplicates meet in one run
    depends on the order they were written in.
    """
    axlo, aylo, axhi, ayhi = a
    bxlo, bylo, bxhi, byhi = b
    lo1, hi1, lo2, hi2 = _overlap_ranges(axlo, axhi, bxlo, bxhi)
    ia1, ib1 = _expand_ranges(np.arange(len(lo1)), lo1, hi1)
    ib2, ia2 = _expand_ranges(np.arange(len(lo2)), lo2, hi2)
    ia, ib = np.concatenate([ia1, ia2]), np.concatenate([ib1, ib2])
    keep = (aylo[ia] <= byhi[ib]) & (bylo[ib] <= ayhi[ia])
    ia, ib = ia[keep], ib[keep]
    # Class 1 precedes class 2 and each is in index order, so a stable
    # sort on the pivot's xlo is the merge order of the scalar sweep.
    emit = np.argsort(np.minimum(axlo[ia], bxlo[ib]), kind="stable")
    return ia[emit], ib[emit], len(keep)
