"""Forward plane sweep over entity descriptors.

The classic internal spatial-join sweep (as used inside PBSM's
partition join): with both inputs sorted by ``xlo``, advance a sweep
line over the union of start events, and for each descriptor test the
not-yet-processed descriptors of the other input whose ``xlo`` falls
inside its x-extent.  Each intersecting pair is reported exactly once,
and each tested candidate is one ``mbr_test`` of the ledger.

:func:`sweep_intersections`, the paged engines' entry point, runs it
over descriptor *columns* through the vectorised kernel
(:mod:`repro.fastpath.sweep`), whose two classes are exactly the
candidates of a left pivot and of a right pivot here, ties included —
so the ledger is priced with one ``charge_cpu("mbr_test", n)`` per call.
:func:`scalar_sweep_intersections` is the same sweep record at a time,
and :func:`sweep_self_intersections` its self-join form: the references
the kernel is tested against.  Nothing under ``src/`` calls them.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.fastpath.sweep import sweep_intersecting_pairs
from repro.storage.backend import Record
from repro.storage.costs import sort_comparison_count
from repro.storage.iostats import IOStats
from repro.storage.records import XHI, XLO, YHI, YLO

Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
"""Descriptors as parallel arrays ``(eid, xlo, ylo, xhi, yhi)``."""


def sorted_columns(records: Sequence[Record], stats: IOStats | None = None) -> Columns:
    """Descriptor records as columns ordered by ``xlo``, the sort's
    comparisons charged to ``stats`` when given.

    The id column holds the records' own ``int`` objects: ids are only
    carried, never computed with (or rounded through a float), and a
    result pair built from them points at ints that already exist — an
    ``int64`` column would mint two per pair, 4 MiB per 30k-pair result.
    """
    if stats is not None:
        stats.charge_cpu("compare", sort_comparison_count(len(records)))
    if not records:
        return (np.empty(0, dtype=object), *(np.empty(0) for _ in range(4)))
    eid, xlo, ylo, xhi, yhi, _ = zip(*records)
    boxes = (np.array(column, dtype=np.float64) for column in (xlo, ylo, xhi, yhi))
    return x_sorted((np.array(eid, dtype=object), *boxes))


def x_sorted(*blocks: Columns) -> Columns:
    """Concatenate column blocks into one block ordered by ``xlo``
    (stable, like the record sort it replaces)."""
    columns = blocks[0] if len(blocks) == 1 else tuple(map(np.concatenate, zip(*blocks)))
    order = np.argsort(columns[1], kind="stable")
    return tuple(column[order] for column in columns)


def sweep_intersections(
    left: Columns, right: Columns, stats: IOStats | None = None
) -> list[tuple[int, int]]:
    """Every pair of intersecting MBRs between two ``xlo``-ordered
    column blocks, as ``(eid from left, eid from right)``.

    Closed-interval semantics: boundary contact counts as intersection.
    One ``mbr_test`` per x-overlapping candidate is charged to ``stats``
    when given — the count :func:`scalar_sweep_intersections` charges
    one at a time.  Sorting, and its price, is the caller's.
    """
    ia, ib, candidates = sweep_intersecting_pairs(left[1:], right[1:])
    if stats is not None and candidates:  # like the scalar loop: no candidate, no entry
        stats.charge_cpu("mbr_test", candidates)
    return list(zip(left[0][ia].tolist(), right[0][ib].tolist()))


def scalar_sweep_intersections(
    a: list[Record], b: list[Record], stats: IOStats | None = None
) -> Iterator[tuple[Record, Record]]:
    """Yield every pair of records with intersecting MBRs, one from
    each ``xlo``-ordered list — the record-at-a-time reference of
    :func:`sweep_intersections`, with the same charges."""
    ai = bi = 0
    len_a, len_b = len(a), len(b)
    while ai < len_a and bi < len_b:
        if a[ai][XLO] <= b[bi][XLO]:
            yield from _scan(a[ai], b, bi, stats, flip=False)
            ai += 1
        else:
            yield from _scan(b[bi], a, ai, stats, flip=True)
            bi += 1


def sweep_self_intersections(
    items: list[Record], stats: IOStats | None = None
) -> Iterator[tuple[Record, Record]]:
    """Yield every unordered pair of distinct intersecting MBRs within
    one ``xlo``-ordered list (self-join; each pair reported once, never
    ``(r, r)``)."""
    for i, current in enumerate(items):
        yield from _scan(current, items, i + 1, stats, flip=False)


def _scan(
    pivot: Record,
    others: list[Record],
    start: int,
    stats: IOStats | None,
    flip: bool,
) -> Iterator[tuple[Record, Record]]:
    """Test ``pivot`` against others[start:] while their xlo is within
    pivot's x-extent."""
    x_max = pivot[XHI]
    ylo, yhi = pivot[YLO], pivot[YHI]
    for k in range(start, len(others)):
        other = others[k]
        if other[XLO] > x_max:
            break
        if stats is not None:
            stats.charge_cpu("mbr_test")
        if ylo <= other[YHI] and other[YLO] <= yhi:
            yield (other, pivot) if flip else (pivot, other)
