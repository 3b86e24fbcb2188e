"""Forward plane sweep over entity descriptors.

The classic internal spatial-join sweep (as used inside PBSM's
partition join): with both inputs sorted by ``xlo``, advance a sweep
line over the union of start events, and for each descriptor test the
not-yet-processed descriptors of the other input whose ``xlo`` falls
inside its x-extent.  Each intersecting pair is reported exactly once,
and each tested candidate is one ``mbr_test`` of the ledger.

:func:`sweep_intersections`, the paged engines' entry point, runs it
over two x-sorted descriptor arrays (:func:`x_sorted`) through the
vectorised kernel (:mod:`repro.fastpath.sweep`), whose two classes are
exactly the candidates of a left pivot and of a right pivot here, ties
included — so the ledger is priced with one ``charge_cpu("mbr_test",
n)`` per call.  Ids stay ``int64``: the pairs are a ``PAIR`` array, as
are a result file's rows and the join's result.
:func:`sweep_self_intersections` is the same sweep record at a time, in
its self-join form; ``tests/test_sweep.py`` holds the two-input one.
Both are references the kernel is tested against: nothing under
``src/`` calls them.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.fastpath.sweep import sweep_intersecting_pairs
from repro.storage.backend import Page, Record
from repro.storage.costs import sort_comparison_count
from repro.storage.iostats import IOStats
from repro.storage.records import PAIR, XHI, XLO, YHI, YLO, corners, take


def x_sorted(rows: Page, stats: IOStats | None = None) -> Page:
    """Descriptor rows ordered by ``xlo`` (stable), the sort's
    comparisons charged to ``stats`` when given."""
    if stats is not None:
        stats.charge_cpu("compare", sort_comparison_count(len(rows)))
    return take(rows, np.argsort(rows["xlo"], kind="stable"))


def sweep_intersections(
    left: Page, right: Page, stats: IOStats | None = None
) -> np.ndarray:
    """Every pair of intersecting MBRs between two ``xlo``-ordered
    descriptor arrays, as a :data:`~repro.storage.records.PAIR` array of
    ``(eid from left, eid from right)`` in the scalar sweep's order.

    Closed-interval semantics: boundary contact counts as intersection.
    One ``mbr_test`` per x-overlapping candidate is charged to ``stats``
    when given — the count the record-at-a-time sweep charges one at a
    time.  Sorting, and its price, is the caller's.
    """
    ia, ib, candidates = sweep_intersecting_pairs(corners(left), corners(right))
    if stats is not None and candidates:  # like the scalar loop: no candidate, no entry
        stats.charge_cpu("mbr_test", candidates)
    pairs = np.empty(len(ia), dtype=PAIR)
    pairs["a"] = left["eid"][ia]
    pairs["b"] = right["eid"][ib]
    pairs.setflags(write=False)  # a page-to-be: files take it without a copy
    return pairs


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
