"""Window -> key ranges -> page slices: the Filter Tree access path.

A level-``l`` entity lies inside one level-``l`` cell and is filed
under the curve key of its centre, so (prefix property) every
candidate for a window sits in the key ranges of the level-``l`` cells
the window meets — by monotone quantization, the grid box between the
quantized window corners.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Collection, Iterable, Iterator

from repro.curves.base import SpaceFillingCurve
from repro.geometry.rect import Rect
from repro.storage.backend import Record
from repro.storage.pagedfile import PagedFile
from repro.storage.records import HKEY

KeyRange = tuple[int, int]  # half-open [lo, hi) interval of curve keys
record_key = itemgetter(HKEY)


def window_key_ranges(
    curve: SpaceFillingCurve, window: Rect, levels: Iterable[int]
) -> dict[int, list[KeyRange]]:
    """Per requested level, the sorted, merged key ranges that can hold
    an entity meeting ``window`` (empty when it misses the unit square).

    At most four ``curve.key`` calls however large the window: they are
    taken at the deepest level where the clipped window spans <= 2x2
    cells.  A coarser level's cells are their ancestors (shift the
    prefixes); a deeper level reuses the ranges, a superset of its own.
    """
    if min(window.xhi, window.yhi) < 0.0 or max(window.xlo, window.ylo) > 1.0:
        return {}
    xlo, ylo, xhi, yhi = map(curve.quantize, window.clamped().as_tuple())
    down = max((xhi - xlo).bit_length(), (yhi - ylo).bit_length(), 1) - 1
    while (xhi >> down) - (xlo >> down) > 1 or (yhi >> down) - (ylo >> down) > 1:
        down += 1
    deepest = curve.order - down
    prefixes = [
        curve.cell_key_range(cx << down, cy << down, deepest)[0] >> 2 * down
        for cx in {xlo >> down, xhi >> down}
        for cy in {ylo >> down, yhi >> down}
    ]
    ranges: dict[int, list[KeyRange]] = {}
    for level in levels:
        up = 2 * max(deepest - level, 0)
        width = 1 << 2 * down + up
        merged: list[KeyRange] = []
        for lo in sorted({(prefix >> up) * width for prefix in prefixes}):
            if merged and merged[-1][1] == lo:
                merged[-1] = (merged[-1][0], lo + width)
            else:
                merged.append((lo, lo + width))
        ranges[level] = merged
    return ranges


def range_records(
    handle: PagedFile, directory: list[int], ranges: list[KeyRange]
) -> Iterator[list[Record]]:
    """The records of a key-sorted file whose key falls in one of the
    sorted, disjoint ``ranges``, one slice per touched page.  Only the
    pages that ``directory`` (first key of every page) places in a
    range are read, each once; the first and last are bisected.
    """
    page_no, records = -1, []
    for lo, hi in ranges:
        # The page before the first one starting at or after ``lo`` may
        # spill into the range (its last key is not in the directory).
        first = max(bisect_left(directory, lo) - 1, 0)
        last = bisect_left(directory, hi) - 1
        for number in range(first, last + 1):
            if number != page_no:
                page_no, records = number, handle.read_page(number)
            start = bisect_left(records, lo, key=record_key) if number == first else 0
            stop = bisect_left(records, hi, key=record_key) if number == last else None
            if chunk := records[start:stop]:
                yield chunk


def matching(
    records: list[Record], window: Rect, dead: Collection[int] = ()
) -> list[int]:
    """Eids of the records whose MBR meets the closed window, minus
    those in ``dead``."""
    wxlo, wylo, wxhi, wyhi = window.as_tuple()
    return [
        eid
        for eid, xlo, ylo, xhi, yhi, _ in records
        if xlo <= wxhi and wxlo <= xhi and ylo <= wyhi and wylo <= yhi
        and eid not in dead
    ]
