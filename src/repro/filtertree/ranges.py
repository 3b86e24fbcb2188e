"""Window -> centre boxes -> key ranges -> records: the Filter Tree
access path of :class:`~repro.service.index.PersistentIndex`.

An entity is filed under the curve key of its MBR centre, in the level
file of its size class.  Two facts bound where the centre of a level-
``l`` entity that meets a window can lie, both in grid units (``q`` is
``curve.quantize``, monotone):

- the entity lies inside one level-``l`` cell, so the centre is in one
  of the level-``l`` cells between the quantized window corners;
- the level's *reach* ``(rx, ry)`` bounds ``q(cx) - q(xlo)`` and
  ``q(xhi) - q(cx)`` of every record in it, and ``xlo <= wxhi``,
  ``wxlo <= xhi`` give ``q(wxlo) - rx <= q(cx) <= q(wxhi) + rx``.

The intersection is an integer box; its cover by at most 2x2 cells at
the deepest depth that allows it is (prefix property) at most four key
ranges, each keyed at the cover's own depth.  :meth:`KeyDirectory.probe`
turns the ranges of every level into record positions with one binary
search over one sorted array, fetches only the pages that hold a
candidate and tests the records there, and bisects a level's delta on
the same ranges — the index's one query loop.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import itemgetter
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from repro.curves.base import SpaceFillingCurve
from repro.geometry.rect import Rect
from repro.storage.backend import Page, Record
from repro.storage.pagedfile import PagedFile
from repro.storage.records import EID, HKEY, corners

KeyRange = tuple[int, int]  # half-open [lo, hi) interval of curve keys
Reach = tuple[int, int]  # grid units a level's centres lie from its MBR edges
Plan = list[tuple[int, list[KeyRange]]]  # per level, its sorted disjoint ranges
record_key = itemgetter(HKEY)


def box_key_ranges(
    curve: SpaceFillingCurve, xlo: int, ylo: int, xhi: int, yhi: int
) -> list[KeyRange]:
    """The sorted, merged key ranges of the <= 2x2 cells that cover the
    closed grid box, taken and keyed at the deepest depth where four
    suffice: at most four ``curve.cell_key`` calls however large the box."""
    down = max((xhi - xlo).bit_length(), (yhi - ylo).bit_length(), 1) - 1
    while (xhi >> down) - (xlo >> down) > 1 or (yhi >> down) - (ylo >> down) > 1:
        down += 1
    depth, shift = curve.order - down, 2 * down
    columns = {xlo >> down, xhi >> down}
    rows = {ylo >> down, yhi >> down}
    merged: list[KeyRange] = []
    for cell in sorted([curve.cell_key(x, y, depth) for x in columns for y in rows]):
        if merged and merged[-1][1] == cell << shift:
            merged[-1] = (merged[-1][0], cell + 1 << shift)
        else:
            merged.append((cell << shift, cell + 1 << shift))
    return merged


class KeyDirectory:
    """One sorted ``int64`` array ``level << 2*order | key`` over every
    base record of an index (8 bytes beside the record's 48), plus each
    level's reach.  Level files are bulk-written — every page but the
    last is full — so a position in the array names a page and a slot.
    """

    def __init__(self, curve: SpaceFillingCurve, max_level: int) -> None:
        self.curve = curve
        self._shift = 2 * curve.order
        if ((max_level + 1) << self._shift).bit_length() > 63:
            raise ValueError(
                f"{max_level + 1} levels of order-{curve.order} keys "
                "do not fit the 64-bit key directory"
            )
        self._half_side = curve.side / 2
        self.keys = np.empty(0, dtype=np.int64)
        self.starts: dict[int, int] = {}  # level -> position of its first record
        self.reach: dict[int, Reach] = {}  # of base and delta records alike

    def level_keys(self, level: int, rows: Page) -> np.ndarray:
        """The directory's part for a level file holding exactly the
        key-sorted ``rows``."""
        return rows["hkey"] + (level << self._shift)

    def replace(self, entries: Mapping[int, np.ndarray | None]) -> None:
        """Install the :meth:`level_keys` of rewritten level files
        (``None``: the level is gone, its reach with it); every other
        level keeps its part."""
        order = sorted(self.starts)
        stops = [self.starts[level] for level in order[1:]] + [len(self.keys)]
        parts = {
            level: self.keys[self.starts[level] : stop]
            for level, stop in zip(order, stops)
        }
        for level, keys in entries.items():
            if keys is None:
                parts.pop(level, None)
                self.reach.pop(level, None)
            else:
                parts[level] = keys
        order = sorted(parts)
        self.keys = np.concatenate([parts[level] for level in order] or [self.keys[:0]])
        sizes = (len(parts[level]) for level in order)
        self.starts = dict(zip(order, accumulate(sizes, initial=0)))

    def grow(self, level: int, rows: Page) -> None:
        """Widen a level's reach to cover ``rows`` too."""
        if len(rows):
            xlo, ylo, xhi, yhi = corners(rows)
            self.widen(level, float((xhi - xlo).max()), float((yhi - ylo).max()))

    def widen(self, level: int, width: float, height: float) -> None:
        """Widen a level's reach to cover an MBR of this ``width`` and
        ``height``.  Reach only grows — a delete leaves it high, which is
        safe — until a reopen takes it off the level files afresh."""
        # q(a) - q(b) <= ceil((a - b) * side) for a >= b, the centre is
        # half a width from either edge, and the float centre and width
        # are off by far less than a grid unit: floor + 2 covers both.
        rx, ry = int(width * self._half_side) + 2, int(height * self._half_side) + 2
        held = self.reach.get(level, (0, 0))
        if rx > held[0] or ry > held[1]:
            self.reach[level] = (max(rx, held[0]), max(ry, held[1]))

    def key_ranges(self, window: Rect, levels: Iterable[int]) -> Plan:
        """Per requested level, the key ranges that can hold an entity
        meeting ``window`` (nothing when it misses the unit square).
        Levels with the same centre box share one cover."""
        wxlo, wylo, wxhi, wyhi = window.as_tuple()
        if wxhi < 0.0 or wyhi < 0.0 or wxlo > 1.0 or wylo > 1.0:
            return []
        curve = self.curve
        xlo, ylo = curve.quantize(max(wxlo, 0.0)), curve.quantize(max(wylo, 0.0))
        xhi, yhi = curve.quantize(min(wxhi, 1.0)), curve.quantize(min(wyhi, 1.0))
        covers: dict[tuple[int, int, int, int], list[KeyRange]] = {}
        plan: Plan = []
        for level in levels:
            rx, ry = self.reach[level]
            cell = (1 << curve.order - level) - 1
            # The reach box, cut to the level's cells the window meets.
            left, cell_left = xlo - rx, xlo & ~cell
            low, cell_low = ylo - ry, ylo & ~cell
            right, cell_right = xhi + rx, xhi | cell
            high, cell_high = yhi + ry, yhi | cell
            box = (
                left if left > cell_left else cell_left,
                low if low > cell_low else cell_low,
                right if right < cell_right else cell_right,
                high if high < cell_high else cell_high,
            )
            ranges = covers.get(box)
            if ranges is None:
                ranges = covers[box] = box_key_ranges(curve, *box)
            plan.append((level, ranges))
        return plan

    def probe(
        self,
        window: Rect,
        files: Mapping[int, PagedFile],
        levels: Iterable[int],
        dead: Mapping[int, Collection[int]],
        delta: Mapping[int, Sequence[Record]],
    ) -> tuple[list[int], int]:
        """The eids of the records whose MBR meets the closed ``window``,
        and how many records were examined.  Per planned level: the
        records of its file in the planned ranges, minus the level's
        ``dead`` eids, then those of its key-sorted ``delta`` buffer.
        One binary search places every range of every level; each page
        holding one is read (through the pool: the ledger prices it)
        once, in key order."""
        plan, shift = self.key_ranges(window, levels), self._shift
        cuts = self.keys.searchsorted(
            [(level << shift) + key for level, ranges in plan if level in files
             for key_range in ranges for key in key_range]
        ).tolist()
        rows: list[Record] = []
        examined = at = 0
        for level, ranges in plan:
            handle = files.get(level)
            if handle is not None:
                first, size = self.starts[level], handle.records_per_page
                page_no, page, mark = -1, [], len(rows)
                for _ in ranges:
                    start, stop = cuts[at] - first, cuts[at + 1] - first
                    at += 2
                    if start == stop:
                        continue
                    examined += stop - start
                    for number in range(start // size, (stop - 1) // size + 1):
                        if number != page_no:
                            page_no, page = number, handle.read_page(number)
                        offset = number * size
                        rows += page[max(start - offset, 0) : stop - offset].tolist()
                gone = dead.get(level)
                if gone:  # tombstones name base records only
                    rows[mark:] = [row for row in rows[mark:] if row[EID] not in gone]
            buffer = delta.get(level)
            for lo, hi in ranges if buffer else ():
                start = bisect_left(buffer, lo, key=record_key)
                stop = bisect_left(buffer, hi, start, key=record_key)
                examined += stop - start
                rows += buffer[start:stop]
        wxlo, wylo, wxhi, wyhi = window.as_tuple()
        hits = [
            eid
            for eid, xlo, ylo, xhi, yhi, _ in rows
            if xlo <= wxhi and wxlo <= xhi and ylo <= wyhi and wylo <= yhi
        ]
        return hits, examined
