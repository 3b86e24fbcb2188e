"""The live self-join: memory-mode S3J's join phase over the live view.

A live record (base merged with delta, minus tombstones) already holds
what memory mode's columns hold: the box, the level (its stream's) and
the Hilbert key of the centre, whose top ``2*K`` bits are the depth-``K``
cell.  So the records become one ``ColumnarDataset`` and
:func:`~repro.fastpath.join.join_columns` joins them, self-join role
only.  Base pages are read through the buffer pool, so the ledger prices
them and read faults reach the join.  The module keeps its name because
the layered benchmark's tracer wraps :func:`live_self_scan` by name.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

import numpy as np

from repro.fastpath.columnar import ColumnarDataset
from repro.fastpath.join import default_cell_level, join_columns
from repro.join.result import Pair
from repro.storage.backend import Record
from repro.storage.costs import sort_comparison_count
from repro.storage.iostats import IOStats

_RECORD = np.dtype("i8, f8, f8, f8, f8, i8")
"""A stored record as one structured row: eid, box corners, Hilbert key."""


def live_self_scan(
    streams: dict[int, Iterable[Record]], order: int, max_level: int, stats: IOStats
) -> frozenset[Pair]:
    """Every MBR-intersecting pair of distinct live entities, canonical
    (``(min, max)``, no ``(e, e)``).

    ``streams`` maps level -> live record stream; ``order`` is the curve
    order of the stored Hilbert keys and ``max_level`` the finest level
    a record can have.  ``stats`` is charged one x-rank sort
    (``compare``) and the kernel's candidates (``mbr_test``).
    """
    by_level = {level: list(stream) for level, stream in streams.items()}
    records = list(chain.from_iterable(by_level.values()))
    if not records:
        return frozenset()
    # One C-level pass.  ``zip(*records)`` would make a GC-tracked
    # iterator per record, promoted by the collections it triggers.
    table = np.array(records, dtype=_RECORD)
    eid, xlo, ylo, xhi, yhi, hkey = (table[name] for name in _RECORD.names)
    level = np.repeat(list(by_level), [len(group) for group in by_level.values()])
    depth = default_cell_level(len(records), max_level)
    cell = hkey >> 2 * (order - depth)
    columns = [ColumnarDataset(eid, xlo, ylo, xhi, yhi, level, cell, depth)]
    pairs, candidates, _ = join_columns(columns, depth)
    stats.charge_cpu("compare", sort_comparison_count(len(records)))
    stats.charge_cpu("mbr_test", candidates)
    return pairs
