"""The live self-join: memory-mode S3J's join phase over the live view.

A live page (base merged with delta, minus tombstones) already holds
what memory mode's columns hold: the box, the level (its stream's) and
the Hilbert key of the centre, whose top ``2*K`` bits are the depth-``K``
cell.  So the pages, concatenated, become one ``ColumnarDataset`` and
:func:`~repro.fastpath.join.join_columns` joins them, self-join role
only.  Base pages are read through the buffer pool, so the ledger prices
them and read faults reach the join.  The module keeps its name because
the layered benchmark's tracer wraps :func:`live_self_scan` by name.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.fastpath.columnar import ColumnarDataset
from repro.fastpath.join import default_cell_level, join_columns
from repro.join.result import Pair
from repro.storage.backend import Page
from repro.storage.costs import sort_comparison_count
from repro.storage.iostats import IOStats
from repro.storage.records import DESCRIPTOR, concat_pages


def live_self_scan(
    streams: dict[int, Iterable[Page]], order: int, max_level: int, stats: IOStats
) -> frozenset[Pair]:
    """Every MBR-intersecting pair of distinct live entities, canonical
    (``(min, max)``, no ``(e, e)``).

    ``streams`` maps level -> live page stream; ``order`` is the curve
    order of the stored Hilbert keys and ``max_level`` the finest level
    a record can have.  ``stats`` is charged one x-rank sort
    (``compare``) and the kernel's candidates (``mbr_test``).
    """
    by_level = {level: list(pages) for level, pages in streams.items()}
    pages = [page for group in by_level.values() for page in group]
    table = concat_pages(pages, DESCRIPTOR)
    if not len(table):
        return frozenset()
    eid, xlo, ylo, xhi, yhi, hkey = (table[name] for name in DESCRIPTOR.names)
    level = np.repeat(list(by_level), [sum(map(len, group)) for group in by_level.values()])
    depth = default_cell_level(len(table), max_level)
    cell = hkey >> 2 * (order - depth)
    columns = [ColumnarDataset(eid, xlo, ylo, xhi, yhi, level, cell, depth)]
    pairs, candidates, _ = join_columns(columns, depth)
    stats.charge_cpu("compare", sort_comparison_count(len(table)))
    stats.charge_cpu("mbr_test", candidates)
    return frozenset(pairs.tolist())
