"""The synchronized scan: S3J's join phase.

Every entity in a sorted level file is contained in exactly one cell of
the ``2^l`` grid at its level ``l``, and that cell corresponds to one
contiguous Hilbert key range.  Cells at different levels are either
nested or disjoint, so the entities' key ranges form a family of
*nested intervals*: two entities can intersect only if one's interval
contains the other's.

The scan merges the *pages* of all level files of both data sets in
order of Hilbert range — the paper's "process entries in A_l(Hs, He)
with those contained in B_(l-i)(Hs, He) for i = 0..l", which "strongly
resembles an L-way merge sort" (section 3.1).  Each page is read
exactly once, ordered by ``xlo`` once, and plane-swept (with
the same sweep module PBSM uses, per section 5) against the still-open
pages of the other data set — all of them in one kernel call, priced
with one ledger charge.  A page stays open while any of its entities'
intervals can still enclose later arrivals.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.storage.backend import Page
from repro.storage.iostats import IOStats
from repro.storage.pagedfile import PagedFile
from repro.storage.records import concat_pages
from repro.sweep.plane_sweep import sweep_intersections, x_sorted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import EventSink
    from repro.obs.metrics import MetricsRegistry

PairSink = Callable[[np.ndarray], None]
"""Receives the result pairs of one arriving page at a time, as a
:data:`~repro.storage.records.PAIR` array of ``(eid from A, eid from
B)``; it is never called with an empty one."""

_SIDE_A = 0  # index of data set A in per-side pairs; B is 1

# An open page: (max interval end, its rows by xlo, level).
_OpenPage = tuple[int, Page, int]


def synchronized_scan(
    files_a: dict[int, PagedFile],
    files_b: dict[int, PagedFile],
    order: int,
    on_pairs: PairSink,
    stats: IOStats | None = None,
    metrics: MetricsRegistry | None = None,
    events: EventSink | None = None,
) -> int:
    """Merge the sorted level files of both data sets, reporting every
    pair of MBR-intersecting descriptors to ``on_pairs``.

    ``files_a``/``files_b`` map level -> Hilbert-sorted level file;
    ``order`` is the curve order the Hilbert values were computed at.
    Returns the number of pages processed.

    ``metrics`` (observability only — never part of the simulated
    ledger) records open-page depth, per-level-pair sweep counts, and
    candidate pairs tested versus emitted.  ``events`` (also
    observability-only) receives a rate-limited liveness heartbeat per
    merged page, so a long scan stays visible in the event stream.
    """
    beat = events is not None and events.enabled
    streams = [
        _page_stream(handle, level, order, side, stats)
        for side, files in enumerate((files_a, files_b))
        for level, handle in files.items()
    ]
    open_pages: tuple[list[_OpenPage], list[_OpenPage]] = ([], [])
    processed = 0
    emitted = 0
    tests_before = 0
    if metrics is not None and stats is not None:
        tests_before = stats.total.cpu_ops.get("mbr_test", 0)

    for start, (side, level, _), max_end, rows in heapq.merge(*streams):
        # Drop pages none of whose intervals can reach the new start.
        # Page max-ends are not nested (a page mixes cells), so this is
        # a filter rather than a stack pop; the open set stays small
        # because only pages holding large (low-level) entities persist.
        for pages in open_pages:
            pages[:] = [page for page in pages if page[0] > start]
        others = open_pages[1 - side]
        if metrics is not None:
            metrics.count("scan.pages", side="A" if side == _SIDE_A else "B")
            metrics.observe("scan.open_pages", sum(map(len, open_pages)))
            for _, _, other_level in others:
                levels = (level, other_level) if side == _SIDE_A else (other_level, level)
                metrics.count("scan.level_sweeps", a=levels[0], b=levels[1])
        if others:
            # One kernel call per arriving page: the candidate count is
            # a sum over (a, b) pairs, so sweeping the concatenation of
            # the open pages charges what sweeping each in turn would.
            blocks = [page[1] for page in others]
            against = blocks[0] if len(blocks) == 1 else x_sorted(concat_pages(blocks))
            a, b = (rows, against) if side == _SIDE_A else (against, rows)
            found = sweep_intersections(a, b, stats=stats)
            if len(found):
                on_pairs(found)
                emitted += len(found)
        open_pages[side].append((max_end, rows, level))
        processed += 1
        if beat:
            events.heartbeat("join")

    if metrics is not None:
        metrics.count("scan.pairs_emitted", emitted)
        if stats is not None:
            metrics.count(
                "scan.pairs_tested",
                stats.total.cpu_ops.get("mbr_test", 0) - tests_before,
            )
    return processed


def _page_stream(
    handle: PagedFile, level: int, order: int, side: int, stats: IOStats | None
) -> Iterator[tuple[int, tuple[int, int, int], int, Page]]:
    """Yield (start, (side, level, page no), max_end, rows by ``xlo``)
    per page; the middle element only breaks ties in the merge.

    The interval of an entity is the Hilbert key range of its
    level-``level`` cell: the stored key truncated to the top
    ``2*level`` bits.  Truncation is monotone, so a Hilbert-sorted
    level file is also sorted by interval start, and the first record
    of a page carries the page's minimum start.
    """
    shift = 2 * (order - level)
    size = 1 << shift
    for page_no in range(handle.num_pages):
        page = handle.read_page(page_no)
        if not len(page):
            continue
        keys = page["hkey"]
        start = (int(keys[0]) >> shift) << shift
        max_end = ((int(keys[-1]) >> shift) << shift) + size
        yield start, (side, level, page_no), max_end, x_sorted(page, stats)
