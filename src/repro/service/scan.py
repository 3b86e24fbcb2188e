"""The live synchronized self-scan: S3J's join phase over merged streams.

The batch join (:mod:`repro.core.sync_scan`) merges the *pages* of
sorted level files.  The service joins the *live* view of its index —
each level's base file merged with its in-memory delta minus tombstones
— so there is no page grid to walk; instead the merged per-level record
streams are cut into fixed-size **chunks** that play the role pages
play in the batch scan.

The correctness argument is the batch scan's, restated for chunks.  An
entity's interval is its Hilbert key truncated to its level's cell
(``2*(order-level)`` low bits zeroed); intervals of different levels
are nested or disjoint, so two entities can intersect only if one
interval contains the other.  Say ``Ix`` is contained in ``Iy``.  A
chunk's ``start`` is its first record's interval start (streams are
Hilbert-sorted, so ``chunk.start <= start of every member``) and its
``max_end`` covers its last member's interval, hence every member's.
If the two entities share a chunk, the chunk's self-sweep reports them.
Otherwise whichever chunk arrives second in the merge (larger
``start``) finds the other still open: with ``start_y <= start_x <
end_x <= end_y``, y's chunk satisfies ``max_end >= end_y > start_x >=
chunk_x.start`` and x's chunk satisfies ``max_end >= end_x > start_x >=
start_y >= chunk_y.start`` — strictly above the arriving chunk's
``start`` either way, and chunks are only expired when ``max_end <=
start``.  So every intersecting pair is swept exactly once.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.storage.backend import Record
from repro.storage.costs import sort_comparison_count
from repro.storage.iostats import IOStats
from repro.storage.records import HKEY, XLO
from repro.sweep.plane_sweep import scalar_sweep_intersections, sweep_self_intersections

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

PairSink = Callable[[Record, Record], None]

CHUNK_RECORDS = 85
"""Records per scan chunk — the descriptor capacity ``E`` of a default
4 KB page, so a chunk models one page of the batch scan."""


def live_self_scan(
    streams: dict[int, Iterable[Record]],
    order: int,
    on_pair: PairSink,
    stats: IOStats | None = None,
    metrics: MetricsRegistry | None = None,
) -> int:
    """Self-join the live index: report every MBR-intersecting pair of
    distinct entities to ``on_pair`` (each unordered pair at least once;
    callers canonicalize).

    ``streams`` maps level -> Hilbert-sorted live record stream;
    ``order`` is the curve order of the stored Hilbert keys.  Returns
    the number of chunks processed.
    """
    chunked = [
        _chunk_stream(stream, level, order, stats)
        for level, stream in streams.items()
    ]
    # Open chunks: (max interval end, x-sorted records, level).
    open_chunks: list[tuple[int, list[Record], int]] = []
    processed = 0
    for start, tiebreak, max_end, records in heapq.merge(*chunked):
        if any(end <= start for end, _, _ in open_chunks):
            open_chunks[:] = [item for item in open_chunks if item[0] > start]
        level = tiebreak[0]
        if metrics is not None:
            metrics.count("service.scan.chunks", level=level)
            metrics.observe("service.scan.open_chunks", len(open_chunks))
        for _, other_records, other_level in open_chunks:
            if metrics is not None:
                metrics.count(
                    "service.scan.level_sweeps", a=level, b=other_level
                )
            for rec_a, rec_b in scalar_sweep_intersections(records, other_records, stats):
                on_pair(rec_a, rec_b)
        for rec_a, rec_b in sweep_self_intersections(records, stats):
            on_pair(rec_a, rec_b)
        open_chunks.append((max_end, records, level))
        processed += 1
    return processed


def _chunk_stream(
    stream: Iterable[Record],
    level: int,
    order: int,
    stats: IOStats | None,
) -> Iterator[tuple[int, tuple[int, int], int, list[Record]]]:
    """Yield ``(start, tiebreak, max_end, x-sorted records)`` per chunk.

    Mirrors the batch scan's ``_page_stream``: interval truncation to
    the level's cell, start from the first record, max_end from the
    last, one x-sort per chunk (charged to the ledger like the batch
    scan charges its per-page sort).
    """
    shift = 2 * (order - level)
    size = 1 << shift
    chunk: list[Record] = []
    chunk_no = 0
    for record in stream:
        chunk.append(record)
        if len(chunk) >= CHUNK_RECORDS:
            yield _finish_chunk(chunk, level, chunk_no, shift, size, stats)
            chunk = []
            chunk_no += 1
    if chunk:
        yield _finish_chunk(chunk, level, chunk_no, shift, size, stats)


def _finish_chunk(
    chunk: list[Record],
    level: int,
    chunk_no: int,
    shift: int,
    size: int,
    stats: IOStats | None,
) -> tuple[int, tuple[int, int], int, list[Record]]:
    start = (chunk[0][HKEY] >> shift) << shift
    max_end = ((chunk[-1][HKEY] >> shift) << shift) + size
    chunk.sort(key=lambda record: record[XLO])
    if stats is not None:
        stats.charge_cpu("compare", sort_comparison_count(len(chunk)))
    return start, (level, chunk_no), max_end, chunk
