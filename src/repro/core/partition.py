"""The batched columnar partition pipeline.

The partition phase is S3J's claimed advantage — one scan, no
replication (section 3.1) — yet a record-at-a-time implementation pays
a ``Rect`` construction, a scalar ``level()`` call, a scalar Hilbert
recursion, and a buffer-pool fetch/unpin round-trip per entity.  This
module runs the same phase in *blocks*: input pages are scanned a batch
at a time, levels and curve keys are computed with the vectorized NumPy
kernels (:meth:`repro.filtertree.levels.LevelAssigner.levels`,
:meth:`repro.curves.base.SpaceFillingCurve.keys`), the Dynamic Spatial
Bitmap is set/probed per block, and descriptors are routed to their
level/partition files through the true-bulk
:meth:`repro.storage.pagedfile.PagedFile.extend`.

The load-bearing invariant — enforced by ``tests/test_partition_parity``
— is that the simulated ledger and the emitted records are **identical**
to the scalar reference paths kept in the algorithm modules:

- the same input pages are read in the same order, and block scans
  release their clean input frames (:meth:`BufferPool.release`) so bulk
  reads never push another file's dirty output tail out of the LRU;
- output files receive the same records in the same order, so page
  creates, write-behinds, and flushes are identical per file (and the
  per-file sequential/random classification with them);
- every CPU op (``level``, ``hilbert``, ``partition``, ``bitmap``) is
  charged in bulk with the exact per-record count of the scalar loop;
- :meth:`PagedFile.extend` charges the buffer hits the per-record tail
  fetches would have recorded.

Ledger parity holds whenever the buffer pool retains every open output
tail page between touches — the same condition under which the scalar
path does not thrash.  Identical floating-point expressions are used
throughout (quantization, tile clipping, nearest-center distances), so
the routing decisions are bit-identical, not merely close.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro.filtertree.levels import quantize_array
from repro.storage.backend import Record
from repro.storage.records import HKEY, XHI, XLO, YHI, YLO

if TYPE_CHECKING:
    from repro.core.bitmap import DynamicSpatialBitmap
    from repro.curves.base import SpaceFillingCurve
    from repro.filtertree.levels import LevelAssigner
    from repro.geometry.rect import Rect
    from repro.storage.manager import StorageManager
    from repro.storage.pagedfile import PagedFile

DEFAULT_BATCH_SIZE = 4096
"""Records per block.  Large enough to amortize the NumPy kernel launch
overhead, small enough that a block's worth of input pages plus the open
output tails fits comfortably in the paper's buffer-pool sizings."""


def iter_record_blocks(
    source: PagedFile, batch_size: int
) -> Iterator[list[Record]]:
    """Yield blocks of at least ``batch_size`` records in file order.

    Pages are read through the buffer pool (so the ledger counts them
    exactly as a record-at-a-time scan would) and their clean frames are
    released as soon as the records are copied out, keeping the pool
    footprint at one input frame regardless of block size.
    """
    block: list[Record] = []
    for page_no in range(source.num_pages):
        block.extend(source.read_page(page_no))
        source.pool.release(source.name, page_no)
        if len(block) >= batch_size:
            yield block
            block = []
    if block:
        yield block


def _corner_columns(
    block: list[Record],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columnar float64 views of the MBR corners of one block."""
    table = np.array(block, dtype=np.float64)
    return table[:, XLO], table[:, YLO], table[:, XHI], table[:, YHI]


# -- S3J: level files ------------------------------------------------------


def partition_levels(
    source: PagedFile,
    *,
    storage: StorageManager,
    assigner: LevelAssigner,
    curve: SpaceFillingCurve,
    namer: Callable[[int], str],
    bitmap: DynamicSpatialBitmap | None = None,
    building: bool = False,
    hilbert_precomputed: bool = False,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> dict[int, PagedFile]:
    """Batched S3J partition of one data set into level files.

    The block pipeline of
    :meth:`repro.core.s3j.SizeSeparationSpatialJoin._partition_scalar`:
    levels and curve keys come from the NumPy kernels, the DSB is
    populated (``building=True``) or probed per block, and surviving
    descriptors are routed level-by-level through bulk extends.
    """
    stats = storage.stats
    level_files: dict[int, PagedFile] = {}
    for block in iter_record_blocks(source, batch_size):
        n = len(block)
        xlo, ylo, xhi, yhi = _corner_columns(block)
        levels = assigner.levels(xlo, ylo, xhi, yhi).tolist()
        stats.charge_cpu("level", n)
        if hilbert_precomputed:
            hkeys: list[int] = [record[HKEY] for record in block]
        else:
            qx = quantize_array((xlo + xhi) / 2, curve.side, "center x")
            qy = quantize_array((ylo + yhi) / 2, curve.side, "center y")
            hkeys = curve.keys(qx, qy).tolist()
            stats.charge_cpu("hilbert", n)

        kept: Sequence[int] | None = None
        if bitmap is not None:
            if building:
                bitmap.set_batch(xlo, ylo, xhi, yhi, hkeys, levels)
            else:
                admitted = bitmap.admits_batch(xlo, ylo, xhi, yhi, hkeys, levels)
                kept = [i for i in range(n) if admitted[i]]

        # Emitted descriptors reuse the original tuple fields (no float
        # round-trips through NumPy), swapping in the fresh curve key.
        grouped: dict[int, list[Record]] = {}
        if kept is None:  # nothing filtered: emit the whole block
            emitted = [
                record[:HKEY] + (hkey,) for record, hkey in zip(block, hkeys)
            ]
            if len(set(levels)) == 1:  # uniform data: one level file
                grouped[levels[0]] = emitted
            else:
                for level, out in zip(levels, emitted):
                    grouped.setdefault(level, []).append(out)
        else:
            for i in kept:
                grouped.setdefault(levels[i], []).append(
                    block[i][:HKEY] + (hkeys[i],)
                )
        for level in sorted(grouped):
            handle = level_files.get(level)
            if handle is None:
                handle = storage.create_file(namer(level))
                level_files[level] = handle
            handle.extend(grouped[level])
    return level_files


# -- PBSM: tile grid -------------------------------------------------------


def partition_tiles(
    source: PagedFile,
    *,
    storage: StorageManager,
    space: Rect,
    grid: int,
    tile_to_partition: Callable[[int], int],
    namer: Callable[[int], str],
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> tuple[dict[int, PagedFile], int, int]:
    """Batched PBSM tiling pass: scatter descriptors into partition
    files with replication.  Returns (files, records written, records
    filtered out) exactly like the scalar pass.
    """
    stats = storage.stats
    files: dict[int, PagedFile] = {}
    written = 0
    filtered = 0
    width = space.width or 1.0
    height = space.height or 1.0
    for block in iter_record_blocks(source, batch_size):
        n = len(block)
        stats.charge_cpu("partition", n)
        xlo, ylo, xhi, yhi = _corner_columns(block)
        # Closed-interval clip against the tile space; rows outside it
        # are the filtered entities (Rect.intersection returning None).
        keep = (
            (xlo <= space.xhi)
            & (space.xlo <= xhi)
            & (ylo <= space.yhi)
            & (space.ylo <= yhi)
        ).tolist()
        txlo = _tile_index(np.maximum(xlo, space.xlo), space.xlo, width, grid)
        tylo = _tile_index(np.maximum(ylo, space.ylo), space.ylo, height, grid)
        txhi = _tile_index(np.minimum(xhi, space.xhi), space.xlo, width, grid)
        tyhi = _tile_index(np.minimum(yhi, space.yhi), space.ylo, height, grid)
        txlo_l, tylo_l = txlo.tolist(), tylo.tolist()
        txhi_l, tyhi_l = txhi.tolist(), tyhi.tolist()

        grouped: dict[int, list[Record]] = {}
        for i in range(n):
            if not keep[i]:
                filtered += 1
                continue
            x0, x1 = txlo_l[i], txhi_l[i]
            y0, y1 = tylo_l[i], tyhi_l[i]
            if x0 == x1 and y0 == y1:  # the common unreplicated case
                targets: Sequence[int] = (tile_to_partition(y0 * grid + x0),)
            else:
                # Same comprehension (and set iteration order) as the
                # scalar path, so replicated appends land in the same
                # partition-file order.
                targets = {
                    tile_to_partition(cy * grid + cx)
                    for cy in range(y0, y1 + 1)
                    for cx in range(x0, x1 + 1)
                }
            record = block[i]
            for p in targets:
                grouped.setdefault(p, []).append(record)
            written += len(targets)
        for p in sorted(grouped):
            handle = files.get(p)
            if handle is None:
                handle = storage.create_file(namer(p))
                files[p] = handle
            handle.extend(grouped[p])
    return files, written, filtered


def _tile_index(
    coords: np.ndarray, origin: float, extent: float, grid: int
) -> np.ndarray:
    """Vectorized tile coordinate: truncation with top-edge clamp, the
    same expression as the scalar ``_tiles_of``."""
    return np.minimum(((coords - origin) / extent * grid).astype(np.int64), grid - 1)


# -- SHJ: nearest-center (A) and overlap (B) partitioning -------------------


def partition_nearest_center(
    source: PagedFile,
    *,
    storage: StorageManager,
    partitions: list,
    namer: Callable[[int], str],
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> dict[int, PagedFile]:
    """Batched SHJ first-input pass: assign every entity to the
    partition with the nearest (moving) center, expanding that
    partition's MBR — no replication.

    The assignment is inherently sequential (each absorb moves a
    center), so the per-record argmin stays in the loop; it runs over
    NumPy center arrays instead of a Python ``min`` over partition
    objects, and the bounds are written back to the partition objects
    once per pass.  Distances use the exact scalar expression, so every
    assignment (ties included — first minimum wins in both) matches.
    """
    from repro.geometry.rect import Rect

    stats = storage.stats
    files: dict[int, PagedFile] = {}
    pxlo = np.array([p.mbr.xlo for p in partitions], dtype=np.float64)
    pylo = np.array([p.mbr.ylo for p in partitions], dtype=np.float64)
    pxhi = np.array([p.mbr.xhi for p in partitions], dtype=np.float64)
    pyhi = np.array([p.mbr.yhi for p in partitions], dtype=np.float64)
    pcx = (pxlo + pxhi) / 2
    pcy = (pylo + pyhi) / 2
    counts = [p.count for p in partitions]
    per_record_cost = max(1, len(partitions))

    for block in iter_record_blocks(source, batch_size):
        n = len(block)
        stats.charge_cpu("partition", n * per_record_cost)
        xlo, ylo, xhi, yhi = _corner_columns(block)
        cx = (xlo + xhi) / 2
        cy = (ylo + yhi) / 2
        grouped: dict[int, list[Record]] = {}
        for i in range(n):
            dx = pcx - cx[i]
            dy = pcy - cy[i]
            j = int(np.argmin(dx * dx + dy * dy))
            if xlo[i] < pxlo[j]:
                pxlo[j] = xlo[i]
            if ylo[i] < pylo[j]:
                pylo[j] = ylo[i]
            if xhi[i] > pxhi[j]:
                pxhi[j] = xhi[i]
            if yhi[i] > pyhi[j]:
                pyhi[j] = yhi[i]
            pcx[j] = (pxlo[j] + pxhi[j]) / 2
            pcy[j] = (pylo[j] + pyhi[j]) / 2
            counts[j] += 1
            grouped.setdefault(j, []).append(block[i])
        for j in sorted(grouped):
            handle = files.get(j)
            if handle is None:
                handle = storage.create_file(namer(j))
                files[j] = handle
            handle.extend(grouped[j])

    for j, partition in enumerate(partitions):
        partition.mbr = Rect(
            float(pxlo[j]), float(pylo[j]), float(pxhi[j]), float(pyhi[j])
        )
        partition.count = counts[j]
    return files


def partition_overlaps(
    source: PagedFile,
    *,
    storage: StorageManager,
    partitions: list,
    namer: Callable[[int], str],
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> tuple[dict[int, PagedFile], int, int]:
    """Batched SHJ second-input pass: record every entity in each
    non-empty partition whose final MBR it overlaps (replication);
    entities overlapping none are filtered out.  The partitions are
    frozen during this pass, so the overlap tests vectorize into one
    block-by-partitions boolean matrix."""
    stats = storage.stats
    files: dict[int, PagedFile] = {}
    written = 0
    filtered = 0
    pxlo = np.array([p.mbr.xlo for p in partitions], dtype=np.float64)
    pylo = np.array([p.mbr.ylo for p in partitions], dtype=np.float64)
    pxhi = np.array([p.mbr.xhi for p in partitions], dtype=np.float64)
    pyhi = np.array([p.mbr.yhi for p in partitions], dtype=np.float64)
    active = np.array([p.count > 0 for p in partitions], dtype=bool)
    per_record_cost = max(1, len(partitions))

    for block in iter_record_blocks(source, batch_size):
        n = len(block)
        stats.charge_cpu("partition", n * per_record_cost)
        xlo, ylo, xhi, yhi = _corner_columns(block)
        overlap = (
            active[None, :]
            & (pxlo[None, :] <= xhi[:, None])
            & (xlo[:, None] <= pxhi[None, :])
            & (pylo[None, :] <= yhi[:, None])
            & (ylo[:, None] <= pyhi[None, :])
        )
        row_counts = overlap.sum(axis=1)
        filtered += int((row_counts == 0).sum())
        written += int(row_counts.sum())
        grouped: dict[int, list[Record]] = {}
        # nonzero is row-major: ascending record index, then ascending
        # partition index — the scalar enumerate order.
        rows, cols = np.nonzero(overlap)
        for i, j in zip(rows.tolist(), cols.tolist()):
            grouped.setdefault(j, []).append(block[i])
        for j in sorted(grouped):
            handle = files.get(j)
            if handle is None:
                handle = storage.create_file(namer(j))
                files[j] = handle
            handle.extend(grouped[j])
    return files, written, filtered
