"""The batched columnar partition pipeline.

The partition phase is S3J's claimed advantage — one scan, no
replication (section 3.1) — and every algorithm runs it here, in
*blocks*: input pages are scanned a batch at a time, levels and curve
keys are computed with the vectorized NumPy kernels
(:meth:`repro.filtertree.levels.LevelAssigner.levels`,
:meth:`repro.curves.base.SpaceFillingCurve.keys`), the Dynamic Spatial
Bitmap is set/probed per block, and descriptors are routed to their
level/partition files through the true-bulk
:meth:`repro.storage.pagedfile.PagedFile.extend`.

The simulated ledger and the emitted records are those of a
record-at-a-time scan, which ``tests/golden_ledgers.json`` pins:

- the input pages are read in order, and block scans release their
  clean input frames (:meth:`BufferPool.release`) so bulk reads never
  push another file's dirty output tail out of the LRU;
- output files receive their records in scan order, so page creates,
  write-behinds, and flushes are those of per-record appends (and the
  per-file sequential/random classification with them);
- every CPU op (``level``, ``hilbert``, ``partition``, ``bitmap``) is
  charged in bulk with its per-record count;
- :meth:`PagedFile.extend` charges the buffer hits the per-record tail
  fetches would have recorded.

This holds whenever the buffer pool retains every open output tail page
between touches, the condition under which a per-record loop does not
thrash.  The floating-point expressions (quantization, tile clipping,
nearest-center distances) are those the goldens were recorded with, so
routing decisions are bit-identical, not merely close.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.filtertree.levels import quantize_array
from repro.storage.backend import Page
from repro.storage.records import concat_pages, copy_rows, corners, take

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
output tails fits comfortably in the paper's buffer-pool sizings.  Read
at every scan, so a test can patch it to force several blocks."""


def iter_record_blocks(source: PagedFile) -> Iterator[Page]:
    """Yield blocks of at least ``DEFAULT_BATCH_SIZE`` records in file
    order, each one page array.

    Pages are read through the buffer pool (so the ledger counts them
    exactly as a record-at-a-time scan would) and their clean frames are
    released as soon as they are read, keeping the pool footprint at one
    input frame regardless of block size.
    """
    block: list[Page] = []
    for page_no in range(source.num_pages):
        block.append(source.read_page(page_no))
        source.pool.release(source.name, page_no)
        if sum(map(len, block)) >= DEFAULT_BATCH_SIZE:
            yield concat_pages(block)
            block = []
    if block:
        yield concat_pages(block)


def route(
    rows: Page,
    targets: np.ndarray,
    files: dict[int, PagedFile],
    storage: StorageManager,
    namer: Callable[[int], str],
) -> None:
    """Append each row to the file of its target, targets in ascending
    order and rows in block order within one (creating files on first
    use)."""
    for target in np.unique(targets).tolist():
        handle = files.get(target)
        if handle is None:
            handle = files[target] = storage.create_file(namer(target))
        handle.extend(take(rows, targets == target))


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
) -> dict[int, PagedFile]:
    """Batched S3J partition of one data set into level files:
    levels and curve keys come from the NumPy kernels, the DSB is
    populated (``building=True``) or probed per block, and surviving
    descriptors are routed level-by-level through bulk extends.
    """
    stats = storage.stats
    level_files: dict[int, PagedFile] = {}
    for block in iter_record_blocks(source):
        n = len(block)
        xlo, ylo, xhi, yhi = corners(block)
        levels = assigner.levels(xlo, ylo, xhi, yhi)
        stats.charge_cpu("level", n)
        rows = copy_rows(block)  # the input pages are read-only
        if not hilbert_precomputed:
            qx = quantize_array((xlo + xhi) / 2, curve.side, "center x")
            qy = quantize_array((ylo + yhi) / 2, curve.side, "center y")
            rows["hkey"] = curve.keys(qx, qy)
            stats.charge_cpu("hilbert", n)
        if bitmap is not None:
            args = (xlo, ylo, xhi, yhi, rows["hkey"].tolist(), levels.tolist())
            if building:
                bitmap.set_batch(*args)
            else:
                admitted = np.array(bitmap.admits_batch(*args), dtype=bool)
                rows, levels = take(rows, admitted), levels[admitted]
        route(rows, levels, level_files, storage, namer)
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
) -> tuple[dict[int, PagedFile], int, int]:
    """Batched PBSM tiling pass: scatter descriptors into partition
    files with replication.  Returns (files, records written, records
    filtered out).
    """
    stats = storage.stats
    files: dict[int, PagedFile] = {}
    written = 0
    filtered = 0
    width = space.width or 1.0
    height = space.height or 1.0
    for block in iter_record_blocks(source):
        n = len(block)
        stats.charge_cpu("partition", n)
        xlo, ylo, xhi, yhi = corners(block)
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

        rows: list[int] = []  # a block row per (row, partition) copy
        targets: list[int] = []
        for i in range(n):
            if not keep[i]:
                filtered += 1
                continue
            x0, x1 = txlo_l[i], txhi_l[i]
            y0, y1 = tylo_l[i], tyhi_l[i]
            if x0 == x1 and y0 == y1:  # the common unreplicated case
                rows.append(i)
                targets.append(tile_to_partition(y0 * grid + x0))
            else:
                tiles = {
                    tile_to_partition(cy * grid + cx)
                    for cy in range(y0, y1 + 1)
                    for cx in range(x0, x1 + 1)
                }
                rows += [i] * len(tiles)
                targets += tiles
        written += len(rows)
        route(take(block, rows), np.array(targets), files, storage, namer)
    return files, written, filtered


def _tile_index(
    coords: np.ndarray, origin: float, extent: float, grid: int
) -> np.ndarray:
    """Vectorized tile coordinate: truncation with top-edge clamp."""
    return np.minimum(((coords - origin) / extent * grid).astype(np.int64), grid - 1)


# -- SHJ: nearest-center (A) and overlap (B) partitioning -------------------


def partition_nearest_center(
    source: PagedFile,
    *,
    storage: StorageManager,
    partitions: list,
    namer: Callable[[int], str],
) -> dict[int, PagedFile]:
    """Batched SHJ first-input pass: assign every entity to the
    partition with the nearest (moving) center, expanding that
    partition's MBR — no replication.

    The assignment is inherently sequential (each assignment moves a
    center), so the per-record argmin stays in the loop; it runs over
    NumPy center arrays instead of a Python ``min`` over partition
    objects, and the bounds are written back to the partition objects
    once per pass.  A tie goes to the first nearest center.
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

    for block in iter_record_blocks(source):
        n = len(block)
        stats.charge_cpu("partition", n * per_record_cost)
        xlo, ylo, xhi, yhi = corners(block)
        cx = (xlo + xhi) / 2
        cy = (ylo + yhi) / 2
        targets = np.empty(n, dtype=np.int64)
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
            targets[i] = j
        route(block, targets, files, storage, namer)

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

    for block in iter_record_blocks(source):
        n = len(block)
        stats.charge_cpu("partition", n * per_record_cost)
        xlo, ylo, xhi, yhi = corners(block)
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
        # nonzero is row-major: ascending record index, then ascending
        # partition index — the order appends land in.
        rows, cols = np.nonzero(overlap)
        route(take(block, rows), cols, files, storage, namer)
    return files, written, filtered
