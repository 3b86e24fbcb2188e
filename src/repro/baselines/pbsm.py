"""Partition Based Spatial Merge Join (Patel & DeWitt, SIGMOD 1996).

The algorithm of the paper's figure 2:

1. Compute the number of partitions ``D = (S_A + S_B) / M``
   (equation 8) and lay a ``G x G`` grid of *tiles* over the data
   space; map tiles to partitions round-robin or by hash.
2. For each data set, scan it and record every entity in **all** the
   partitions its MBR's tiles map to — entities crossing tile
   boundaries are *replicated*.  Entities overlapping no tile are
   filtered out.
3. Join each pair of corresponding partitions with a plane sweep,
   repartitioning pairs that do not fit in memory.
4. Sort the candidate pairs and eliminate the duplicates the
   replication introduced.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.partition import partition_tiles
from repro.geometry.rect import Rect
from repro.join.base import SpatialJoinAlgorithm
from repro.join.metrics import JoinMetrics
from repro.sorting.external_sort import ExternalSorter
from repro.storage.manager import StorageManager
from repro.storage.pagedfile import PagedFile
from repro.storage.records import PAIR, CandidatePairCodec, concat_pages
from repro.sweep.plane_sweep import sweep_intersections, x_sorted

_MAPPINGS = ("round_robin", "hash")
_MAX_REPARTITION_DEPTH = 8


def suggested_partitions(pages_a: int, pages_b: int, memory_pages: int) -> int:
    """Equation 8: ``D = (S_A + S_B) / M``, capped at ``M - 4`` output
    buffers (a one-pass partitioning step needs an input buffer besides
    one output page per partition, or the buffer pool thrashes)."""
    target = math.ceil((pages_a + pages_b) / memory_pages)
    return max(1, min(target, memory_pages - 4))


class PartitionBasedSpatialMergeJoin(SpatialJoinAlgorithm):
    """PBSM.

    Parameters
    ----------
    storage:
        The storage manager to run against.
    tiles_per_dim:
        ``G``: the tile grid is ``G x G`` (the paper's figures label
        runs "PBSM 20x20", "PBSM 40x40"...).  More tiles improve load
        balance but increase replication (section 2.1).
    num_partitions:
        Override for ``D``; computed from equation 8 by default.
    mapping:
        Tile-to-partition mapping: ``"round_robin"`` or ``"hash"``.
    tile_space:
        The rectangle tiled by the grid.  Entities outside it are
        filtered out; defaults to the unit square (no filtering).
    """

    name = "pbsm"
    phase_names = ("partition", "join", "sort")

    def __init__(
        self,
        storage: StorageManager,
        tiles_per_dim: int = 32,
        num_partitions: int | None = None,
        mapping: str = "round_robin",
        tile_space: Rect | None = None,
    ) -> None:
        super().__init__(storage)
        if tiles_per_dim < 1:
            raise ValueError("tiles_per_dim must be positive")
        if mapping not in _MAPPINGS:
            raise ValueError(f"mapping must be one of {_MAPPINGS}")
        self.tiles_per_dim = tiles_per_dim
        self.num_partitions = num_partitions
        self.mapping = mapping
        self.tile_space = tile_space or Rect(0.0, 0.0, 1.0, 1.0)
        self._subfile_seq = 0

    def run_filter_step(
        self, input_a: PagedFile, input_b: PagedFile
    ) -> tuple[np.ndarray, JoinMetrics]:
        partitions = self.num_partitions or suggested_partitions(
            input_a.num_pages, input_b.num_pages, self.storage.memory_pages
        )

        with self._phase("partition"):
            files_a, written_a, filtered_a = self._partition(
                input_a, "A", partitions, salt=0
            )
            # Completed A tails go out now (one sequential write each,
            # due at the phase boundary regardless) so the B scan's
            # pool pressure never forces dirty evictions whose order
            # depends on LRU recency (repro.core.partition's parity
            # invariant).
            for handle in files_a.values():
                handle.flush()
            files_b, written_b, filtered_b = self._partition(
                input_b, "B", partitions, salt=0
            )
            self.storage.phase_boundary()

        pairs: list[np.ndarray] = []
        candidates = self.storage.create_file(
            self._file_name("candidates"), CandidatePairCodec()
        )
        repartitioned = 0
        events = self.obs.events
        with self._phase("join"):
            for p in range(partitions):
                repartitioned += self._join_pair(
                    files_a.get(p), files_b.get(p), candidates, pairs, depth=0
                )
                if events.enabled:
                    events.emit(
                        "shard_progress", phase="join", done=p + 1,
                        total=partitions, detail=f"P{p}", pairs=candidates.num_records,
                    )
            self.storage.phase_boundary()

        with self._phase("sort"):
            sorter = ExternalSorter(self.storage)
            result = sorter.sort(
                candidates,
                self._file_name("result"),
                key=None,
                unique=True,
            ).output
            self.storage.phase_boundary()

        metrics = self._build_metrics(
            num_partitions=partitions,
            tiles_per_dim=self.tiles_per_dim,
            filtered_a=filtered_a,
            filtered_b=filtered_b,
            repartitioned_pairs=repartitioned,
            candidate_pages=candidates.num_pages,
            result_pages=result.num_pages,
        )
        if input_a.num_records:
            metrics.replication_a = written_a / input_a.num_records
        if input_b.num_records:
            metrics.replication_b = written_b / input_b.num_records
        return concat_pages(pairs, PAIR), metrics

    # -- partitioning -------------------------------------------------------

    def _tile_to_partition(self, tile: int, partitions: int, salt: int) -> int:
        if self.mapping == "round_robin" and salt == 0:
            return tile % partitions
        return _mix32(tile + salt * 0x9E3779B1) % partitions

    def _partition(
        self,
        source: PagedFile,
        tag: str,
        partitions: int,
        salt: int,
        name_prefix: str = "",
        grid: int | None = None,
    ) -> tuple[dict[int, PagedFile], int, int]:
        """Scan ``source`` and scatter descriptors into partition files
        (with replication).  Returns (files, records written, records
        filtered out)."""
        return partition_tiles(
            source,
            storage=self.storage,
            space=self.tile_space,
            grid=grid if grid is not None else self.tiles_per_dim,
            tile_to_partition=lambda tile: self._tile_to_partition(
                tile, partitions, salt
            ),
            namer=lambda p: self._file_name(f"{name_prefix}{tag}-P{p}"),
        )

    # -- joining ------------------------------------------------------------

    def _join_pair(
        self,
        file_a: PagedFile | None,
        file_b: PagedFile | None,
        candidates: PagedFile,
        pairs: list[np.ndarray],
        depth: int,
        parent_pages: int | None = None,
    ) -> int:
        """Join one partition pair, repartitioning when it does not fit
        in memory.  Returns the number of repartitioning rounds.

        Repartitioning refines the tile grid, which splits point-like
        skew but *adds* replication for extended objects; when a round
        fails to shrink the pair (or the depth limit is hit), the pair
        is swept directly instead of recursing further.
        """
        if file_a is None or file_b is None:
            return 0
        if file_a.num_records == 0 or file_b.num_records == 0:
            return 0
        total_pages = file_a.num_pages + file_b.num_pages
        memory = self.storage.memory_pages
        # Finer tiles add replication, so a "split" can shrink a pair
        # by less than the added copies; require real progress or the
        # recursion grows the data geometrically.
        no_progress = (
            parent_pages is not None and total_pages >= 0.8 * parent_pages
        )
        if (
            total_pages <= memory
            or depth >= _MAX_REPARTITION_DEPTH
            or no_progress
        ):
            self._sweep_pair(file_a, file_b, candidates, pairs)
            return 0

        # Repartition: re-scatter both partition files with a salted
        # hash mapping over a *finer* tiling (doubling the grid each
        # round, so skew that concentrates inside a single tile — e.g.
        # a point cluster — eventually splits; the paper observes that
        # skewed data makes PBSM repartition heavily, section 5.2.1).
        sub_count = max(2, math.ceil(total_pages / memory))
        # Double the grid per round so skew concentrated inside single
        # tiles (point clusters) splits after a few rounds.
        fine_grid = min(self.tiles_per_dim << (depth + 1), 1 << 14)
        self._subfile_seq += 1
        prefix = f"r{self._subfile_seq}-"
        with self._phase("partition"):
            subs_a, _, _ = self._partition(
                file_a, "A", sub_count, salt=depth + 1, name_prefix=prefix,
                grid=fine_grid,
            )
            subs_b, _, _ = self._partition(
                file_b, "B", sub_count, salt=depth + 1, name_prefix=prefix,
                grid=fine_grid,
            )
            self.storage.pool.invalidate()
        self.storage.drop_file(file_a.name)
        self.storage.drop_file(file_b.name)
        rounds = 1
        for p in range(sub_count):
            rounds += self._join_pair(
                subs_a.get(p),
                subs_b.get(p),
                candidates,
                pairs,
                depth + 1,
                parent_pages=total_pages,
            )
        return rounds

    def _sweep_pair(
        self,
        file_a: PagedFile,
        file_b: PagedFile,
        candidates: PagedFile,
        pairs: list[np.ndarray],
    ) -> None:
        """Load a fitting partition pair and plane-sweep it."""
        stats = self.storage.stats
        rows_a = x_sorted(file_a.read_all(), stats)
        rows_b = x_sorted(file_b.read_all(), stats)
        found = sweep_intersections(rows_a, rows_b, stats=stats)
        pairs.append(found)
        candidates.extend(found)
        self.storage.drop_file(file_a.name)
        self.storage.drop_file(file_b.name)


def _mix32(value: int) -> int:
    """A full-avalanche 32-bit integer hash.

    Tiles assigned to one partition form arithmetic progressions, so
    the tile-to-sub-partition mapping needs every output bit to depend
    on every input bit, or repartitioning rounds degenerate into
    one-bucket splits.
    """
    value &= 0xFFFFFFFF
    value = ((value ^ (value >> 16)) * 0x45D9F3B) & 0xFFFFFFFF
    value = ((value ^ (value >> 16)) * 0x45D9F3B) & 0xFFFFFFFF
    return (value ^ (value >> 16)) & 0xFFFFFFFF
