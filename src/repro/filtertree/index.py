"""The Filter Tree access method (Sevcik & Koudas, VLDB 1996).

S3J "derives its properties from the Filter Tree join algorithm" and
"constructs a Filter Tree partition of the space on the fly without
building complete Filter Tree indices" (section 3).  This module builds
the *complete* index the paper alludes to: a persistent hierarchy of
Hilbert-sorted level files over the storage manager, supporting

- window (range) queries, and
- the Filter-Tree spatial join of two indexed data sets [SK96] —
  which is exactly S3J's synchronized scan, minus the partition and
  sort phases S3J performs on the fly.

This gives the library the indexed counterpart of S3J: build once, join
many times.
"""

from __future__ import annotations

import numpy as np

from repro.core.partition import route
from repro.core.sync_scan import synchronized_scan
from repro.curves.base import SpaceFillingCurve
from repro.curves.hilbert import HilbertCurve
from repro.filtertree.levels import LevelAssigner
from repro.filtertree.ranges import KeyDirectory
from repro.geometry.rect import Rect
from repro.join.dataset import SpatialDataset
from repro.join.result import canonical_pairs
from repro.sorting.external_sort import ExternalSorter
from repro.storage.manager import StorageManager
from repro.storage.pagedfile import PagedFile
from repro.storage.records import PAIR, concat_pages, corners


class FilterTreeIndex:
    """A Filter Tree over one spatial data set.

    Entities live in the level file of their Filter-Tree level, sorted
    by the Hilbert value of their MBR center; one key directory over
    all of them places a window's key ranges on pages.
    """

    def __init__(
        self,
        storage: StorageManager,
        name: str,
        curve: SpaceFillingCurve | None = None,
        max_level: int = 16,
    ) -> None:
        self.storage = storage
        self.name = name
        self.curve = curve or HilbertCurve()
        self.assigner = LevelAssigner(
            order=self.curve.order, max_level=min(max_level, self.curve.order)
        )
        self.level_files: dict[int, PagedFile] = {}
        self._directory = KeyDirectory(self.curve, self.assigner.max_level)

    def __len__(self) -> int:
        return sum(handle.num_records for handle in self.level_files.values())

    # -- construction ------------------------------------------------------

    def build(self, dataset: SpatialDataset) -> FilterTreeIndex:
        """Bulk-load the index: partition into level files, sort each by
        Hilbert value, and build the key directory."""
        if self.level_files:
            raise RuntimeError(f"index {self.name!r} is already built")
        dataset.columns()  # refuses ids that are not int64 integers: they are stored
        rows = dataset.descriptors(curve=self.curve)
        levels = self.assigner.levels(*corners(rows))
        self.storage.stats.charge_cpu("level", len(rows))
        self.storage.stats.charge_cpu("hilbert", len(rows))
        staging: dict[int, PagedFile] = {}
        route(rows, levels, staging, self.storage, lambda level: f"{self.name}-L{level}-staging")
        sorter = ExternalSorter(self.storage)
        entries = {}
        for level, handle in sorted(staging.items()):
            outcome = sorter.sort(handle, f"{self.name}-L{level}", key="hkey")
            self.storage.drop_file(handle.name)
            self.level_files[level] = outcome.output
            level_rows = outcome.output.read_all()  # read once at build time
            entries[level] = self._directory.level_keys(level, level_rows)
            self._directory.grow(level, level_rows)
        self._directory.replace(entries)
        return self

    # -- window queries ------------------------------------------------------

    def window_query(self, window: Rect) -> list[int]:
        """Entity ids whose MBRs intersect the query window: one
        :meth:`~repro.filtertree.ranges.KeyDirectory.probe`, which reads
        only the pages holding a record whose centre can belong to an
        entity meeting the window."""
        levels = self.level_files
        results, examined = self._directory.probe(window, levels, levels, {}, {})
        if examined:
            self.storage.stats.charge_cpu("mbr_test", examined)
        return results

    # -- joins ----------------------------------------------------------------

    def join(self, other: FilterTreeIndex, stats_phase: str = "join") -> frozenset[tuple[int, int]]:
        """The Filter Tree join [SK96]: a synchronized scan over the two
        indexes' level files — S3J's join phase with both partition and
        sort phases already amortized into the indexes."""
        if self.curve.order != other.curve.order:
            raise ValueError("indexes must share a curve order to be joined")
        found: list[np.ndarray] = []
        with self.storage.stats.phase(stats_phase):
            synchronized_scan(
                self.level_files,
                other.level_files,
                self.curve.order,
                found.append,
                stats=self.storage.stats,
            )
        return canonical_pairs(concat_pages(found, PAIR), self_join=False)

    # -- maintenance -----------------------------------------------------------

    def drop(self) -> None:
        """Delete the index's files."""
        for handle in self.level_files.values():
            self.storage.drop_file(handle.name)
        self._directory.replace(dict.fromkeys(self.level_files))
        self.level_files.clear()
