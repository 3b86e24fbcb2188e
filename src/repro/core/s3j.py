"""Size Separation Spatial Join (figure 5 of the paper).

Given two spatial data sets A and B:

1. **Partition** — scan each data set; for each entity compute its
   Hilbert value and its Filter-Tree level, and append its descriptor
   to the corresponding level file.  No replication ever happens, so
   execution time depends only on the input sizes.  With Dynamic
   Spatial Bitmaps enabled, data set A populates the bitmap and data
   set B is filtered against it.
2. **Sort** — external-merge-sort each level file by Hilbert value.
3. **Join** — a synchronized scan over all sorted level files, reading
   each page once and writing the result.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitmap import DynamicSpatialBitmap
from repro.core.partition import partition_levels
from repro.core.sync_scan import synchronized_scan
from repro.curves.base import SpaceFillingCurve
from repro.curves.hilbert import HilbertCurve
from repro.filtertree.levels import LevelAssigner
from repro.join.base import SpatialJoinAlgorithm
from repro.join.metrics import JoinMetrics
from repro.sorting.external_sort import ExternalSorter
from repro.storage.manager import StorageManager
from repro.storage.pagedfile import PagedFile
from repro.storage.records import PAIR, CandidatePairCodec, concat_pages


class SizeSeparationSpatialJoin(SpatialJoinAlgorithm):
    """The S3J algorithm.

    Parameters
    ----------
    storage:
        The storage manager to run against.
    curve:
        Space-filling curve for ordering level files (Hilbert by
        default; Z-order and Gray code work too — section 3.1).
    max_level:
        Deepest level file (``L``); the paper reports 10-20 typical.
    dsb_level:
        When set, enables Dynamic Spatial Bitmap filtering at this
        bitmap level (section 3.2).
    dsb_mode:
        ``"precise"`` or ``"fast"`` projection for entities larger than
        a bitmap cell.
    hilbert_precomputed:
        When true, descriptors already carry Hilbert values (the paper's
        "part of the descriptors" option) and no ``hilbert`` CPU cost is
        charged during partitioning.
    """

    name = "s3j"
    phase_names = ("partition", "sort", "join")

    def __init__(
        self,
        storage: StorageManager,
        curve: SpaceFillingCurve | None = None,
        max_level: int = 16,
        dsb_level: int | None = None,
        dsb_mode: str = "precise",
        hilbert_precomputed: bool = False,
    ) -> None:
        super().__init__(storage)
        self.curve = curve or HilbertCurve()
        self.assigner = LevelAssigner(
            order=self.curve.order, max_level=min(max_level, self.curve.order)
        )
        self.dsb_level = dsb_level
        self.dsb_mode = dsb_mode
        self.hilbert_precomputed = hilbert_precomputed

    def run_filter_step(
        self, input_a: PagedFile, input_b: PagedFile
    ) -> tuple[np.ndarray, JoinMetrics]:
        stats = self.storage.stats
        tracer = self.obs.tracer
        metrics = self.obs.active_metrics
        bitmap: DynamicSpatialBitmap | None = None
        if self.dsb_level is not None:
            bitmap = DynamicSpatialBitmap(
                self.dsb_level,
                self.curve,
                mode=self.dsb_mode,
                stats=stats,
                metrics=metrics,
            )

        events = self.obs.events
        with self._phase("partition"):
            with tracer.span("partition:A", side="A") as span:
                levels_a = self._partition(input_a, "A", bitmap=bitmap, building=True)
                span.set(levels=len(levels_a))
            if events.enabled:
                events.emit(
                    "shard_progress", phase="partition", done=1, total=2,
                    detail="A", levels=len(levels_a),
                )
            # A's level-file tails are complete: write them now (one
            # sequential write each, due at the phase boundary anyway)
            # so B's scan never evicts dirty A pages in LRU-recency
            # order (repro.core.partition's parity invariant).
            for handle in levels_a.values():
                handle.flush()
            with tracer.span("partition:B", side="B") as span:
                levels_b = self._partition(input_b, "B", bitmap=bitmap, building=False)
                span.set(levels=len(levels_b))
            if events.enabled:
                events.emit(
                    "shard_progress", phase="partition", done=2, total=2,
                    detail="B", levels=len(levels_b),
                )
            self.storage.phase_boundary()
        if metrics is not None and bitmap is not None:
            metrics.gauge("dsb.population_bits", bitmap.population())
            metrics.gauge("dsb.num_bits", bitmap.num_bits)
            metrics.gauge("dsb.level", bitmap.level)

        with self._phase("sort"):
            sorted_a = self._sort_levels(levels_a, "A")
            sorted_b = self._sort_levels(levels_b, "B")
            self.storage.phase_boundary()

        found: list[np.ndarray] = []
        result = self.storage.create_file(
            self._file_name("result"), CandidatePairCodec()
        )

        def emit(pairs: np.ndarray) -> None:
            found.append(pairs)
            result.extend(pairs)

        with self._phase("join"):
            with tracer.span("sync-scan") as span:
                processed = synchronized_scan(
                    sorted_a,
                    sorted_b,
                    self.curve.order,
                    emit,
                    stats=stats,
                    metrics=metrics,
                    events=events,
                )
                pairs = concat_pages(found, PAIR)
                span.set(pages=processed, pairs=len(pairs))
            self.storage.phase_boundary()

        metrics = self._build_metrics(
            levels_a={level: f.num_records for level, f in sorted_a.items()},
            levels_b={level: f.num_records for level, f in sorted_b.items()},
            result_pages=result.num_pages,
            dsb_filtered=bitmap.filtered_count if bitmap else 0,
            dsb_pages=bitmap.pages(self.storage.page_size) if bitmap else 0,
        )
        # S3J never replicates; DSB filtering can shrink B (r_B <= 1).
        metrics.replication_a = 1.0
        if input_b.num_records:
            kept = sum(f.num_records for f in sorted_b.values())
            metrics.replication_b = kept / input_b.num_records
        return pairs, metrics

    # -- phases ------------------------------------------------------------

    def _partition(
        self,
        source: PagedFile,
        tag: str,
        bitmap: DynamicSpatialBitmap | None,
        building: bool,
    ) -> dict[int, PagedFile]:
        """Scan one data set and route descriptors to level files.

        ``building=True`` populates the bitmap (data set A);
        ``building=False`` probes it and filters (data set B).
        """
        return partition_levels(
            source,
            storage=self.storage,
            assigner=self.assigner,
            curve=self.curve,
            namer=lambda level: self._file_name(f"{tag}-L{level}"),
            bitmap=bitmap,
            building=building,
            hilbert_precomputed=self.hilbert_precomputed,
        )

    def _sort_levels(
        self, level_files: dict[int, PagedFile], tag: str
    ) -> dict[int, PagedFile]:
        """Sort every level file by Hilbert value."""
        sorter = ExternalSorter(self.storage)
        sorted_files: dict[int, PagedFile] = {}
        events = self.obs.events
        ordered = sorted(level_files.items())
        for done, (level, handle) in enumerate(ordered, start=1):
            outcome = sorter.sort(
                handle,
                self._file_name(f"{tag}-L{level}-sorted"),
                key="hkey",
            )
            sorted_files[level] = outcome.output
            self.storage.drop_file(handle.name)
            if events.enabled:
                events.emit(
                    "shard_progress", phase="sort", done=done,
                    total=len(ordered), detail=f"{tag}-L{level}",
                    records=outcome.output.num_records,
                )
        return sorted_files
