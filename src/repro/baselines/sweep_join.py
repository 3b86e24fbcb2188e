"""Forward plane sweep as a registered algorithm.

The simplest exact join in the library: read both descriptor files
whole, sort by ``xlo``, and run the classic forward sweep
(:mod:`repro.sweep.plane_sweep`) over the two lists.  No partitioning,
no replication, no space-filling curves — which is exactly what makes
it a good differential reference for everything that has them.

Phases:

1. **sort** — scan both inputs (paged reads) and x-sort them,
   charging the usual ``n log n`` comparison count.
2. **join** — one forward sweep over the sorted lists.

The sweep holds both data sets in memory, so unlike S3J/PBSM/SHJ it
does not scale past memory; within the verification workload sizes it
is the fastest way to an exact answer that shares only the sweep
kernel with the candidates under test.
"""

from __future__ import annotations

from repro.join.base import SpatialJoinAlgorithm
from repro.join.metrics import JoinMetrics
from repro.storage.pagedfile import PagedFile
from repro.storage.records import CandidatePairCodec
from repro.sweep.plane_sweep import sorted_columns, sweep_intersections


class PlaneSweepJoin(SpatialJoinAlgorithm):
    """Whole-input forward plane sweep."""

    name = "sweep"
    phase_names = ("sort", "join")

    def run_filter_step(
        self, input_a: PagedFile, input_b: PagedFile
    ) -> tuple[set[tuple[int, int]], JoinMetrics]:
        stats = self.storage.stats
        tracer = self.obs.tracer

        with self._phase("sort"):
            with tracer.span("read-sort:A", side="A"):
                columns_a = sorted_columns(list(input_a.scan()), stats)
            with tracer.span("read-sort:B", side="B"):
                columns_b = sorted_columns(list(input_b.scan()), stats)
            self.storage.phase_boundary()

        pairs: set[tuple[int, int]] = set()
        result = self.storage.create_file(
            self._file_name("result"), CandidatePairCodec()
        )
        with self._phase("join"):
            with tracer.span("sweep") as span:
                found = sweep_intersections(columns_a, columns_b, stats=stats)
                pairs.update(found)
                result.extend(found)
                span.set(pairs=len(pairs))
            self.storage.phase_boundary()

        metrics = self._build_metrics(result_pages=result.num_pages)
        metrics.replication_a = 1.0
        metrics.replication_b = 1.0
        return pairs, metrics
