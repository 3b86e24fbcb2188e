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

import numpy as np

from repro.join.base import SpatialJoinAlgorithm
from repro.join.metrics import JoinMetrics
from repro.storage.pagedfile import PagedFile
from repro.storage.records import CandidatePairCodec
from repro.sweep.plane_sweep import sweep_intersections, x_sorted


class PlaneSweepJoin(SpatialJoinAlgorithm):
    """Whole-input forward plane sweep."""

    name = "sweep"
    phase_names = ("sort", "join")

    def run_filter_step(
        self, input_a: PagedFile, input_b: PagedFile
    ) -> tuple[np.ndarray, JoinMetrics]:
        stats = self.storage.stats
        tracer = self.obs.tracer

        with self._phase("sort"):
            with tracer.span("read-sort:A", side="A"):
                rows_a = x_sorted(input_a.read_all(), stats)
            with tracer.span("read-sort:B", side="B"):
                rows_b = x_sorted(input_b.read_all(), stats)
            self.storage.phase_boundary()

        result = self.storage.create_file(
            self._file_name("result"), CandidatePairCodec()
        )
        with self._phase("join"):
            with tracer.span("sweep") as span:
                pairs = sweep_intersections(rows_a, rows_b, stats=stats)
                result.extend(pairs)
                span.set(pairs=len(pairs))
            self.storage.phase_boundary()

        metrics = self._build_metrics(result_pages=result.num_pages)
        metrics.replication_a = 1.0
        metrics.replication_b = 1.0
        return pairs, metrics

