"""Base class for spatial join algorithms.

All three algorithms operate on *descriptor files* (paged files of
entity descriptors already expanded for the predicate's margin) and
produce a set of candidate pairs plus per-phase metrics.  They are
predicate-agnostic: the filter step is always MBR intersection; the
refinement step happens above them (see :mod:`repro.join.api`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Iterator

from repro.join.metrics import JoinMetrics
from repro.join.result import JoinResult, canonical_pairs
from repro.storage.backend import Page
from repro.storage.iostats import PhaseStats
from repro.storage.manager import StorageManager
from repro.storage.pagedfile import PagedFile


class SpatialJoinAlgorithm(ABC):
    """One join algorithm bound to a storage manager."""

    name: str = "abstract"
    phase_names: tuple[str, ...] = ()

    def __init__(self, storage: StorageManager) -> None:
        self.storage = storage
        self.obs = storage.obs
        # Numbered per storage manager, not per process: internal file
        # names (and therefore ledger labels and reports) depend only on
        # what this manager has run, never on process history.
        self._run_id = storage.next_sequence("run")

    def _file_name(self, suffix: str) -> str:
        """A collision-free per-run internal file name."""
        return f"{self.name}-{self._run_id}-{suffix}"

    @contextmanager
    def _phase(self, name: str) -> Iterator[PhaseStats]:
        """Open one accounting phase *and* its tracing span together.

        The ledger side is exactly ``stats.phase(name)`` — tracing on or
        off never changes a simulated count.  When tracing is enabled,
        the span additionally records the phase's simulated seconds as
        the cost-model delta of the phase's own bucket, so nested phases
        (e.g. PBSM repartitioning inside its join phase) attribute
        simulated time the same way the ledger attributes counts: to the
        innermost open phase.
        """
        tracer = self.obs.tracer
        cost = self.storage.cost_model
        with tracer.span(name, kind="phase") as span:
            with self.storage.stats.phase(name) as bucket:
                before = cost.response_time(bucket) if tracer.enabled else 0.0
                yield bucket
            if tracer.enabled:
                span.set(simulated_s=cost.response_time(bucket) - before)

    @abstractmethod
    def run_filter_step(
        self, input_a: PagedFile, input_b: PagedFile
    ) -> tuple[Page, JoinMetrics]:
        """Execute the filter step and return the raw candidate pairs
        (a ``PAIR`` array, duplicates and mirrored self-join pairs left
        in: :meth:`join` canonicalizes them) plus metrics."""

    def join(
        self, input_a: PagedFile, input_b: PagedFile, self_join: bool = False
    ) -> JoinResult:
        """Run the filter step and package the result."""
        raw_pairs, metrics = self.run_filter_step(input_a, input_b)
        return JoinResult(canonical_pairs(raw_pairs, self_join), metrics, self_join)

    def _build_metrics(self, **extra: object) -> JoinMetrics:
        """Collect this run's phase stats from the storage ledger.

        Buckets are deep-copied (:meth:`IOStats.phase_snapshot`), so the
        metrics are frozen at collection time instead of aliasing the
        live ledger; *every* recorded phase is included, declared in
        :attr:`phase_names` or not, so extra instrumented sub-phases
        cannot drop I/O from the totals."""
        return JoinMetrics(
            algorithm=self.name,
            phase_names=self.phase_names,
            phases=self.storage.stats.phase_snapshot(),
            cost_model=self.storage.cost_model,
            details=dict(extra),
        )
