"""Run one join experiment under the paper's conditions.

Two conventions make scaled-down runs faithful to the full-size paper
experiments:

1. **Memory sizing** — the buffer pool gets 10% of the combined input
   size (section 5), in pages.
2. **Page-count compensation** — entity counts shrink by
   ``REPRO_SCALE``, and the page capacity ``E`` shrinks with them, so
   *file sizes in pages match the paper at any scale*.  All the
   memory-geometry decisions (PBSM's partition count and repartition
   rate, SHJ's slot count and whether partitions fit, sort fan-ins)
   depend only on page counts, so they come out exactly as at full
   scale.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any

from repro.join.api import DEFAULT_MEMORY_FRACTION, default_storage_config, spatial_join
from repro.join.dataset import SpatialDataset
from repro.join.predicates import Intersects, JoinPredicate
from repro.join.result import JoinResult
from repro.obs import Observability
from repro.obs.report import RunReport, build_run_report
from repro.storage.manager import DEFAULT_PAGE_SIZE, StorageConfig
from repro.storage.records import EntityDescriptorCodec

FULL_SCALE_ENTRIES_PER_PAGE = DEFAULT_PAGE_SIZE // EntityDescriptorCodec().record_size
"""``E`` at scale 1.0: 4 KB pages of 48-byte descriptors (85)."""


def make_storage_config(
    dataset_a: SpatialDataset,
    dataset_b: SpatialDataset,
    scale: float = 1.0,
    memory_fraction: float = DEFAULT_MEMORY_FRACTION,
) -> StorageConfig:
    """Paper-faithful storage configuration for one experiment: the
    paper's memory sizing (:func:`~repro.join.api.default_storage_config`)
    on pages of ``E * scale`` descriptors."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    entries = max(1, round(FULL_SCALE_ENTRIES_PER_PAGE * scale))
    return default_storage_config(
        dataset_a,
        dataset_b,
        memory_fraction,
        page_size=EntityDescriptorCodec().record_size * entries,
    )


@dataclass
class ExperimentResult:
    """One algorithm's run within an experiment."""

    algorithm: str
    label: str
    result: JoinResult
    report: RunReport | None = None

    @property
    def response_time(self) -> float:
        return self.result.metrics.response_time

    @property
    def breakdown(self) -> dict[str, float]:
        return self.result.metrics.breakdown()

    def row(self, baseline_time: float | None = None) -> dict[str, Any]:
        """A printable summary row (Table 4 style)."""
        metrics = self.result.metrics
        row: dict[str, Any] = {
            "algorithm": self.label,
            "time_s": round(self.response_time, 2),
            "total_ios": metrics.total_ios,
            "r_A": round(metrics.replication_a, 2),
            "r_B": round(metrics.replication_b, 2),
            "pairs": len(self.result),
        }
        if baseline_time:
            row["normalized"] = round(self.response_time / baseline_time, 2)
        for phase, seconds in self.breakdown.items():
            row[f"{phase}_s"] = round(seconds, 2)
        return row


def run_algorithm(
    dataset_a: SpatialDataset,
    dataset_b: SpatialDataset,
    algorithm: str,
    label: str | None = None,
    predicate: JoinPredicate | None = None,
    scale: float = 1.0,
    obs: Observability | None = None,
    mode: str = "ledger",
    backend: str = "memory",
    data_dir: str | None = None,
    **params: Any,
) -> ExperimentResult:
    """Run one algorithm on one workload under paper conditions.

    With an enabled ``obs`` the returned :class:`ExperimentResult` also
    carries a machine-readable :class:`~repro.obs.report.RunReport`.

    ``mode="memory"`` runs the in-memory fast path instead of the
    simulated-storage model: no storage configuration exists there.

    ``backend`` selects the physical page store (``memory`` or
    ``durable``) and ``data_dir`` where the durable one keeps its files
    (a temporary directory otherwise).  The choice never shows in the
    ledger: metrics are byte-identical across backends.
    """
    if mode == "memory":
        if backend != "memory" or data_dir is not None:
            raise ValueError(
                "backend/data_dir are storage settings; mode='memory' has "
                "no storage to configure"
            )
        config = None
    else:
        config = make_storage_config(dataset_a, dataset_b, scale=scale)
        if backend != "memory" or data_dir is not None:
            config = dataclasses.replace(
                config, backend=backend, directory=data_dir
            )
    # Every instrumented run's event stream is bracketed here.
    events = obs.events if obs is not None else None
    bracket = events is not None and events.enabled
    if bracket:
        events.emit(
            "run_started",
            algorithm=algorithm,
            mode=mode,
            workers=1,
            self_join=dataset_a is dataset_b,
        )
    t0 = time.perf_counter()
    result = spatial_join(
        dataset_a,
        dataset_b,
        algorithm=algorithm,
        predicate=predicate or Intersects(),
        storage=config,
        obs=obs,
        mode=mode,
        **params,
    )
    if bracket:
        events.emit(
            "run_completed",
            algorithm=algorithm,
            pairs=len(result),
            wall_s=time.perf_counter() - t0,
        )
    report = None
    if obs is not None and obs.enabled:
        report = build_run_report(
            result,
            obs,
            workload=f"{dataset_a.name}-{dataset_b.name}",
            scale=scale,
        )
    return ExperimentResult(
        algorithm=algorithm, label=label or algorithm, result=result, report=report
    )
