"""Executors: one runnable configuration of one join algorithm.

An :class:`ExecutorSpec` names an algorithm from the registry plus the
knobs the harness varies (execution mode, constructor parameters).
:func:`run_executor` executes a spec on a
:class:`~repro.verify.cases.VerifyCase` and captures everything the
invariant checkers need alongside the pair set: the full ledger totals,
the per-phase metrics, the observability registry, and the page counts
of S3J's sorted level files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.join.api import available_algorithms, default_storage_config, spatial_join
from repro.join.metrics import JoinMetrics
from repro.join.result import Pair
from repro.obs import Observability
from repro.storage.iostats import PhaseStats
from repro.storage.manager import StorageManager
from repro.verify.cases import VerifyCase

SORTED_FILE_SUFFIX = "-sorted"


@dataclass(frozen=True)
class ExecutorSpec:
    """One algorithm configuration under test.

    ``mode`` selects the execution engine (``"ledger"`` or
    ``"memory"``, see :func:`~repro.join.api.spatial_join`); memory-
    mode records carry no live ledger or level files, so the
    storage-level invariants skip them by construction.
    """

    algorithm: str
    params: tuple[tuple[str, Any], ...] = ()
    label: str | None = None
    mode: str = "ledger"

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        name = self.algorithm
        if self.mode != "ledger":
            name = f"{name}:{self.mode}"
        return name


@dataclass
class RunRecord:
    """Everything captured about one executor run on one case."""

    spec: ExecutorSpec
    case: VerifyCase
    pairs: frozenset[Pair]
    metrics: JoinMetrics
    refined: frozenset[Pair] | None = None  # when the spec asked to refine
    ledger_total: PhaseStats | None = None  # ledger mode only
    registry: Any | None = None  # MetricsRegistry of instrumented runs
    level_file_pages: dict[str, int] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.spec.name


def default_executors(
    algorithms: tuple[str, ...] | None = None, memory_mode: bool = True
) -> list[ExecutorSpec]:
    """The default roster: every registered algorithm, plus (when
    ``memory_mode`` and s3j is in the roster) the in-memory fast path."""
    names = algorithms or available_algorithms()
    unknown = set(names) - set(available_algorithms())
    if unknown:
        raise ValueError(
            f"unknown algorithms {sorted(unknown)}; "
            f"choose from {available_algorithms()}"
        )
    specs = [ExecutorSpec(algorithm=name) for name in names]
    if memory_mode and "s3j" in names:
        specs.append(ExecutorSpec(algorithm="s3j", mode="memory"))
    return specs


def cross_mode_executors(refine: bool = True) -> list[ExecutorSpec]:
    """The cross-mode roster: S3J through both engines — the ledger
    mode scans simulated pages, the memory mode sweeps columnar arrays,
    and they share nothing below ``spatial_join`` — each also running
    the exact-predicate refinement step so the harness can hold the
    refined sets to each other."""
    params = (("refine", True),) if refine else ()
    return [
        ExecutorSpec("s3j", mode=mode, params=params)
        for mode in ("ledger", "memory")
    ]


def run_executor(
    case: VerifyCase,
    spec: ExecutorSpec,
    overrides: dict[str, Any] | None = None,
    instrument: bool = True,
) -> RunRecord:
    """Run one executor on one case and capture its evidence.

    Ledger runs build their own :class:`StorageManager` so the live
    ledger totals and the sorted level files can be inspected before the
    storage is torn down; memory-mode runs (no storage at all) capture
    the pair sets and metrics only, and the storage invariants skip
    them.
    """
    params = dict(spec.params)
    if overrides:
        params.update(overrides)
    obs = Observability() if instrument else None
    manager = None
    if spec.mode == "memory":
        params.update(obs=obs, mode=spec.mode)
    else:
        manager = StorageManager(
            default_storage_config(case.dataset_a, case.dataset_b), obs=obs
        )
        params.update(storage=manager)
    total, level_file_pages = None, {}
    try:
        result = spatial_join(
            case.dataset_a,
            case.dataset_b,
            algorithm=spec.algorithm,
            predicate=case.predicate,
            **params,
        )
        if manager is not None:
            total = manager.stats.snapshot()
            level_file_pages = {
                name: manager.open_file(name).num_pages
                for name in manager.list_files()
                if name.endswith(SORTED_FILE_SUFFIX)
            }
    finally:
        if manager is not None:
            manager.close()
    return RunRecord(
        spec=spec,
        case=case,
        pairs=result.pairs,
        metrics=result.metrics,
        refined=result.refined,
        ledger_total=total,
        registry=obs.metrics if obs is not None else None,
        level_file_pages=level_file_pages,
    )
