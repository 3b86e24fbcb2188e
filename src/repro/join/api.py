"""Top-level public API: run a spatial join end to end.

Typical use::

    from repro import spatial_join, WithinDistance
    result = spatial_join(theaters, parking_lots,
                          algorithm="s3j",
                          predicate=WithinDistance(0.001),
                          refine=True)
    print(len(result.refined), "adjacent pairs")
    print(result.metrics.describe())
"""

from __future__ import annotations

import math
from typing import Any

import importlib

from repro.join.base import SpatialJoinAlgorithm
from repro.join.dataset import SpatialDataset
from repro.join.predicates import Intersects, JoinPredicate
from repro.join.result import JoinResult
from repro.obs import Observability
from repro.storage.manager import StorageConfig, StorageManager
from repro.storage.records import EntityDescriptorCodec

# Algorithms are resolved lazily (module path, class name) to keep the
# join framework importable from the algorithm modules themselves.
_ALGORITHMS: dict[str, tuple[str, str]] = {
    "s3j": ("repro.core.s3j", "SizeSeparationSpatialJoin"),
    "pbsm": ("repro.baselines.pbsm", "PartitionBasedSpatialMergeJoin"),
    "shj": ("repro.baselines.shj", "SpatialHashJoin"),
}

DEFAULT_MEMORY_FRACTION = 0.10
"""Buffer pool sized at 10% of the combined input size, the paper's
default experimental setting (section 5)."""

EXECUTION_MODES = ("ledger", "memory")
"""``ledger`` runs the paper-faithful simulated-I/O model; ``memory``
runs the vectorized in-memory fast path (:mod:`repro.fastpath`)."""

_MEMORY_MODE_PARAMS = frozenset({"curve", "max_level", "cell_level"})


def available_algorithms() -> tuple[str, ...]:
    """Names accepted by :func:`spatial_join` and :func:`make_algorithm`."""
    return tuple(sorted(_ALGORITHMS))


def make_algorithm(
    name: str, storage: StorageManager, **params: Any
) -> SpatialJoinAlgorithm:
    """Instantiate a join algorithm by name."""
    try:
        module_name, class_name = _ALGORITHMS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from {available_algorithms()}"
        ) from None
    cls = getattr(importlib.import_module(module_name), class_name)
    return cls(storage, **params)


def default_storage_config(
    dataset_a: SpatialDataset,
    dataset_b: SpatialDataset,
    memory_fraction: float = DEFAULT_MEMORY_FRACTION,
    page_size: int | None = None,
) -> StorageConfig:
    """A storage configuration with the paper's memory sizing: buffer
    space equal to ``memory_fraction`` of the combined input size.

    ``E`` (descriptors per page) is derived from the actual page size
    and the descriptor codec's record size, so the 10%-of-input sizing
    tracks non-default page sizes instead of assuming 4 KB pages.
    """
    if page_size is None:
        page_size = StorageConfig().page_size
    per_page = EntityDescriptorCodec().records_per_page(page_size)
    pages = math.ceil(len(dataset_a) / per_page) + math.ceil(
        len(dataset_b) / per_page
    )
    buffer_pages = max(16, math.ceil(memory_fraction * pages))
    return StorageConfig(page_size=page_size, buffer_pages=buffer_pages)


def spatial_join(
    dataset_a: SpatialDataset,
    dataset_b: SpatialDataset,
    algorithm: str = "s3j",
    predicate: JoinPredicate | None = None,
    storage: StorageManager | StorageConfig | None = None,
    refine: bool = False,
    obs: Observability | None = None,
    mode: str = "ledger",
    **params: Any,
) -> JoinResult:
    """Join two spatial data sets and return candidate (and optionally
    refined) pairs with full per-phase metrics.

    Passing the *same object* for both data sets runs a self join: the
    data set is joined against an identical copy of itself and mirrored
    pairs are canonicalized (section 5.2.1).

    ``mode`` selects the execution engine: ``"ledger"`` (default) runs
    the paper-faithful simulated-storage model; ``"memory"`` runs the
    vectorized in-memory fast path (:mod:`repro.fastpath`) — S3J only,
    no ``storage`` (there is nothing to simulate), same candidate pair
    set.  Memory mode accepts only the ``curve``, ``max_level``, and
    ``cell_level`` parameters.

    ``obs`` attaches an :class:`~repro.obs.Observability` (tracer +
    metrics registry) to the run; it is observation only and never
    changes a simulated ledger count.  An existing
    :class:`StorageManager` already carries its own observability, so
    passing both is a conflict and raises ``ValueError``.

    ``params`` are forwarded to the algorithm's constructor (e.g.
    ``tiles_per_dim=40`` for PBSM, ``dsb_level=8`` for S3J with
    filtering).
    """
    mode = (mode or "ledger").lower()
    if mode not in EXECUTION_MODES:
        raise ValueError(
            f"unknown mode {mode!r}; choose from {EXECUTION_MODES}"
        )
    if mode == "memory":
        if algorithm.lower() != "s3j":
            raise ValueError(
                "mode='memory' implements s3j only; "
                f"got algorithm {algorithm!r}"
            )
        if storage is not None:
            raise ValueError(
                "mode='memory' runs without storage simulation; "
                "storage must be None"
            )
        unknown = set(params) - _MEMORY_MODE_PARAMS
        if unknown:
            raise ValueError(
                f"mode='memory' does not accept parameters {sorted(unknown)}; "
                f"supported: {sorted(_MEMORY_MODE_PARAMS)}"
            )
        from repro.fastpath import memory_spatial_join

        return memory_spatial_join(
            dataset_a,
            dataset_b,
            predicate=predicate,
            refine=refine,
            obs=obs,
            **params,
        )

    predicate = predicate or Intersects()
    self_join = dataset_a is dataset_b

    owns_storage = not isinstance(storage, StorageManager)
    if isinstance(storage, StorageManager):
        if obs is not None:
            raise ValueError(
                "pass obs either to spatial_join or to the StorageManager, "
                "not both"
            )
        manager = storage
    else:
        config = storage if isinstance(storage, StorageConfig) else None
        manager = StorageManager(
            config or default_storage_config(dataset_a, dataset_b), obs=obs
        )

    tracer = manager.obs.tracer
    try:
        with tracer.span(
            "spatial_join", algorithm=algorithm, self_join=self_join
        ) as root:
            # The "Hilbert values as part of the descriptors" option
            # (section 3.1) needs the keys materialized in the base data.
            curve = None
            if params.get("hilbert_precomputed"):
                from repro.curves.hilbert import HilbertCurve

                curve = params.get("curve") or HilbertCurve()

            # Per-manager numbering: the same workload gets the same
            # descriptor file names whether this is the process's first
            # join or its thousandth (byte-identical reports either way).
            uid = manager.next_sequence("input")
            with tracer.span("setup", kind="setup"):
                input_a = dataset_a.write_descriptors(
                    manager, f"input-A-{uid}", margin=predicate.mbr_margin, curve=curve
                )
                input_b = dataset_b.write_descriptors(
                    manager, f"input-B-{uid}", margin=predicate.mbr_margin, curve=curve
                )
                # Base data pre-exists the join: flush it and zero the
                # ledger so the metrics cover only the join's own work.
                manager.phase_boundary()
                manager.stats.reset()

            algo = make_algorithm(algorithm, manager, **params)
            result = algo.join(input_a, input_b, self_join=self_join)
            if refine:
                with tracer.span("refine", kind="refine"):
                    result.refine(predicate, dataset_a, dataset_b, stats=manager.stats)
            root.set(candidate_pairs=len(result))
        return result
    finally:
        if owns_storage:
            manager.close()
