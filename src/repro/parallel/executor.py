"""The sharded join executor: run a :class:`ShardPlan` and merge.

Each :class:`~repro.parallel.planner.ShardTask` is one tile's
independent set of class-pair mini-joins — the worker runs the
*unmodified* algorithm (:func:`repro.join.api.spatial_join`) over each
mini-join's datasets with its own
:class:`~repro.storage.manager.StorageManager`, ledger, and
observability, folds them into one shard ledger, and ships back a
picklable summary (sorted pairs, the metrics dict, metric series, span
trees).

Determinism: the plan is a pure function of the inputs and the shard
level (never of the worker count), tasks are submitted and merged in
plan order, and every merged quantity (pair set, per-phase ledger sums,
weighted replication factors, the details dict) is computed from the
per-shard summaries alone — so a run with ``workers=4`` returns metrics
byte-identical to ``workers=1``, which executes the very same worker
function in-process.

Merging rules (DESIGN.md section 9), applied by the same fold first
over a tile's mini-joins and then over the shards:

- **pairs** — union over shards, then
  :func:`~repro.join.result.canonical_pairs` (a self join's
  cross-class mini-joins reintroduce mirrored pairs; the tiles of a
  non-self join emit disjoint pair sets by construction).
- **ledger** — per-phase :class:`~repro.storage.iostats.PhaseStats`
  add up (``merged_into``), so the merged totals are exactly the sum
  of the per-shard ledgers.
- **replication** — input-size-weighted average of the per-shard
  factors (equation 9 is a ratio, so shard ratios are weighted by the
  records that produced them).
- **observability** — worker span trees are grafted under one
  ``parallel_join`` root as ``shard:<id>`` children; worker metric
  registries fold into the caller's via
  :meth:`~repro.obs.metrics.MetricsRegistry.merge_dump`.

Fault tolerance (DESIGN.md section 11): shards are dispatched in
rounds.  A shard whose worker times out (``shard_timeout_s``) or dies
(:class:`BrokenProcessPool`, or an injected
:class:`~repro.faults.errors.WorkerCrashError`) is re-dispatched up to
``shard_retries`` extra attempts on a fresh pool; any *other* worker
exception is deterministic (a rerun replays the same fault plan) and
fails the shard at once.  Two broken pools degrade the run to
in-process execution.  Shards still dead after the retry budget either
raise :class:`~repro.faults.errors.ShardExecutionError` (the default)
or — with ``partial_results=True`` — come back as structured
:class:`~repro.faults.errors.ShardFailure` reports on
:attr:`JoinResult.failures`, with pairs from the completed shards only.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.faults.errors import (
    ShardExecutionError,
    ShardFailure,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.join.dataset import SpatialDataset
from repro.join.metrics import JoinMetrics
from repro.join.predicates import Intersects, JoinPredicate
from repro.join.result import JoinResult, canonical_pairs
from repro.obs import (
    NULL_EVENTS,
    NULL_TRACER,
    BufferedEventSink,
    EventSink,
    Observability,
    Span,
    TABLE2_PHASES,
    phase_wall_times,
)
from repro.parallel.planner import (
    MiniJoin,
    ShardPlan,
    ShardTask,
    default_shard_level,
    plan_join,
)
from repro.storage.iostats import PhaseStats
from repro.storage.manager import StorageConfig, StorageManager

POOL_BREAKS_BEFORE_DEGRADE = 2
"""Broken process pools tolerated before the executor stops trusting
subprocesses and degrades the rest of the run to in-process execution."""


def _shard_payload(
    task: ShardTask,
    algorithm: str,
    predicate: JoinPredicate,
    config: StorageConfig | None,
    refine: bool,
    instrument: bool,
    params: dict[str, Any],
    mode: str = "ledger",
    events: bool = False,
) -> dict[str, Any]:
    """Everything one worker needs, as a picklable dict."""
    return {
        "shard_id": task.shard_id,
        "kind": task.kind,
        "mini_joins": task.mini_joins,
        "input_records": task.input_records,
        "algorithm": algorithm,
        "predicate": predicate,
        "config": config,
        "refine": refine,
        "instrument": instrument,
        "params": params,
        "mode": mode,
        "events": events,
    }


def _fold_metrics(
    metrics_list: list[JoinMetrics],
    weights: list[int],
    algorithm: str,
    config: StorageConfig | None,
    details: dict[str, Any],
) -> JoinMetrics:
    """Fold sub-join ledgers into one: per-phase :class:`PhaseStats`
    sums and input-weighted replication factors.

    Called once per tile over its mini-joins and once over the shards,
    so the merged metrics are independent of where the fold happens —
    and therefore of the worker count.
    """
    phases: dict[str, PhaseStats] = {}
    for metrics in metrics_list:
        for name, stats in metrics.phases.items():
            stats.merged_into(phases.setdefault(name, PhaseStats()))
    if metrics_list:
        phase_names = metrics_list[0].phase_names
        cost_model = metrics_list[0].cost_model
    else:  # degenerate plan (an empty input side): nothing ran
        phase_names = TABLE2_PHASES.get(algorithm.lower(), ())
        cost_model = (config or StorageConfig()).cost_model
    total_weight = sum(weights)
    if total_weight:
        replication_a = (
            sum(m.replication_a * w for m, w in zip(metrics_list, weights))
            / total_weight
        )
        replication_b = (
            sum(m.replication_b * w for m, w in zip(metrics_list, weights))
            / total_weight
        )
    else:
        replication_a = replication_b = 1.0
    return JoinMetrics(
        algorithm=algorithm,
        phase_names=phase_names,
        phases=phases,
        cost_model=cost_model,
        replication_a=replication_a,
        replication_b=replication_b,
        details=details,
    )


def _run_shard(payload: dict[str, Any]) -> dict[str, Any]:
    """Execute one shard's mini-joins (module-level so it pickles).

    Runs in a worker process for ``workers > 1`` and in-process for
    ``workers = 1`` — the same code path either way, so worker count
    can only affect wall-clock, never results.
    """
    from repro.join.api import spatial_join

    config: StorageConfig | None = payload["config"]
    fault_plan = config.fault_plan if config is not None else None
    if fault_plan is not None:
        shard_id = payload["shard_id"]
        attempt = payload.get("attempt", 1)
        if fault_plan.delays_shard(shard_id, attempt):
            time.sleep(fault_plan.delay_s)  # real time: exercises timeouts
        if fault_plan.crashes_shard(shard_id, attempt):
            if payload.get("in_subprocess"):
                # Die the way a real crashed worker does — no exception,
                # no cleanup — so the executor sees a broken pool.
                os._exit(23)
            raise WorkerCrashError(
                f"injected crash of shard {shard_id} (attempt {attempt})"
            )
    if (
        config is not None
        and config.backend != "memory"
        and config.directory is not None
    ):
        # A shared on-disk directory would collide across sub-joins
        # (each names its files input-A-<n>..., and a durable store
        # admits one opener): every sub-join's storage manager gets a
        # private temporary directory instead.
        config = dataclasses.replace(config, directory=None)
    sink = (
        BufferedEventSink(shard_id=payload["shard_id"])
        if payload.get("events")
        else None
    )
    obs: Observability | None = None
    if payload["instrument"]:
        obs = Observability(events=sink)
    elif sink is not None:
        obs = Observability.disabled()
        obs.events = sink
    if sink is not None:
        # The sink's first event timestamps the true worker start (pool
        # queueing delay shows up as the gap after shard_dispatched).
        sink.emit("shard_heartbeat", phase="start")

    minis: tuple[MiniJoin, ...] = payload["mini_joins"]
    wall_t0 = time.perf_counter()
    # File-name counters are scoped per storage manager, and every
    # mini-join here builds a fresh manager from ``config`` — so file
    # labels are a pure function of the shard's (deterministic)
    # composition, regardless of worker count or which pool process the
    # shard landed on.
    pair_set: set[tuple[int, int]] = set()
    refined_set: set[tuple[int, int]] = set()
    mini_metrics: list[JoinMetrics] = []
    breakdown: list[dict[str, Any]] = []
    for mini in minis:  # plan order
        result = spatial_join(
            mini.dataset_a,
            mini.dataset_a if mini.self_join else mini.dataset_b,
            algorithm=payload["algorithm"],
            predicate=payload["predicate"],
            storage=config,
            refine=payload["refine"],
            obs=obs,
            mode=payload["mode"],
            **payload["params"],
        )
        pair_set.update(result.pairs)
        if result.refined is not None:
            refined_set.update(result.refined)
        mini_metrics.append(result.metrics)
        breakdown.append(
            {
                "label": mini.label,
                "input_records": mini.input_records,
                "pairs": len(result.pairs),
            }
        )
    metrics = _fold_metrics(
        mini_metrics,
        [mini.input_records for mini in minis],
        payload["algorithm"],
        config,
        {"mini_joins": breakdown},
    )
    shard_wall_s = time.perf_counter() - wall_t0

    out: dict[str, Any] = {
        "shard_id": payload["shard_id"],
        "kind": payload["kind"],
        "input_records": payload["input_records"],
        "pairs": sorted(pair_set),
        "refined": sorted(refined_set) if payload["refine"] else None,
        "metrics": metrics.to_dict(),
        "shard_wall_s": shard_wall_s,
        "mini_joins": len(minis),
    }
    if payload["instrument"] and obs is not None:
        out["metric_series"] = obs.metrics.as_dict()
        out["spans"] = obs.tracer.to_dicts()
        out["phase_wall"] = phase_wall_times(obs.tracer.roots)
    if sink is not None:
        out["events"] = sink.to_dicts()
    return out


def _attempt_payload(
    payload: dict[str, Any], attempt: int, in_subprocess: bool
) -> dict[str, Any]:
    """The payload for one dispatch attempt of one shard."""
    updated = dict(payload)
    updated["attempt"] = attempt
    updated["in_subprocess"] = in_subprocess
    return updated


def _retryable(error: BaseException) -> bool:
    """Whether re-dispatching the shard could plausibly help.

    Timeouts and worker deaths are environmental; anything else a
    worker raises is deterministic — the shard replays the same fault
    plan on a rerun — so it fails the shard immediately.
    """
    return isinstance(error, (ShardTimeoutError, WorkerCrashError))


def _dispatch_round(
    entries: list[tuple[int, dict[str, Any]]],
    pool_size: int,
    timeout_s: float | None,
) -> tuple[dict[int, dict[str, Any]], dict[int, BaseException], bool]:
    """Run one round of shard attempts on a fresh process pool.

    Returns per-index results, per-index errors, and whether the pool
    broke.  A round that saw a timeout or a broken pool abandons its
    pool without waiting (stragglers exit on their own) so a hung shard
    cannot hang the executor.
    """
    results: dict[int, dict[str, Any]] = {}
    errors: dict[int, BaseException] = {}
    pool_broke = False
    abandoned = False
    pool = ProcessPoolExecutor(max_workers=pool_size)
    try:
        futures = [
            (index, payload, pool.submit(_run_shard, payload))
            for index, payload in entries
        ]
        for index, payload, future in futures:
            shard_id = payload["shard_id"]
            try:
                results[index] = future.result(timeout=timeout_s)
            except FuturesTimeoutError:
                errors[index] = ShardTimeoutError(
                    f"shard {shard_id} exceeded the per-shard timeout "
                    f"of {timeout_s}s"
                )
                abandoned = True
            except BrokenProcessPool:
                # The crashed worker takes the whole pool down, so
                # every unfinished shard of this round lands here; all
                # of them are innocent-until-retried next round.
                errors[index] = WorkerCrashError(
                    f"worker process died while shard {shard_id} was "
                    f"in flight (broken process pool)"
                )
                pool_broke = True
                abandoned = True
            except Exception as error:
                errors[index] = error
    finally:
        pool.shutdown(wait=not abandoned, cancel_futures=abandoned)
    return results, errors, pool_broke


def _execute_tasks(
    payloads: list[dict[str, Any]],
    tasks: list[ShardTask],
    workers: int,
    shard_timeout_s: float | None,
    max_attempts: int,
    obs: Observability | None,
    run_t0: float | None = None,
) -> tuple[
    list[dict[str, Any] | None], tuple[ShardFailure, ...], dict[str, float]
]:
    """Run every shard, re-dispatching recoverable failures.

    Returns the per-shard results in plan order (``None`` where a shard
    ultimately failed), the structured failure reports, and the
    per-shard dispatch offsets (seconds after ``run_t0``, used to place
    grafted worker span trees on the parent timeline).

    Shard lifecycle events (`shard_dispatched` / `shard_retry` /
    `shard_timed_out` / `shard_failed` / `shard_completed`) stream into
    ``obs.events`` as they happen; a completed shard's buffered worker
    events are folded in just before its completion event.
    """
    metrics = obs.active_metrics if obs is not None else None
    events: EventSink = obs.events if obs is not None else NULL_EVENTS
    if run_t0 is None:
        run_t0 = time.perf_counter()
    count = len(payloads)
    results: list[dict[str, Any] | None] = [None] * count
    failures: dict[int, ShardFailure] = {}
    attempts = [0] * count
    grace_used = [False] * count
    pending = list(range(count))
    in_process = workers == 1 or count <= 1
    pool_breaks = 0
    dispatch_offsets: dict[str, float] = {}
    while pending:
        # Dispatch largest input first (ties broken by plan order): a
        # heavy shard planned late can no longer start last and stretch
        # the makespan.  The order is a pure function of the plan —
        # identical for every worker count — and results still merge in
        # plan order, so merged metrics stay byte-identical.
        pending.sort(key=lambda index: (-tasks[index].input_records, index))
        round_entries: list[tuple[int, dict[str, Any]]] = []
        for index in pending:
            attempts[index] += 1
            round_entries.append(
                (
                    index,
                    _attempt_payload(
                        payloads[index], attempts[index], not in_process
                    ),
                )
            )
            task = tasks[index]
            # Always stamped (not only when events flow): grafted span
            # trees need the dispatch offset to land on the parent
            # timeline whenever the tracer is enabled.
            dispatch_offsets[task.shard_id] = time.perf_counter() - run_t0
            if events.enabled:
                events.emit(
                    "shard_dispatched",
                    shard_id=task.shard_id,
                    kind=task.kind,
                    attempt=attempts[index],
                    records=task.input_records,
                    in_process=in_process,
                )
        if in_process:
            round_results: dict[int, dict[str, Any]] = {}
            round_errors: dict[int, BaseException] = {}
            pool_broke = False
            for index, payload in round_entries:
                # Sequential execution: re-stamp the dispatch offset at
                # the moment the shard actually starts, so grafted span
                # trees line up even without a process pool.
                dispatch_offsets[payload["shard_id"]] = (
                    time.perf_counter() - run_t0
                )
                try:
                    round_results[index] = _run_shard(payload)
                except Exception as error:
                    round_errors[index] = error
        else:
            round_results, round_errors, pool_broke = _dispatch_round(
                round_entries, min(workers, len(round_entries)), shard_timeout_s
            )
        for index, result in sorted(round_results.items()):
            results[index] = result
            if events.enabled:
                worker_events = result.get("events")
                if worker_events:
                    events.extend(worker_events)
                events.emit(
                    "shard_completed",
                    shard_id=result["shard_id"],
                    kind=result["kind"],
                    attempt=attempts[index],
                    wall_s=result.get("shard_wall_s", 0.0),
                    pairs=len(result["pairs"]),
                    phase_wall=result.get("phase_wall"),
                )
        retry_queue: list[int] = []
        degrade = False
        for index, error in sorted(round_errors.items()):
            task = tasks[index]
            if isinstance(error, ShardTimeoutError):
                if metrics is not None:
                    metrics.count("parallel.shard_timeouts")
                if events.enabled:
                    events.emit(
                        "shard_timed_out",
                        shard_id=task.shard_id,
                        attempt=attempts[index],
                        timeout_s=shard_timeout_s,
                    )
            if _retryable(error) and attempts[index] < max_attempts:
                retry_queue.append(index)
                if metrics is not None:
                    metrics.count(
                        "parallel.redispatches", error=type(error).__name__
                    )
                if events.enabled:
                    events.emit(
                        "shard_retry",
                        shard_id=task.shard_id,
                        attempt=attempts[index],
                        error=type(error).__name__,
                    )
                continue
            if (
                isinstance(error, WorkerCrashError)
                and not in_process
                and not grace_used[index]
            ):
                # A broken pool takes every in-flight shard down with
                # the crasher, so a crash here may be collateral: grant
                # one final *in-process* attempt, where a genuine
                # crasher fails deterministically on its own and the
                # innocent shards complete.
                grace_used[index] = True
                degrade = True
                retry_queue.append(index)
                if events.enabled:
                    events.emit(
                        "shard_retry",
                        shard_id=task.shard_id,
                        attempt=attempts[index],
                        error=type(error).__name__,
                        grace=True,
                    )
                continue
            failures[index] = ShardFailure(
                shard_id=task.shard_id,
                kind=task.kind,
                error_type=type(error).__name__,
                message=str(error),
                attempts=attempts[index],
            )
            if metrics is not None:
                metrics.count(
                    "parallel.shard_failures", error=type(error).__name__
                )
            if events.enabled:
                events.emit(
                    "shard_failed",
                    shard_id=task.shard_id,
                    attempts=attempts[index],
                    error=type(error).__name__,
                )
        if pool_broke:
            pool_breaks += 1
            if metrics is not None:
                metrics.count("parallel.pool_breaks")
            if pool_breaks >= POOL_BREAKS_BEFORE_DEGRADE:
                degrade = True
        if degrade and not in_process:
            in_process = True
            if metrics is not None:
                metrics.count("parallel.degraded")
        pending = retry_queue
    ordered_failures = tuple(failures[i] for i in sorted(failures))
    return results, ordered_failures, dispatch_offsets


def _merge_metrics(
    shard_results: list[dict[str, Any]],
    algorithm: str,
    plan: ShardPlan,
    config: StorageConfig | None,
    mode: str = "ledger",
) -> JoinMetrics:
    """Fold per-shard :class:`JoinMetrics` dumps into one ledger."""
    shard_metrics = [JoinMetrics.from_dict(r["metrics"]) for r in shard_results]

    # Deliberately excludes the worker count: it is an execution knob
    # that may only change wall-clock, so the merged metrics must be
    # byte-identical for every value of it (it lives on the
    # ``parallel_join`` span instead).
    details: dict[str, Any] = {
        "parallel": True,
        "plan": plan.describe(),
    }
    if mode != "ledger":
        # Only non-default modes are recorded, so ledger-mode reports
        # stay byte-identical to the pre-fastpath ones.
        details["mode"] = mode
    details["shards"] = [
        {
            "shard_id": r["shard_id"],
            "kind": r["kind"],
            "input_records": r["input_records"],
            "pairs": len(r["pairs"]),
            "total_ios": m.total_ios,
            "response_time": m.response_time,
            "mini_joins": r["mini_joins"],
        }
        for r, m in zip(shard_results, shard_metrics)
    ]
    return _fold_metrics(
        shard_metrics,
        [r["input_records"] for r in shard_results],
        algorithm,
        config,
        details,
    )


def _shift_spans(spans: list[Span], offset: float) -> None:
    """Move a grafted worker span subtree onto the parent timeline.

    Worker span ``start_s`` values are relative to the *worker's*
    tracer epoch (which opens at shard start); adding the shard's
    dispatch offset expresses them on the parent tracer's timeline, so
    exports like ``to_chrome_trace`` see one consistent clock where
    children never begin before their parents.
    """
    for span in spans:
        span.start_s += offset
        _shift_spans(span.children, offset)


def _graft_observability(
    obs: Observability,
    root: Span,
    shard_results: list[dict[str, Any]],
    dispatch_offsets: dict[str, float] | None = None,
) -> None:
    """Attach worker span trees and metric series to the caller's obs."""
    dispatch_offsets = dispatch_offsets or {}
    for result in shard_results:
        spans = result.get("spans")
        if spans is not None and obs.tracer.enabled:
            start_s = root.start_s + dispatch_offsets.get(result["shard_id"], 0.0)
            shard_span = Span(
                f"shard:{result['shard_id']}",
                start_s,
                {"kind": result["kind"], "input_records": result["input_records"]},
            )
            shard_span.children = [Span.from_dict(d) for d in spans]
            _shift_spans(shard_span.children, start_s)
            # Cover the children: a worker's tree may start a little
            # after dispatch (pool latency), so the shard span must end
            # at the latest child's end, not after the summed walls.
            shard_span.wall_s = max(
                (c.start_s + c.wall_s for c in shard_span.children),
                default=start_s,
            ) - start_s
            shard_span.cpu_s = sum(c.cpu_s for c in shard_span.children)
            root.children.append(shard_span)
        series = result.get("metric_series")
        if series is not None and obs.metrics.enabled:
            obs.metrics.merge_dump(series)


def parallel_spatial_join(
    dataset_a: SpatialDataset,
    dataset_b: SpatialDataset,
    algorithm: str = "s3j",
    predicate: JoinPredicate | None = None,
    storage: StorageConfig | None = None,
    refine: bool = False,
    obs: Observability | None = None,
    workers: int = 1,
    shard_level: int | None = None,
    mode: str = "ledger",
    shard_timeout_s: float | None = None,
    shard_retries: int = 1,
    partial_results: bool = False,
    **params: Any,
) -> JoinResult:
    """Run a spatial join sharded by Hilbert key range.

    The planner (:mod:`repro.parallel.planner`) routes every entity to
    per-tile A/B/C/D classes over the ``4^shard_level`` grid and each
    tile shard runs its class-pair mini-joins.  The independent shards
    run on ``workers`` processes (in-process when ``workers=1``), and
    pair sets, ledgers, and observability output merge
    deterministically — the result is identical for every worker count.

    ``storage`` must be a :class:`StorageConfig` (or ``None`` for the
    per-shard paper default): a live :class:`StorageManager` cannot be
    shared across processes.  Passing the same object for both datasets
    runs a self join, exactly as in :func:`~repro.join.api.spatial_join`.

    Fault tolerance: ``shard_timeout_s`` bounds each shard attempt's
    wait (``None`` = no timeout); timeouts and worker crashes are
    re-dispatched up to ``shard_retries`` extra attempts.  Shards that
    stay dead raise :class:`~repro.faults.errors.ShardExecutionError`,
    or — with ``partial_results=True`` — are reported on
    :attr:`JoinResult.failures` while the completed shards' pairs are
    returned as a declared-partial result.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    if shard_retries < 0:
        raise ValueError("shard_retries must be non-negative")
    if shard_timeout_s is not None and shard_timeout_s <= 0:
        raise ValueError("shard_timeout_s must be positive (or None)")
    if isinstance(storage, StorageManager):
        raise ValueError(
            "parallel_spatial_join needs a StorageConfig, not a live "
            "StorageManager: every shard builds its own storage"
        )
    if mode == "memory" and storage is not None:
        raise ValueError(
            "mode='memory' runs without storage simulation; "
            "storage must be None"
        )
    from repro.join.api import available_algorithms

    if algorithm.lower() not in available_algorithms():
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {available_algorithms()}"
        )
    predicate = predicate or Intersects()
    self_join = dataset_a is dataset_b
    if shard_level is None:
        shard_level = default_shard_level(workers)

    plan = plan_join(
        dataset_a,
        dataset_b,
        shard_level,
        curve=params.get("curve"),
        margin=predicate.mbr_margin,
    )
    instrument = obs is not None and (
        obs.tracer.enabled or obs.metrics.enabled
    )
    events: EventSink = obs.events if obs is not None else NULL_EVENTS
    payloads = [
        _shard_payload(
            task, algorithm, predicate, storage, refine, instrument, params,
            mode=mode, events=events.enabled,
        )
        for task in plan.tasks
    ]

    tracer = obs.tracer if obs is not None else NULL_TRACER
    with tracer.span(
        "parallel_join",
        algorithm=algorithm,
        workers=workers,
        shard_level=shard_level,
        tasks=len(plan.tasks),
        self_join=self_join,
    ) as root:
        run_t0 = time.perf_counter()
        if events.enabled:
            events.emit(
                "run_started",
                algorithm=algorithm,
                mode=mode,
                workers=workers,
                shard_level=shard_level,
                tasks=len(plan.tasks),
                self_join=self_join,
            )
        ordered_results, failures, dispatch_offsets = _execute_tasks(
            payloads,
            list(plan.tasks),
            workers,
            shard_timeout_s,
            1 + shard_retries,
            obs,
            run_t0=run_t0,
        )
        if failures and not partial_results:
            raise ShardExecutionError(failures)
        # Plan order, completed shards only (all of them when fault-free).
        shard_results = [r for r in ordered_results if r is not None]

        raw_pairs: set[tuple[int, int]] = set()
        for result in shard_results:
            raw_pairs.update(tuple(pair) for pair in result["pairs"])
        pairs = canonical_pairs(raw_pairs, self_join)

        refined = None
        if refine:
            raw_refined: set[tuple[int, int]] = set()
            for result in shard_results:
                raw_refined.update(tuple(pair) for pair in result["refined"] or ())
            refined = canonical_pairs(raw_refined, self_join)

        metrics = _merge_metrics(shard_results, algorithm, plan, storage, mode)
        metrics.details["shard_level"] = shard_level
        if failures:
            # Only on declared-partial results, so fault-free reports
            # stay byte-identical to the pre-fault-subsystem ones.
            metrics.details["shard_failures"] = [f.to_dict() for f in failures]
            root.set(shard_failures=len(failures))

        if obs is not None and obs.enabled:
            _graft_observability(obs, root, shard_results, dispatch_offsets)
        root.set(candidate_pairs=len(pairs))
        if events.enabled:
            events.emit(
                "run_completed",
                algorithm=algorithm,
                pairs=len(pairs),
                wall_s=time.perf_counter() - run_t0,
                completed_shards=len(shard_results),
                failed_shards=len(failures),
            )

    return JoinResult(
        pairs=pairs,
        metrics=metrics,
        self_join=self_join,
        refined=refined,
        failures=failures,
    )
