"""E-PAR — wall-clock scaling of the Hilbert-sharded parallel join.

Runs every algorithm on one uniform workload serially and sharded with
1, 2, and 4 workers, verifying the executor's contract while timing:

- the sharded pair set equals the serial pair set for every worker
  count;
- the merged :class:`~repro.join.metrics.JoinMetrics` are byte-
  identical across worker counts (the worker count may change
  wall-clock only);
- the merged ledger equals the sum of the per-shard ledgers.

A second section runs a **skewed workload** (~15% large rectangles
that cross tile boundaries) at 4 workers and records the straggler
picture from the event stream: the record imbalance factor, the
duration imbalance factor, and the wall-clock.  The record imbalance
(max over mean per-shard input records) is a pure function of the
plan — identical on every host and run — so it is asserted against a
fixed bound, ``RECORD_IMBALANCE_BOUND``, rather than tracked as a
trajectory.

Emits ``BENCH_parallel_scaling.json`` with the wall-clock per
(algorithm, worker count) plus the skew section so CI uploads the
scaling numbers::

    python -m benchmarks.bench_parallel_scaling [--entities 20000]

Note the *simulated* response time does not change with workers — the
cost model describes the paper's single-disk 1997 testbed.  What
parallelism buys here is real Python wall-clock on the host.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.api import spatial_join
from repro.join.dataset import SpatialDataset
from repro.obs import Observability
from repro.obs.events import EventLog
from repro.obs.report import TABLE2_PHASES
from repro.obs.straggler import analyze_events
from repro.parallel import parallel_spatial_join

from benchmarks.artifacts import write_bench_artifact
from tests.conftest import make_squares

WORKER_COUNTS = (1, 2, 4)
NUM_ENTITIES = int(os.environ.get("REPRO_PARALLEL_N", "20000"))

SKEW_ENTITIES = 400
"""Entities per side of the skewed workload.  Fixed (not scaled by
``--entities``) so the plan-derived record imbalance is identical on
every host and run — that is what makes it gateable."""

SKEW_WORKERS = 4

RECORD_IMBALANCE_BOUND = 1.25
"""The skewed workload's record imbalance must not exceed this (1.040
measured).  A plan that routed every large entity to one shard joining
against everything sits near 1.8 on the same inputs."""


def bench_algorithm(algorithm: str, entities: int) -> tuple[dict, list[str]]:
    """Time one algorithm serial + sharded; return (row, failures)."""
    dataset_a = make_squares(entities, 0.002, seed=20260806, name="par-A")
    dataset_b = make_squares(entities, 0.003, seed=20260807, name="par-B")

    start = time.perf_counter()
    serial = spatial_join(dataset_a, dataset_b, algorithm=algorithm)
    serial_s = time.perf_counter() - start

    failures: list[str] = []
    row: dict = {
        "algorithm": algorithm,
        "entities": 2 * entities,
        "serial_wall_s": serial_s,
        "serial_pairs_per_s": len(serial.pairs) / serial_s,
        "pairs": len(serial.pairs),
        "workers": {},
    }
    reference_metrics: dict | None = None
    for workers in WORKER_COUNTS:
        start = time.perf_counter()
        sharded = parallel_spatial_join(
            dataset_a, dataset_b, algorithm=algorithm, workers=workers
        )
        elapsed = time.perf_counter() - start
        if sharded.pairs != serial.pairs:
            failures.append(
                f"{algorithm} workers={workers}: {len(sharded.pairs)} pairs "
                f"!= serial {len(serial.pairs)}"
            )
        metrics = sharded.metrics.to_dict()
        if reference_metrics is None:
            reference_metrics = metrics
        elif metrics != reference_metrics:
            failures.append(
                f"{algorithm} workers={workers}: merged metrics differ from "
                f"workers={WORKER_COUNTS[0]}"
            )
        shard_ios = sum(
            shard["total_ios"] for shard in sharded.metrics.details["shards"]
        )
        if sharded.metrics.total_ios != shard_ios:
            failures.append(
                f"{algorithm} workers={workers}: merged ledger "
                f"{sharded.metrics.total_ios} != shard sum {shard_ios}"
            )
        row["workers"][str(workers)] = {
            "wall_s": elapsed,
            "pairs_per_s": len(sharded.pairs) / elapsed,
            "speedup_vs_1worker": None,  # filled below
            "total_ios": sharded.metrics.total_ios,
            "sub_joins": sharded.metrics.details["plan"]["tasks"],
        }
    base = row["workers"][str(WORKER_COUNTS[0])]["wall_s"]
    for entry in row["workers"].values():
        entry["speedup_vs_1worker"] = base / entry["wall_s"]
    return row, failures


def skewed_dataset(name: str, seed: int, count: int) -> SpatialDataset:
    """~15% large rectangles (crossing level-1/2 tile lines) among
    small squares — the workload where a shard that joins every large
    entity against everything would become the straggler."""
    rng = random.Random(seed)
    entities = []
    for eid in range(count):
        side = (
            rng.uniform(0.3, 0.6) if eid % 7 == 0 else rng.uniform(0.005, 0.02)
        )
        x = rng.uniform(0.0, 1.0 - side)
        y = rng.uniform(0.0, 1.0 - side)
        entities.append(Entity.from_geometry(eid, Rect(x, y, x + side, y + side)))
    return SpatialDataset(name, entities)


def bench_skew() -> tuple[dict, list[str]]:
    """The straggler picture on the skewed workload."""
    dataset_a = skewed_dataset("skew-A", seed=20260831, count=SKEW_ENTITIES)
    dataset_b = skewed_dataset("skew-B", seed=20260832, count=SKEW_ENTITIES)

    obs = Observability(events=EventLog())
    start = time.perf_counter()
    result = parallel_spatial_join(
        dataset_a, dataset_b, workers=SKEW_WORKERS, obs=obs
    )
    elapsed = time.perf_counter() - start
    analytics = analyze_events(obs.events.to_dicts())
    row: dict = {
        "workload": "skewed",
        "entities": 2 * SKEW_ENTITIES,
        "workers": SKEW_WORKERS,
        "wall_s": elapsed,
        "pairs": len(result.pairs),
        "shards": analytics.shard_count,
        "record_imbalance": analytics.record_imbalance_factor,
        "imbalance_factor": analytics.imbalance_factor,
    }
    failures: list[str] = []
    serial = spatial_join(dataset_a, dataset_b)
    if result.pairs != serial.pairs:
        failures.append(
            f"skewed: {len(result.pairs)} pairs != serial {len(serial.pairs)}"
        )
    if row["record_imbalance"] is None:
        failures.append("skewed: record imbalance missing from analytics")
    elif row["record_imbalance"] > RECORD_IMBALANCE_BOUND:
        failures.append(
            f"skewed: record imbalance {row['record_imbalance']:.3f} above "
            f"the bound {RECORD_IMBALANCE_BOUND}"
        )
    return row, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entities", type=int, default=NUM_ENTITIES)
    args = parser.parse_args(argv)

    rows = []
    failures: list[str] = []
    for algorithm in sorted(TABLE2_PHASES):
        row, algo_failures = bench_algorithm(algorithm, args.entities)
        rows.append(row)
        failures.extend(algo_failures)
        timings = "  ".join(
            f"{workers}w={entry['wall_s']:.2f}s"
            f"({entry['pairs_per_s']:,.0f}p/s)"
            for workers, entry in row["workers"].items()
        )
        print(
            f"{algorithm:<5} pairs={row['pairs']:<8} "
            f"serial={row['serial_wall_s']:.2f}s"
            f"({row['serial_pairs_per_s']:,.0f}p/s)  {timings}"
        )

    skew_row, skew_failures = bench_skew()
    failures.extend(skew_failures)
    print(
        f"skew  workers={skew_row['workers']} shards={skew_row['shards']} "
        f"record_imbalance={skew_row['record_imbalance'] or 0.0:.3f} "
        f"(bound {RECORD_IMBALANCE_BOUND}) wall={skew_row['wall_s']:.2f}s"
    )

    path = write_bench_artifact(
        "parallel_scaling",
        {
            "entities_per_side": args.entities,
            "worker_counts": list(WORKER_COUNTS),
            "rows": rows,
            "skew": skew_row,
        },
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"parallel scaling OK: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
