"""Regenerate Table 4: response times normalized to S3J, plus observed
replication factors, for every evaluation workload."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.datagen.paper import default_scale
from repro.experiments.runner import run_algorithm
from repro.experiments.workloads import WORKLOADS, Workload


def run_workload(
    workload: Workload, scale: float | None = None
) -> dict[str, Any]:
    """Run all four algorithm configurations of one Table 4 row."""
    if scale is None:
        scale = default_scale()
    dataset_a, dataset_b = workload.datasets(scale)
    predicate = workload.predicate()

    s3j = run_algorithm(
        dataset_a, dataset_b, "s3j", predicate=predicate, scale=scale
    )
    pbsm_small = run_algorithm(
        dataset_a,
        dataset_b,
        "pbsm",
        label=f"pbsm {workload.tiles_small}x{workload.tiles_small}",
        predicate=predicate,
        scale=scale,
        tiles_per_dim=workload.tiles_small,
    )
    pbsm_large = run_algorithm(
        dataset_a,
        dataset_b,
        "pbsm",
        label=f"pbsm {workload.tiles_large}x{workload.tiles_large}",
        predicate=predicate,
        scale=scale,
        tiles_per_dim=workload.tiles_large,
    )
    shj = run_algorithm(
        dataset_a, dataset_b, "shj", predicate=predicate, scale=scale
    )

    for run in (pbsm_small, pbsm_large, shj):
        if not np.array_equal(run.result.pair_array, s3j.result.pair_array):
            raise AssertionError(
                f"{run.label} disagrees with s3j on workload {workload.name}"
            )

    base = s3j.response_time
    rows = {
        "workload": workload.name,
        "figure": workload.figure,
        "pairs": len(s3j.result),
        "s3j": s3j.row(),
        "pbsm_small": pbsm_small.row(base),
        "pbsm_large": pbsm_large.row(base),
        "shj": shj.row(base),
        "paper_normalized": workload.paper_normalized,
        "paper_replication": workload.paper_replication,
    }
    return rows


def table4_rows(
    scale: float | None = None, only: tuple[str, ...] | None = None
) -> list[dict[str, Any]]:
    """All Table 4 rows (optionally a subset of workload names)."""
    rows = []
    for workload in WORKLOADS:
        if only is not None and workload.name not in only:
            continue
        rows.append(run_workload(workload, scale))
    return rows


def format_table4(rows: list[dict[str, Any]]) -> str:
    """Render rows the way the paper prints Table 4."""
    lines = [
        f"{'Workload':<10} {'PBSM sm':>8} {'rA+rB':>6} {'PBSM lg':>8}"
        f" {'rA+rB':>6} {'SHJ':>8} {'rB':>6}   (paper: sm/lg/shj)"
    ]
    for row in rows:
        paper = row["paper_normalized"]
        lines.append(
            f"{row['workload']:<10}"
            f" {row['pbsm_small']['normalized']:>8.2f}"
            f" {row['pbsm_small']['r_A'] + row['pbsm_small']['r_B']:>6.2f}"
            f" {row['pbsm_large']['normalized']:>8.2f}"
            f" {row['pbsm_large']['r_A'] + row['pbsm_large']['r_B']:>6.2f}"
            f" {row['shj']['normalized']:>8.2f}"
            f" {row['shj']['r_B']:>6.2f}"
            f"   ({paper['pbsm_small']}/{paper['pbsm_large']}/{paper['shj']})"
        )
    return "\n".join(lines)
