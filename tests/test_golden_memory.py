"""Golden memory-mode joins: the six paper workloads, pinned.

Memory mode prices the same three phases as ledger-mode S3J with counted
CPU operations (DESIGN.md section 10): ``level``/``hilbert`` per entity
classified, ``compare`` per sort, and ``mbr_test`` per x-overlapping
candidate the y-mask tested.  How the candidates are *found* — a sweep
per pair of nested cell groups, or one whole-array pass per cell level —
must not move any of them, the pair set, or the number of occupied
``(level, cell)`` groups.  ``golden_memory.json`` holds those for each
EXPERIMENTS.md workload; this test recomputes and compares them.

Regenerate (only when a change is *meant* to move the counts, and say
so in the PR)::

    PYTHONPATH=src python tests/test_golden_memory.py

The committed file was generated at commit 40b1d29 (PR 18), before the
join phase became per-level passes on rank-composite keys.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import pytest

from repro.experiments.runner import run_algorithm
from repro.experiments.workloads import WORKLOADS, workload_by_name

GOLDEN = Path(__file__).with_name("golden_memory.json")
SCALE = 0.2


def memory_join_of(workload_name: str) -> dict[str, Any]:
    """Run one workload in memory mode and flatten what it counted."""
    workload = workload_by_name(workload_name)
    dataset_a, dataset_b = workload.datasets(SCALE)
    result = run_algorithm(
        dataset_a, dataset_b, "s3j",
        predicate=workload.predicate(), scale=SCALE, mode="memory",
    ).result
    details = result.metrics.details
    return {
        "pairs": len(result.pairs),
        "pairs_sha1": hashlib.sha1(repr(sorted(result.pairs)).encode()).hexdigest(),
        "candidates": details["candidates"],
        "cell_level": details["cell_level"],
        "groups_a": details["groups_a"],
        "groups_b": details["groups_b"],
        "cpu_ops": {
            name: dict(sorted(stats.cpu_ops.items()))
            for name, stats in sorted(result.metrics.phases.items())
        },
    }


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_memory_join_matches_golden(workload: str) -> None:
    expected = json.loads(GOLDEN.read_text("utf-8"))[workload]
    assert memory_join_of(workload) == expected


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {w.name: memory_join_of(w.name) for w in WORKLOADS},
            indent=1,
            sort_keys=True,
        )
        + "\n",
        "utf-8",
    )
    print(f"wrote {GOLDEN}")
