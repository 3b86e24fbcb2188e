"""Golden ledgers: the simulated cost of the paper's six workloads, pinned.

The ledger — page transfers, buffer hits and counted CPU operations per
phase — is the contract of ledger mode (DESIGN.md section 7): any
change to how the work is *executed* (bulk appends, a vectorised sweep,
bulk pricing) must leave every count where it was.  ``golden_ledgers.json``
holds, for each EXPERIMENTS.md workload x registered algorithm, every
per-phase counter, the result pages, the simulated response time and a
digest of the sorted pair set; this test recomputes them and compares
field by field.

Regenerate (only when a change is *meant* to move the ledger, and say
so in the PR)::

    PYTHONPATH=src python tests/test_golden_ledgers.py

The committed file was generated at commit 68f162f (PR 17), before the
paged sweep was re-pointed at the vectorised kernel.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import pytest

from repro.experiments.runner import run_algorithm
from repro.experiments.workloads import WORKLOADS, workload_by_name

GOLDEN = Path(__file__).with_name("golden_ledgers.json")
ALGORITHMS = ("s3j", "pbsm", "shj")
SCALE = 0.05
SCALES = {("TR", "pbsm"): 0.02}
"""TR is the dense self-join (coverage 14).  Its PBSM ledger was pinned
at 0.02 while every external-merge step searched every run, which took
17 s at the common scale.  Now that a step cuts only the runs it takes
from, the 0.02 run costs a median 2.6 CPU-s, against 12.7 before
(five alternating in-process pairs on a 2-vCPU box)."""


def ledger_of(workload_name: str, algorithm: str) -> dict[str, Any]:
    """Run one workload under paper conditions and flatten what the
    cost model saw into JSON-ready fields."""
    workload = workload_by_name(workload_name)
    scale = SCALES.get((workload_name, algorithm), SCALE)
    dataset_a, dataset_b = workload.datasets(scale)
    params = {"tiles_per_dim": workload.tiles_small} if algorithm == "pbsm" else {}
    result = run_algorithm(
        dataset_a, dataset_b, algorithm,
        predicate=workload.predicate(), scale=scale, **params,
    ).result
    metrics = result.metrics
    digest = hashlib.sha1(repr(sorted(result.pairs)).encode()).hexdigest()
    return {
        "scale": scale,
        "pairs": len(result.pairs),
        "pairs_sha1": digest,
        "result_pages": metrics.details["result_pages"],
        "response_time_s": metrics.response_time,
        "phases": {
            name: {**stats.to_dict(), "cpu_ops": dict(sorted(stats.cpu_ops.items()))}
            for name, stats in sorted(metrics.phases.items())
        },
    }


def _golden() -> dict[str, Any]:
    return json.loads(GOLDEN.read_text("utf-8"))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_ledger_matches_golden(workload: str, algorithm: str) -> None:
    expected = _golden()[workload][algorithm]
    got = ledger_of(workload, algorithm)
    assert set(got) == set(expected)
    assert set(got["phases"]) == set(expected["phases"])
    for phase, counters in expected["phases"].items():
        for field, value in counters.items():
            assert got["phases"][phase][field] == value, (workload, algorithm, phase, field)
    for field in ("scale", "pairs", "pairs_sha1", "result_pages", "response_time_s"):
        assert got[field] == expected[field], (workload, algorithm, field)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {
                w.name: {a: ledger_of(w.name, a) for a in ALGORITHMS}
                for w in WORKLOADS
            },
            indent=1,
            sort_keys=True,
        )
        + "\n",
        "utf-8",
    )
    print(f"wrote {GOLDEN}")
