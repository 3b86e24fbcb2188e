"""The differential correctness harness.

One :func:`run_verify` call sweeps the cross product of

    workloads x metamorphic variants x executors

and checks, for every run: the pair set against the brute-force oracle
(with metamorphic expectation mapping), the ledger invariants, and —
once per workload — obs-on/obs-off ledger parity.  Any pair-set
divergence is shrunk to a minimized counterexample before it is
reported.  The oracle covers the filter step only, so the refined sets
of the executors that refine (S3J in ledger and memory mode, in the
default roster) are held to each other: **refined parity**.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.verify.cases import VerifyCase
from repro.verify.differential import (
    Divergence,
    diff_pairs,
    minimize_counterexample,
)
from repro.verify.executors import ExecutorSpec, default_executors, run_executor
from repro.verify.invariants import DEFAULT_INVARIANTS, check_obs_parity
from repro.verify.metamorphic import (
    FULL_TRANSFORMS,
    QUICK_TRANSFORMS,
    Transform,
    transforms_by_name,
)
from repro.verify.oracle import oracle_for_case
from repro.verify.report import Report
from repro.verify.workloads import default_cases

Progress = Callable[[str], None]


def run_verify(
    quick: bool = True,
    cases: list[VerifyCase] | None = None,
    transforms: list[Transform] | None = None,
    executors: list[ExecutorSpec] | None = None,
    minimize: bool = True,
    seed: int = 0,
    progress: Progress | None = None,
) -> Report:
    """Run the differential correctness harness.

    Quick mode (the CI smoke configuration) covers three generated
    workloads, four metamorphic variants plus identity, every
    registered algorithm, and memory-mode S3J, with obs parity for S3J;
    full mode adds the degenerate and paper workloads, the reflection
    transform, and obs-parity checks for every executor.
    """
    say = progress or (lambda message: None)
    started = time.monotonic()

    if cases is None:
        cases = default_cases(quick=quick, seed=seed)
    if transforms is None:
        transforms = transforms_by_name(
            QUICK_TRANSFORMS if quick else FULL_TRANSFORMS
        )
    if executors is None:
        executors = default_executors()

    report = Report(
        gate=f"verify ({'quick' if quick else 'full'})",
        counts={
            "quick": quick,
            "cases": [case.name for case in cases],
            "executors": [spec.name for spec in executors],
            "transforms": [transform.name for transform in transforms],
            "runs": 0,
            "pairs_checked": 0,
        },
    )
    counts = report.counts

    for case in cases:
        say(f"case {case.describe()}")
        base_oracle = oracle_for_case(case)
        for transform in transforms:
            variant = transform.apply(case)
            expected = oracle_for_case(variant)
            if transform.preserves_pairs and transform.name != "identity":
                mapped = transform.map_pairs(base_oracle, case.self_join)
                if mapped != expected:
                    report.fail(
                        "metamorphic-oracle",
                        f"{transform.name} on {case.name}",
                        f"transform claims {len(mapped)} pairs, "
                        f"oracle finds {len(expected)}",
                    )

            # The oracle covers the filter step only, so refined sets are
            # held to the first executor that refined: (its name, its set).
            reference = None
            for spec in executors:
                overrides = transform.param_overrides(spec.algorithm)
                record = run_executor(variant, spec, overrides=overrides)
                counts["runs"] += 1
                counts["pairs_checked"] += len(expected)
                where = f"{spec.name} on {case.name} ({transform.name})"

                if record.pairs != expected:
                    diff = diff_pairs(expected, record.pairs)
                    say(f"  DIVERGE {spec.name} x {transform.name}: " + diff.describe())
                    counterexample = None
                    if minimize:
                        counterexample = minimize_counterexample(
                            variant,
                            lambda sub: run_executor(
                                sub, spec, overrides=overrides, instrument=False
                            ).pairs,
                        )
                    divergence = Divergence(
                        case=case.name,
                        transform=transform.name,
                        executor=spec.name,
                        expected=len(expected),
                        got=len(record.pairs),
                        diff=diff,
                        counterexample=counterexample,
                    )
                    report.fail("pair-set", where, divergence.describe(), divergence)
                report.violations.extend(
                    violation
                    for invariant in DEFAULT_INVARIANTS
                    for violation in invariant(record)
                )
                if record.refined is not None and reference is None:
                    reference = (spec.name, record.refined)
                elif record.refined is not None and record.refined != reference[1]:
                    report.fail(
                        "refined-parity",
                        where,
                        f"refined set differs from {reference[0]}'s: "
                        + diff_pairs(reference[1], record.refined).describe(),
                    )

        for spec in executors:
            if quick and spec.algorithm != "s3j":
                continue
            report.violations.extend(check_obs_parity(case, spec))
            counts["runs"] += 2

    counts["elapsed_s"] = round(time.monotonic() - started, 3)
    return report

