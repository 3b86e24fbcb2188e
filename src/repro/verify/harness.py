"""The differential correctness harness.

One :func:`run_verify` call sweeps the cross product of

    workloads x metamorphic variants x executors

and checks, for every run: the pair set against the brute-force oracle
(with metamorphic expectation mapping), the pluggable ledger
invariants, and — once per workload — partition-semantics conformance
(``Level()``/``cell_of`` closed-interval behavior over the workload's
own boxes) and obs-on/obs-off ledger parity.  Any pair-set divergence
is shrunk to a minimized counterexample before it is reported.

Cross-mode parity (``repro verify --cross-mode``) is this same sweep
with the roster of :func:`~repro.verify.executors.cross_mode_executors`
and the identity transform: both engines against the oracle, plus — for executors that refine — refined sets equal to each
other (the oracle covers the filter step only).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.filtertree.levels import LevelAssigner
from repro.verify.cases import VerifyCase
from repro.verify.differential import (
    Divergence,
    diff_pairs,
    minimize_counterexample,
)
from repro.verify.executors import (
    ExecutorSpec,
    cross_mode_executors,
    default_executors,
    run_executor,
)
from repro.verify.invariants import (
    DEFAULT_INVARIANTS,
    Invariant,
    check_obs_parity,
)
from repro.verify.metamorphic import (
    FULL_TRANSFORMS,
    QUICK_TRANSFORMS,
    Transform,
    transforms_by_name,
)
from repro.verify.oracle import descriptor_boxes, oracle_for_case
from repro.verify.report import Report, Violation
from repro.verify.workloads import default_cases

Progress = Callable[[str], None]

CONFORMANCE_ORDER = 16
CONFORMANCE_DEPTH = 6
"""How many levels past an MBR's own level the cell_of conformance
check probes."""


def check_partition_conformance(
    case: VerifyCase,
    order: int = CONFORMANCE_ORDER,
    depth: int = CONFORMANCE_DEPTH,
) -> tuple[int, list[Violation]]:
    """Closed-interval conformance of ``Level()`` and ``cell_of``.

    For every filter-step box of the workload: the vectorized level
    computation must match the scalar one, the box must fit the cell
    ``cell_of`` returns at its own level, and for each deeper level at
    which the box *geometrically* fits inside one closed grid cell,
    ``cell_of`` must locate that cell instead of raising — the paper's
    cells are closed intervals, so a high corner exactly on a grid line
    stays inside the cell below it.
    """
    import numpy as np

    assigner = LevelAssigner(order=order, max_level=order)
    problems: list[str] = []
    checked = 0
    datasets = {
        id(case.dataset_a): case.dataset_a,
        id(case.dataset_b): case.dataset_b,
    }
    for dataset in datasets.values():
        _, boxes = descriptor_boxes(dataset, case.margin)
        if not len(boxes):
            continue
        scalar_levels = []
        for xlo, ylo, xhi, yhi in boxes.tolist():
            from repro.geometry.rect import Rect

            box = Rect(xlo, ylo, xhi, yhi)
            level = assigner.level(box)
            scalar_levels.append(level)
            checked += 1
            # Its own level: never raises, returns the lo-corner cell.
            cx, cy = assigner.cell_of(box, level)
            side = assigner.cell_side(level)
            if not (cx * side <= xlo and cy * side <= ylo):
                problems.append(
                    f"cell_of{box.as_tuple()} at own level {level} returned "
                    f"({cx}, {cy}), which excludes the low corner"
                )
            # Deeper levels: cell_of must succeed exactly when the box
            # geometrically fits one closed cell.
            for deeper in range(level + 1, min(level + depth, order) + 1):
                cells = 1 << deeper
                cell_w = 1.0 / cells
                fx = min(int(xlo * cells), cells - 1)
                fy = min(int(ylo * cells), cells - 1)
                fits = xhi <= (fx + 1) * cell_w and yhi <= (fy + 1) * cell_w
                try:
                    got = assigner.cell_of(box, deeper)
                except ValueError:
                    got = None
                if fits and got is None:
                    problems.append(
                        f"cell_of{box.as_tuple()} raised at level {deeper} "
                        f"although the box fits closed cell ({fx}, {fy})"
                    )
                elif not fits and got is not None:
                    gx, gy = got
                    if not (
                        gx * cell_w <= xlo
                        and xhi <= (gx + 1) * cell_w
                        and gy * cell_w <= ylo
                        and yhi <= (gy + 1) * cell_w
                    ):
                        problems.append(
                            f"cell_of{box.as_tuple()} returned non-containing "
                            f"cell ({gx}, {gy}) at level {deeper}"
                        )
        vector_levels = assigner.levels(
            boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
        )
        if not np.array_equal(vector_levels, np.asarray(scalar_levels)):
            mismatches = int(
                (vector_levels != np.asarray(scalar_levels)).sum()
            )
            problems.append(
                f"vectorized levels() disagrees with scalar level() on "
                f"{mismatches} of {len(boxes)} boxes in {dataset.name}"
            )
    where = f"LevelAssigner on {case.name}"
    return checked, [
        Violation("partition-conformance", where, message) for message in problems[:10]
    ]


def run_verify(
    quick: bool = True,
    cases: list[VerifyCase] | None = None,
    transforms: list[Transform] | None = None,
    executors: list[ExecutorSpec] | None = None,
    invariants: tuple[Invariant, ...] = DEFAULT_INVARIANTS,
    minimize: bool = True,
    minimize_budget: int = 80,
    obs_parity: bool = True,
    seed: int = 0,
    progress: Progress | None = None,
) -> Report:
    """Run the differential correctness harness.

    Quick mode (the CI smoke configuration) covers three generated
    workloads, four metamorphic variants plus identity, every
    registered algorithm, and memory-mode S3J; full mode adds
    the degenerate and paper workloads, the reflection transform, and
    obs-parity checks for every serial executor.
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
            "conformance_boxes": 0,
        },
    )
    counts = report.counts

    for case in cases:
        say(f"case {case.describe()}")
        checked, conformance = check_partition_conformance(case)
        counts["conformance_boxes"] += checked
        report.violations.extend(conformance)

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
                            max_runs=minimize_budget,
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
                    for invariant in invariants
                    for violation in invariant.violations(record)
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

        if obs_parity:
            for spec in executors:
                if quick and spec.algorithm != "s3j":
                    continue
                report.violations.extend(check_obs_parity(case, spec))
                counts["runs"] += 2

    counts["elapsed_s"] = round(time.monotonic() - started, 3)
    return report


def run_cross_mode(
    cases: list[VerifyCase] | None = None,
    refine: bool = True,
    seed: int = 0,
    progress: Progress | None = None,
) -> Report:
    """Cross-mode parity: every workload through ledger mode and memory
    mode — all pair sets equal to the brute-force oracle, refined sets
    equal across modes."""
    report = run_verify(
        quick=False,
        cases=cases,
        transforms=transforms_by_name(()),
        executors=cross_mode_executors(refine),
        obs_parity=False,
        seed=seed,
        progress=progress,
    )
    report.gate = "cross-mode"
    return report
