"""Multiway spatial joins.

The paper's abstract promises joins "of two or more spatial data sets",
and section 3.1 stresses that S3J "can be applied either to base
spatial data sets or to intermediate data sets without any
modification" — Hilbert values and levels are simply recomputed for
entities "derived from base sets via a transformation".

:func:`spatial_multiway_join` implements the pipelined plan: join the
first two data sets, turn each result pair into an *intermediate
entity* whose MBR is the intersection of its members' MBRs (the region
where all members meet), and join that intermediate data set with the
next input.  The result is the set of k-tuples whose members all
overlap a common region — the natural k-way overlap join.
"""

from __future__ import annotations

from typing import Any

from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.api import spatial_join
from repro.join.dataset import SpatialDataset
from repro.join.metrics import JoinMetrics
from repro.storage.costs import CostModel


def empty_stage_metrics(algorithm: str) -> JoinMetrics:
    """Metrics for a pipeline stage that was never executed because its
    input was already empty: no phases, no I/O, zero response time."""
    return JoinMetrics(
        algorithm=algorithm,
        phase_names=(),
        phases={},
        cost_model=CostModel(),
        details={"empty_stage": True},
    )


def spatial_multiway_join(
    datasets: list[SpatialDataset],
    algorithm: str = "s3j",
    **params: Any,
) -> tuple[frozenset[tuple[int, ...]], list[JoinMetrics]]:
    """Join k >= 2 data sets under the common-overlap predicate.

    Returns the set of id-tuples ``(e_1, ..., e_k)`` — one id per input
    data set — whose MBRs share at least one common point, plus the
    metrics of each pipeline stage.  There is always exactly one
    metrics entry per planned stage (``k - 1`` of them), so callers can
    zip the list with the inputs; stages whose input pipeline was
    already empty report explicit zero metrics
    (:func:`empty_stage_metrics`) instead of being dropped.

    The plan is left-deep: ``((D1 x D2) x D3) x ...``; every
    intermediate result is re-partitioned from scratch by the chosen
    algorithm, exactly as the paper describes for intermediate data
    sets (no statistics are carried over).
    """
    if len(datasets) < 2:
        raise ValueError("a multiway join needs at least two data sets")

    # Stage 1: ordinary pairwise join.
    first = spatial_join(datasets[0], datasets[1], algorithm=algorithm, **params)
    metrics = [first.metrics]
    tuples: dict[int, tuple[tuple[int, ...], Rect]] = {}
    lookup_a = {e.eid: e for e in datasets[0]}
    lookup_b = {e.eid: e for e in datasets[1]}
    for eid_a, eid_b in first.pair_array.tolist():
        region = lookup_a[eid_a].mbr.intersection(lookup_b[eid_b].mbr)
        if region is not None:
            tuples[len(tuples)] = ((eid_a, eid_b), region)

    # Later stages: intermediate entities carry the common region.
    for dataset in datasets[2:]:
        if not tuples:
            # The pipeline already emptied: the stage runs no join, but
            # still reports (zero) metrics so metrics stay one-per-stage.
            metrics.append(empty_stage_metrics(algorithm))
            continue
        intermediate = SpatialDataset(
            "intermediate",
            [Entity(iid, region) for iid, (_, region) in tuples.items()],
        )
        stage = spatial_join(intermediate, dataset, algorithm=algorithm, **params)
        metrics.append(stage.metrics)
        lookup = {e.eid: e for e in dataset}
        next_tuples: dict[int, tuple[tuple[int, ...], Rect]] = {}
        for iid, eid in stage.pair_array.tolist():
            members, region = tuples[iid]
            shared = region.intersection(lookup[eid].mbr)
            if shared is not None:
                next_tuples[len(next_tuples)] = ((*members, eid), shared)
        tuples = next_tuples

    return frozenset(members for members, _ in tuples.values()), metrics
