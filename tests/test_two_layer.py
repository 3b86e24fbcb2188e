"""Tests for the two-layer class-based shard planner (ISSUE 8).

Covers the class algebra (every intersecting pair found in exactly one
mini-join), the routed/scheduled/replicated plan accounting, the
largest-first dispatch order with plan-order merge determinism, and
full-run pair-set parity against the brute-force oracle across worker
counts and execution modes.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.dataset import SpatialDataset
from repro.join.predicates import WithinDistance
from repro.obs import Observability
from repro.obs.events import EventLog
from repro.obs.straggler import analyze_events
from repro.parallel import default_shard_level, parallel_spatial_join, plan_join

from benchmarks.bench_parallel_scaling import RECORD_IMBALANCE_BOUND
from tests.conftest import brute_force_pairs, brute_force_self_pairs, make_squares

GRID = 16

entity_boxes = st.tuples(
    st.integers(0, GRID - 1), st.integers(0, GRID - 1),
    st.integers(0, GRID), st.integers(0, GRID),
).map(
    lambda t: Rect(
        t[0] / GRID,
        t[1] / GRID,
        (t[0] + min(t[2], GRID - t[0])) / GRID,
        (t[1] + min(t[3], GRID - t[1])) / GRID,
    )
)
box_lists = st.lists(entity_boxes, min_size=1, max_size=25)
# Grid-aligned margins so expanded edges land exactly on tile lines.
margins = st.sampled_from((0.0, 1 / (2 * GRID), 1 / GRID))


def to_dataset(name, boxes, start_eid=0):
    return SpatialDataset(
        name,
        [Entity.from_geometry(start_eid + i, box) for i, box in enumerate(boxes)],
    )


def expanded_mbr(entity, margin):
    return entity.mbr if margin == 0.0 else entity.mbr.expanded(margin).clamped()


def skewed_dataset(name, seed, count=160, large_every=7):
    """~15% large rectangles (which cross level-1 tile lines) among
    small squares — the workload where a shard that joins every large
    entity against everything would become the straggler."""
    rng = random.Random(seed)
    entities = []
    for eid in range(count):
        side = (
            rng.uniform(0.3, 0.6)
            if eid % large_every == 0
            else rng.uniform(0.005, 0.02)
        )
        x = rng.uniform(0.0, 1.0 - side)
        y = rng.uniform(0.0, 1.0 - side)
        entities.append(Entity.from_geometry(eid, Rect(x, y, x + side, y + side)))
    return SpatialDataset(name, entities)


def tricky_boxes():
    """Duplicate Hilbert keys, zero-area points on grid lines, and
    boundary-touching boxes — the cases where the presence rule (plain
    ``quantize`` on both corners) earns its keep."""
    return [
        Rect(0.25, 0.25, 0.5, 0.5),        # high edge on the level-1 line
        Rect(0.25, 0.25, 0.5, 0.5),        # duplicate key, duplicate box
        Rect(0.25, 0.25, 0.5, 0.5),
        Rect(0.5, 0.5, 0.5, 0.5),          # zero-area point on a tile corner
        Rect(0.5, 0.25, 0.5, 0.75),        # zero-width segment on the line
        Rect(0.0, 0.5, 1.0, 0.5625),       # wide strip crossing every column
        Rect(0.5, 0.5, 0.75, 0.75),        # starts exactly on the corner
        Rect(0.4375, 0.4375, 0.5, 0.5),    # touches the corner from below
        Rect(0.0, 0.0, 0.0625, 0.0625),
        Rect(0.9375, 0.9375, 1.0, 1.0),
    ]


class TestDefaultShardLevel:
    def test_powers_of_four_are_exact(self):
        # The old float-log implementation put 64 workers at level 4
        # (log(64, 4) -> 2.9999...); the integer version cannot drift.
        for level in range(1, 9):
            workers = 4 ** level
            assert default_shard_level(workers) == level
            assert default_shard_level(workers + 1) == level + 1
        assert default_shard_level(64) == 3
        assert default_shard_level(65) == 4


class TestClassAlgebra:
    @pytest.mark.parametrize("shard_level", (1, 2))
    @given(boxes_a=box_lists, boxes_b=box_lists, margin=margins)
    @settings(max_examples=20, deadline=None)
    def test_every_pair_in_exactly_one_mini_join(
        self, shard_level, boxes_a, boxes_b, margin
    ):
        dataset_a = to_dataset("A", boxes_a)
        dataset_b = to_dataset("B", boxes_b, start_eid=1000)
        plan = plan_join(dataset_a, dataset_b, shard_level, margin=margin)
        counts: dict[tuple[int, int], int] = {}
        for task in plan.tasks:
            for mini in task.mini_joins:
                for ea in mini.dataset_a:
                    box_a = expanded_mbr(ea, margin)
                    for eb in mini.dataset_b:
                        if box_a.intersects(expanded_mbr(eb, margin)):
                            key = (ea.eid, eb.eid)
                            counts[key] = counts.get(key, 0) + 1
        oracle = brute_force_pairs(dataset_a, dataset_b, margin=margin)
        assert set(counts) == set(oracle)
        assert all(count == 1 for count in counts.values())

    @given(boxes=box_lists, margin=margins)
    @settings(max_examples=20, deadline=None)
    def test_self_join_collapse_covers_unordered_pairs_once(self, boxes, margin):
        dataset = to_dataset("S", boxes)
        plan = plan_join(dataset, dataset, shard_level=2, margin=margin)
        counts: dict[tuple[int, int], int] = {}
        for task in plan.tasks:
            for mini in task.mini_joins:
                if mini.self_join:
                    entities = list(mini.dataset_a)
                    candidates = [
                        (ea, eb)
                        for i, ea in enumerate(entities)
                        for eb in entities[i + 1 :]
                    ]
                else:
                    candidates = [
                        (ea, eb)
                        for ea in mini.dataset_a
                        for eb in mini.dataset_b
                    ]
                for ea, eb in candidates:
                    if expanded_mbr(ea, margin).intersects(
                        expanded_mbr(eb, margin)
                    ):
                        key = (min(ea.eid, eb.eid), max(ea.eid, eb.eid))
                        counts[key] = counts.get(key, 0) + 1
        oracle = brute_force_self_pairs(dataset, margin=margin)
        assert set(counts) == set(oracle)
        assert all(count == 1 for count in counts.values())


class TestPlanAccounting:
    def test_disjoint_prefix_workload_routes_but_schedules_nothing(self):
        # A lives in the lower-left level-1 tile, B in the upper-right:
        # every entity routes to a tile, but no tile hosts both sides,
        # so nothing is scheduled.
        boxes_a = [
            Rect(x / GRID, y / GRID, (x + 1) / GRID, (y + 1) / GRID)
            for x in range(0, 7)
            for y in range(0, 7, 2)
        ]
        boxes_b = [
            Rect(x / GRID, y / GRID, (x + 1) / GRID, (y + 1) / GRID)
            for x in range(9, 16)
            for y in range(9, 16, 2)
        ]
        dataset_a = to_dataset("A", boxes_a)
        dataset_b = to_dataset("B", boxes_b, start_eid=1000)
        plan = plan_join(dataset_a, dataset_b, 1)
        assert not plan.tasks
        assert plan.routed_a == len(dataset_a)
        assert plan.routed_b == len(dataset_b)
        assert plan.scheduled_a == plan.scheduled_b == 0
        assert plan.replicated_a == plan.replicated_b == 0

    @given(boxes_a=box_lists, boxes_b=box_lists)
    @settings(max_examples=15, deadline=None)
    def test_accounting_invariants_hold(self, boxes_a, boxes_b):
        dataset_a = to_dataset("A", boxes_a)
        dataset_b = to_dataset("B", boxes_b, start_eid=1000)
        plan = plan_join(dataset_a, dataset_b, 2)
        scheduled = set()
        references = 0
        for task in plan.tasks:
            eids = {entity.eid for entity in task.dataset_a}
            scheduled |= eids
            references += sum(1 for _ in task.dataset_a)
        assert plan.scheduled_a == len(scheduled)
        assert plan.replicated_a == references - len(scheduled)
        assert plan.scheduled_a <= len(dataset_a)
        described = plan.describe()
        for key in ("routed_a", "scheduled_a", "replicated_a"):
            assert key in described


class TestDispatchDeterminism:
    def test_dispatch_is_largest_first(self):
        dataset_a = skewed_dataset("A", seed=21)
        dataset_b = skewed_dataset("B", seed=22)
        obs = Observability(events=EventLog())
        parallel_spatial_join(
            dataset_a, dataset_b, workers=2, shard_level=2, obs=obs
        )
        records = [
            event["records"]
            for event in obs.events.to_dicts()
            if event["type"] == "shard_dispatched" and event.get("attempt") == 1
        ]
        assert len(records) > 2
        # Each dispatch takes the largest remaining task, so the
        # first-attempt record sequence is non-increasing.
        assert records == sorted(records, reverse=True)

    def test_merged_metrics_byte_identical_across_worker_counts(self):
        dataset_a = skewed_dataset("A", seed=21, count=90)
        dataset_b = skewed_dataset("B", seed=22, count=90)
        oracle = brute_force_pairs(dataset_a, dataset_b)
        dumps = set()
        for workers in (1, 2, 4):
            result = parallel_spatial_join(
                dataset_a,
                dataset_b,
                workers=workers,
                shard_level=2,
            )
            assert result.pairs == oracle
            dumps.add(json.dumps(result.metrics.to_dict(), sort_keys=True))
        assert len(dumps) == 1


class TestTwoLayerOracle:
    @given(boxes_a=box_lists, boxes_b=box_lists, margin=margins)
    @settings(max_examples=10, deadline=None)
    def test_matches_oracle_in_both_modes(self, boxes_a, boxes_b, margin):
        dataset_a = to_dataset("A", boxes_a)
        dataset_b = to_dataset("B", boxes_b, start_eid=1000)
        predicate = WithinDistance(2 * margin) if margin else None
        oracle = brute_force_pairs(dataset_a, dataset_b, margin=margin)
        for mode in ("ledger", "memory"):
            for workers in (1, 2, 4):
                result = parallel_spatial_join(
                    dataset_a,
                    dataset_b,
                    predicate=predicate,
                    workers=workers,
                    shard_level=2,
                    mode=mode,
                )
                assert result.pairs == oracle, (mode, workers, margin)

    @pytest.mark.parametrize("workers", (2, 4))
    @pytest.mark.parametrize("mode", ("ledger", "memory"))
    def test_tricky_workload_multiprocess(self, workers, mode):
        boxes_a = tricky_boxes() + [e.mbr for e in make_squares(40, 0.03, seed=5)]
        boxes_b = tricky_boxes() + [e.mbr for e in make_squares(40, 0.05, seed=6)]
        dataset_a = to_dataset("A", boxes_a)
        dataset_b = to_dataset("B", boxes_b, start_eid=1000)
        oracle = brute_force_pairs(dataset_a, dataset_b)
        result = parallel_spatial_join(
            dataset_a, dataset_b, workers=workers, shard_level=2, mode=mode
        )
        assert result.pairs == oracle

    @pytest.mark.parametrize("workers", (1, 2))
    def test_self_join_matches_oracle(self, workers):
        dataset = to_dataset(
            "S", tricky_boxes() + [e.mbr for e in make_squares(50, 0.04, seed=7)]
        )
        oracle = brute_force_self_pairs(dataset)
        result = parallel_spatial_join(
            dataset, dataset, workers=workers, shard_level=2
        )
        assert result.self_join
        assert result.pairs == oracle

    def test_within_distance_multiprocess(self):
        dataset_a = make_squares(80, side=0.01, seed=8, name="A")
        dataset_b = make_squares(80, side=0.01, seed=9, name="B")
        eps = 0.04
        oracle = brute_force_pairs(dataset_a, dataset_b, margin=eps / 2)
        for mode in ("ledger", "memory"):
            result = parallel_spatial_join(
                dataset_a,
                dataset_b,
                predicate=WithinDistance(eps),
                workers=2,
                shard_level=2,
                mode=mode,
            )
            assert result.pairs == oracle, mode


class TestSkewBalance:
    def test_record_imbalance_within_bound(self):
        # The bound the benchmark gates on; a plan that sent every large
        # entity to one join-against-everything shard sits near 1.8.
        dataset_a = skewed_dataset("A", seed=31, count=400)
        dataset_b = skewed_dataset("B", seed=32, count=400)
        plan = plan_join(dataset_a, dataset_b, 1)
        counts = [task.input_records for task in plan.tasks]
        assert max(counts) / (sum(counts) / len(counts)) <= RECORD_IMBALANCE_BOUND

    def test_live_run_analytics_at_four_workers(self):
        dataset_a = skewed_dataset("A", seed=31)
        dataset_b = skewed_dataset("B", seed=32)
        obs = Observability(events=EventLog())
        result = parallel_spatial_join(
            dataset_a, dataset_b, workers=4, shard_level=2, obs=obs
        )
        assert result.pairs == brute_force_pairs(dataset_a, dataset_b)
        analytics = analyze_events(obs.events.to_dicts())
        assert analytics.shard_count == result.metrics.details["plan"]["tasks"]
        # Plan-deterministic: the live run reports the plan's own number.
        counts = [s["input_records"] for s in result.metrics.details["shards"]]
        assert analytics.record_imbalance_factor == pytest.approx(
            max(counts) / (sum(counts) / len(counts))
        )
