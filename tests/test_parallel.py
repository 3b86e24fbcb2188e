"""Tests for the Hilbert-sharded parallel join (repro.parallel)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.api import spatial_join
from repro.join.dataset import SpatialDataset
from repro.obs import Observability
from repro.parallel import (
    default_shard_level,
    parallel_spatial_join,
    plan_join,
)
from repro.parallel.planner import TWO_LAYER_SELF_COMBOS
from repro.storage.manager import StorageConfig, StorageManager

from tests.conftest import brute_force_pairs, brute_force_self_pairs, make_squares

ALGORITHMS = ("s3j", "pbsm", "shj")
WORKER_COUNTS = (1, 2, 4)


def small_inputs():
    return (
        make_squares(120, side=0.01, seed=1, name="A"),
        make_squares(150, side=0.02, seed=2, name="B"),
    )


class TestShardLevel:
    def test_default_levels(self):
        assert default_shard_level(1) == 1
        assert default_shard_level(2) == 1
        assert default_shard_level(4) == 1
        assert default_shard_level(5) == 2
        assert default_shard_level(16) == 2
        assert default_shard_level(17) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_shard_level(0)


def class_a_eids(task):
    """Eids of the A-side entities that *start* in the task's tile."""
    for mini in task.mini_joins:
        if mini.label.startswith("Ax"):
            return {entity.eid for entity in mini.dataset_a}
    return set()


class TestPlanner:
    def test_routing_is_exhaustive_and_disjoint(self):
        dataset_a, dataset_b = small_inputs()
        plan = plan_join(dataset_a, dataset_b, shard_level=1)
        assert len(plan.tasks) == 4  # both sides populate every tile
        assert plan.routed_a == plan.scheduled_a == len(dataset_a)
        assert plan.routed_b == plan.scheduled_b == len(dataset_b)
        # Exhaustive: an entity is present in every tile its MBR
        # overlaps (columns x rows it spans on the 2x2 grid).
        for entity in dataset_a:
            box = entity.mbr
            tiles = (int(box.xhi * 2) - int(box.xlo * 2) + 1) * (
                int(box.yhi * 2) - int(box.ylo * 2) + 1
            )
            present = sum(
                1 for t in plan.tasks if entity.eid in {e.eid for e in t.dataset_a}
            )
            assert present == tiles
        # Disjoint: each entity is class A in exactly one tile — the
        # one its MBR starts in; every other presence is a B/C/D copy.
        starts = [eid for t in plan.tasks for eid in class_a_eids(t)]
        assert len(starts) == len(set(starts)) == len(dataset_a)
        references = sum(len(t.dataset_a) for t in plan.tasks)
        assert plan.replicated_a == references - len(dataset_a)

    def test_boundary_touch_entity_present_in_both_tiles(self):
        """An MBR whose high edge lies exactly on the shard grid line is
        also present in the tile above the line, where a partner that
        starts on the line makes that tile the pair's reference tile."""
        touching = Entity.from_geometry(0, Rect(0.2, 0.2, 0.5, 0.3))
        dataset_a = SpatialDataset("T", [touching])
        dataset_b = SpatialDataset(
            "P",
            [
                Entity.from_geometry(1000, Rect(0.5, 0.25, 0.6, 0.35)),
                Entity.from_geometry(1001, Rect(0.1, 0.1, 0.15, 0.15)),
            ],
        )
        plan = plan_join(dataset_a, dataset_b, shard_level=1)
        assert len(plan.tasks) == 2
        assert all([e.eid for e in t.dataset_a] == [0] for t in plan.tasks)
        assert plan.scheduled_a == 1 and plan.replicated_a == 1
        labels = sorted(m.label for t in plan.tasks for m in t.mini_joins)
        assert labels == ["AxA", "BxA"]  # starts west, spills east
        result = parallel_spatial_join(dataset_a, dataset_b, shard_level=1)
        assert result.pairs == frozenset({(0, 1000)})

    def test_self_join_collapses_combos(self):
        dataset = make_squares(140, side=0.05, seed=3, name="S")
        plan = plan_join(dataset, dataset, shard_level=2)
        allowed = {f"{a}x{b}" for a, b in TWO_LAYER_SELF_COMBOS}
        seen = set()
        for task in plan.tasks:
            assert task.dataset_a is task.dataset_b
            for mini in task.mini_joins:
                seen.add(mini.label)
                # Only the AxA mini-join joins a class with itself.
                assert mini.self_join == (mini.label == "AxA")
                assert (mini.dataset_a is mini.dataset_b) == mini.self_join
        assert seen <= allowed and {"AxA", "AxB", "AxC"} <= seen

    def test_plan_is_worker_independent(self):
        dataset_a, dataset_b = small_inputs()
        one = plan_join(dataset_a, dataset_b, shard_level=2)
        two = plan_join(dataset_a, dataset_b, shard_level=2)
        assert [t.shard_id for t in one.tasks] == [t.shard_id for t in two.tasks]

    def test_invalid_shard_level(self):
        dataset_a, dataset_b = small_inputs()
        with pytest.raises(ValueError):
            plan_join(dataset_a, dataset_b, shard_level=0)
        with pytest.raises(ValueError):
            plan_join(dataset_a, dataset_b, shard_level=99)


class TestParity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_sharded_equals_serial_all_worker_counts(self, algorithm):
        dataset_a, dataset_b = small_inputs()
        serial = spatial_join(dataset_a, dataset_b, algorithm=algorithm)
        assert serial.pairs == brute_force_pairs(dataset_a, dataset_b)
        for workers in WORKER_COUNTS:
            sharded = parallel_spatial_join(
                dataset_a, dataset_b, algorithm=algorithm, workers=workers
            )
            assert sharded.pairs == serial.pairs

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_self_join_parity(self, algorithm):
        dataset = make_squares(140, side=0.015, seed=3, name="S")
        serial = spatial_join(dataset, dataset, algorithm=algorithm)
        sharded = parallel_spatial_join(
            dataset, dataset, algorithm=algorithm, workers=2
        )
        assert sharded.self_join
        assert sharded.pairs == serial.pairs == brute_force_self_pairs(dataset)

    def test_refine_parity(self):
        dataset_a, dataset_b = small_inputs()
        serial = spatial_join(dataset_a, dataset_b, refine=True)
        sharded = parallel_spatial_join(dataset_a, dataset_b, refine=True, workers=2)
        assert sharded.refined == serial.refined

    def test_deeper_shard_level_parity(self):
        dataset_a, dataset_b = small_inputs()
        serial = spatial_join(dataset_a, dataset_b)
        sharded = parallel_spatial_join(dataset_a, dataset_b, workers=2, shard_level=3)
        assert sharded.pairs == serial.pairs

    def test_empty_side_yields_empty_result(self):
        dataset_a = SpatialDataset("E", [])
        dataset_b = make_squares(20, side=0.01, seed=4, name="B")
        result = parallel_spatial_join(dataset_a, dataset_b, workers=2)
        assert result.pairs == frozenset()
        assert result.metrics.phase_names  # still carries Table-2 phases


class TestDeterminism:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_metrics_identical_across_worker_counts(self, algorithm):
        dataset_a, dataset_b = small_inputs()
        dumps = [
            parallel_spatial_join(
                dataset_a, dataset_b, algorithm=algorithm, workers=workers
            ).metrics.to_dict()
            for workers in WORKER_COUNTS
        ]
        assert dumps[0] == dumps[1] == dumps[2]

    def test_merged_ledger_is_sum_of_shards(self):
        dataset_a, dataset_b = small_inputs()
        metrics = parallel_spatial_join(dataset_a, dataset_b, workers=2).metrics
        shards = metrics.details["shards"]
        assert metrics.total_ios == sum(s["total_ios"] for s in shards)
        assert len(shards) == metrics.details["plan"]["tasks"]


class TestObservability:
    def test_span_grafting_and_metric_merge(self):
        dataset_a, dataset_b = small_inputs()
        obs = Observability()
        result = parallel_spatial_join(dataset_a, dataset_b, workers=2, obs=obs)
        (root,) = obs.tracer.roots
        assert root.name == "parallel_join"
        assert root.attrs["workers"] == 2
        assert root.attrs["candidate_pairs"] == len(result.pairs)
        shard_spans = [c for c in root.children if c.name.startswith("shard:")]
        assert len(shard_spans) == result.metrics.details["plan"]["tasks"]
        # every shard ran one nested spatial_join
        assert all(
            c.children and c.children[0].name == "spatial_join" for c in shard_spans
        )
        assert obs.metrics.counter_total("io.reads") > 0

    def test_uninstrumented_run_records_nothing(self):
        dataset_a, dataset_b = small_inputs()
        result = parallel_spatial_join(dataset_a, dataset_b, workers=2)
        assert result.metrics.details["parallel"] is True


class TestApiWiring:
    def test_spatial_join_workers_delegates(self):
        dataset_a, dataset_b = small_inputs()
        serial = spatial_join(dataset_a, dataset_b)
        sharded = spatial_join(dataset_a, dataset_b, workers=2)
        assert sharded.pairs == serial.pairs
        assert sharded.metrics.details.get("parallel") is True
        assert serial.metrics.details.get("parallel") is None

    def test_spatial_join_shard_level_alone_delegates(self):
        dataset_a, dataset_b = small_inputs()
        sharded = spatial_join(dataset_a, dataset_b, shard_level=2)
        assert sharded.metrics.details["plan"]["shard_level"] == 2

    def test_storage_manager_rejected(self):
        dataset_a, dataset_b = small_inputs()
        with StorageManager(StorageConfig()) as manager:
            with pytest.raises(ValueError):
                spatial_join(dataset_a, dataset_b, workers=2, storage=manager)
            with pytest.raises(ValueError):
                parallel_spatial_join(dataset_a, dataset_b, storage=manager)

    def test_explicit_config_honored(self):
        dataset_a, dataset_b = small_inputs()
        config = StorageConfig(page_size=1024, buffer_pages=32)
        result = parallel_spatial_join(dataset_a, dataset_b, storage=config, workers=2)
        assert result.pairs == brute_force_pairs(dataset_a, dataset_b)

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("backend", ("durable",))
    def test_file_backed_directory_is_private_per_sub_join(
        self, tmp_path, backend, workers
    ):
        # One shared directory would have every mini-join and worker
        # open the same store at once (a durable store admits one).
        dataset_a, dataset_b = small_inputs()
        config = StorageConfig(backend=backend, directory=str(tmp_path))
        result = spatial_join(
            dataset_a, dataset_b, storage=config, workers=workers, shard_level=1
        )
        assert result.pairs == brute_force_pairs(dataset_a, dataset_b)

    def test_bad_arguments(self):
        dataset_a, dataset_b = small_inputs()
        with pytest.raises(ValueError):
            parallel_spatial_join(dataset_a, dataset_b, workers=0)
        with pytest.raises(ValueError):
            parallel_spatial_join(dataset_a, dataset_b, algorithm="nope")


# -- property-based oracle ----------------------------------------------
#
# The same grid-aligned generator as the synchronized-scan oracle
# (boundary-touching MBRs decide which tiles an entity is present in),
# checked against a 2-worker sharded run end to end.

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
box_lists = st.lists(entity_boxes, min_size=1, max_size=30)


def to_dataset(name, boxes, start_eid=0):
    return SpatialDataset(
        name,
        [Entity.from_geometry(start_eid + i, box) for i, box in enumerate(boxes)],
    )


class TestShardedOracle:
    @given(boxes_a=box_lists, boxes_b=box_lists)
    @settings(max_examples=10, deadline=None)
    def test_two_worker_join_matches_brute_force(self, boxes_a, boxes_b):
        dataset_a = to_dataset("A", boxes_a)
        dataset_b = to_dataset("B", boxes_b, start_eid=1000)
        result = parallel_spatial_join(dataset_a, dataset_b, workers=2)
        assert result.pairs == brute_force_pairs(dataset_a, dataset_b)
