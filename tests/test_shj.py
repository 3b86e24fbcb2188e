"""Tests for Spatial Hash Join."""

import pytest

from repro.baselines.shj import SpatialHashJoin, suggested_partitions
from repro.storage.manager import StorageConfig, StorageManager

from tests.conftest import brute_force_pairs, brute_force_self_pairs, make_squares


def run_shj(dataset_a, dataset_b, buffer_pages=32, **params):
    with StorageManager(StorageConfig(buffer_pages=buffer_pages)) as storage:
        file_a = dataset_a.write_descriptors(storage, "in-a")
        file_b = dataset_b.write_descriptors(storage, "in-b")
        storage.phase_boundary()
        storage.stats.reset()
        algo = SpatialHashJoin(storage, **params)
        return algo.join(file_a, file_b, self_join=dataset_a is dataset_b)


class TestCorrectness:
    def test_matches_brute_force(self):
        a = make_squares(300, 0.03, seed=1, name="A")
        b = make_squares(300, 0.05, seed=2, name="B")
        assert run_shj(a, b).pairs == brute_force_pairs(a, b)

    def test_self_join(self):
        a = make_squares(250, 0.04, seed=3)
        assert run_shj(a, a).pairs == brute_force_self_pairs(a)

    def test_empty_first_input(self):
        a = make_squares(0, 0.1, seed=4, name="A")
        b = make_squares(50, 0.1, seed=5, name="B")
        assert run_shj(a, b).pairs == frozenset()

    def test_empty_second_input(self):
        a = make_squares(50, 0.1, seed=6, name="A")
        b = make_squares(0, 0.1, seed=7, name="B")
        assert run_shj(a, b).pairs == frozenset()

    @pytest.mark.parametrize("partitions", [2, 5, 20])
    def test_any_partition_count_correct(self, partitions):
        a = make_squares(200, 0.04, seed=8, name="A")
        b = make_squares(200, 0.04, seed=9, name="B")
        result = run_shj(a, b, num_partitions=partitions)
        assert result.pairs == brute_force_pairs(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_sampling_seed_never_affects_result(self, seed):
        a = make_squares(200, 0.04, seed=10, name="A")
        b = make_squares(200, 0.04, seed=11, name="B")
        result = run_shj(a, b, seed=seed)
        assert result.pairs == brute_force_pairs(a, b)

    def test_blockwise_overflow_correct(self):
        """An A partition bigger than memory must fall back to
        blockwise joins and stay exact."""
        a = make_squares(1500, 0.03, seed=12, name="A")
        b = make_squares(400, 0.03, seed=13, name="B")
        result = run_shj(a, b, buffer_pages=16, num_partitions=1)
        assert result.pairs == brute_force_pairs(a, b)
        assert result.metrics.details["overflowed_pairs"] >= 1


class TestAlgorithmShape:
    def test_no_replication_in_first_input(self):
        a = make_squares(300, 0.08, seed=14, name="A")
        b = make_squares(300, 0.08, seed=15, name="B")
        result = run_shj(a, b)
        assert result.metrics.replication_a == 1.0

    def test_second_input_replicates(self):
        """Partition MBRs overlap, so B entities are recorded in
        several partitions (section 2.2)."""
        a = make_squares(400, 0.06, seed=16, name="A")
        b = make_squares(400, 0.06, seed=17, name="B")
        result = run_shj(a, b)
        assert result.metrics.replication_b > 1.0

    def test_no_sort_phase(self):
        a = make_squares(100, 0.05, seed=18)
        result = run_shj(a, a)
        assert result.metrics.phase_names == ("partition", "join")
        assert "sort" not in result.metrics.phases

    def test_filtering_of_unmatched_b(self):
        """B entities overlapping no partition MBR are dropped."""
        import random

        from repro.geometry.entity import Entity
        from repro.geometry.rect import Rect
        from repro.join.dataset import SpatialDataset

        rng = random.Random(19)
        left = SpatialDataset(
            "left",
            [
                Entity.from_geometry(
                    i,
                    Rect(
                        x := rng.uniform(0, 0.2),
                        y := rng.uniform(0, 0.2),
                        x + 0.01,
                        y + 0.01,
                    ),
                )
                for i in range(200)
            ],
        )
        right = SpatialDataset(
            "right",
            [
                Entity.from_geometry(
                    i,
                    Rect(
                        x := rng.uniform(0.7, 0.9),
                        y := rng.uniform(0.7, 0.9),
                        x + 0.01,
                        y + 0.01,
                    ),
                )
                for i in range(200)
            ],
        )
        result = run_shj(left, right)
        assert result.pairs == frozenset()
        assert result.metrics.details["filtered_b"] == 200

    def test_sampling_charges_random_reads(self):
        """Equation 16's cD term: sampling performs random page reads."""
        a = make_squares(1700, 0.02, seed=20, name="A")
        b = make_squares(400, 0.02, seed=21, name="B")
        with StorageManager(StorageConfig(buffer_pages=32)) as storage:
            file_a = a.write_descriptors(storage, "in-a")
            file_b = b.write_descriptors(storage, "in-b")
            storage.phase_boundary()
            storage.stats.reset()
            algo = SpatialHashJoin(storage, num_partitions=10)
            algo.join(file_a, file_b)
            partition = storage.stats.phases["partition"]
            assert partition.random_reads >= 5


class TestSuggestedPartitions:
    def test_scales_with_input(self):
        assert suggested_partitions(1000, 100) > suggested_partitions(100, 100)

    def test_capped_by_memory(self):
        assert suggested_partitions(100000, 50) <= 46

    def test_minimum_two(self):
        assert suggested_partitions(1, 1000) == 2


class TestConstants:
    @pytest.mark.parametrize(
        "knob", ["partition_multiplier", "rtree_fanout", "sample_factor"]
    )
    def test_retired_knobs_are_refused(self, knob):
        a = make_squares(20, 0.05, seed=1)
        with pytest.raises(TypeError, match=knob):
            run_shj(a, a, **{knob: 3})
