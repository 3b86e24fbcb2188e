"""Tests for Size Separation Spatial Join."""

import pytest

from repro.core.s3j import SizeSeparationSpatialJoin
from repro.curves import GrayCurve, HilbertCurve, ZOrderCurve
from repro.storage.manager import StorageConfig, StorageManager

from tests.conftest import brute_force_pairs, brute_force_self_pairs, make_squares


def run_s3j(dataset_a, dataset_b, buffer_pages=32, **params):
    with StorageManager(StorageConfig(buffer_pages=buffer_pages)) as storage:
        file_a = dataset_a.write_descriptors(storage, "in-a")
        file_b = dataset_b.write_descriptors(storage, "in-b")
        storage.phase_boundary()
        storage.stats.reset()
        algo = SizeSeparationSpatialJoin(storage, **params)
        return algo.join(file_a, file_b, self_join=dataset_a is dataset_b)


class TestCorrectness:
    def test_matches_brute_force(self):
        a = make_squares(300, 0.03, seed=1, name="A")
        b = make_squares(300, 0.05, seed=2, name="B")
        result = run_s3j(a, b)
        assert result.pairs == brute_force_pairs(a, b)

    def test_self_join_canonical(self):
        a = make_squares(250, 0.04, seed=3)
        result = run_s3j(a, a)
        assert result.pairs == brute_force_self_pairs(a)

    def test_empty_inputs(self):
        a = make_squares(0, 0.1, seed=4, name="A")
        b = make_squares(50, 0.1, seed=5, name="B")
        assert run_s3j(a, b).pairs == frozenset()

    def test_mixed_sizes(self):
        """Entities spanning many levels (the algorithm's core case)."""
        big = make_squares(30, 0.4, seed=6, name="big")
        small = make_squares(300, 0.01, seed=7, name="small")
        result = run_s3j(big, small)
        assert result.pairs == brute_force_pairs(big, small)

    @pytest.mark.parametrize("curve_cls", [HilbertCurve, ZOrderCurve, GrayCurve])
    def test_any_recursive_curve_works(self, curve_cls):
        """Section 3.1: 'any curve that recursively subdivides the
        space will work'."""
        a = make_squares(200, 0.03, seed=8, name="A")
        b = make_squares(200, 0.05, seed=9, name="B")
        result = run_s3j(a, b, curve=curve_cls())
        assert result.pairs == brute_force_pairs(a, b)

    def test_precomputed_hilbert_same_result(self):
        a = make_squares(150, 0.04, seed=10, name="A")
        b = make_squares(150, 0.04, seed=11, name="B")
        with StorageManager(StorageConfig(buffer_pages=32)) as storage:
            curve = HilbertCurve()
            file_a = a.write_descriptors(storage, "in-a", curve=curve)
            file_b = b.write_descriptors(storage, "in-b", curve=curve)
            storage.phase_boundary()
            storage.stats.reset()
            algo = SizeSeparationSpatialJoin(storage, hilbert_precomputed=True)
            result = algo.join(file_a, file_b)
            assert result.pairs == brute_force_pairs(a, b)
            # No hilbert CPU charged when values are precomputed.
            assert "hilbert" not in storage.stats.total.cpu_ops


class TestNoReplication:
    def test_level_files_hold_each_entity_once(self):
        a = make_squares(400, 0.05, seed=12, name="A")
        b = make_squares(400, 0.05, seed=13, name="B")
        result = run_s3j(a, b)
        assert sum(result.metrics.details["levels_a"].values()) == 400
        assert sum(result.metrics.details["levels_b"].values()) == 400
        assert result.metrics.replication_a == 1.0
        assert result.metrics.replication_b == 1.0

    def test_phase_names(self):
        a = make_squares(100, 0.05, seed=14)
        result = run_s3j(a, a)
        assert result.metrics.phase_names == ("partition", "sort", "join")
        assert set(result.metrics.phases) == {"partition", "sort", "join"}


class TestIOBehavior:
    def test_partition_io_matches_equation1(self):
        """Partition phase: 2 S_A + 2 S_B page transfers (equation 1)."""
        a = make_squares(850, 0.02, seed=15, name="A")   # 10 pages
        b = make_squares(1700, 0.02, seed=16, name="B")  # 20 pages
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            file_a = a.write_descriptors(storage, "in-a")
            file_b = b.write_descriptors(storage, "in-b")
            storage.phase_boundary()
            storage.stats.reset()
            algo = SizeSeparationSpatialJoin(storage)
            algo.join(file_a, file_b)
            partition = storage.stats.phases["partition"]
            expected = 2 * (file_a.num_pages + file_b.num_pages)
            # Page-boundary rounding of level files adds a little slack.
            assert partition.total_ios == pytest.approx(expected, rel=0.25)

    def test_join_reads_each_sorted_page_once(self):
        a = make_squares(850, 0.02, seed=17, name="A")
        b = make_squares(850, 0.02, seed=18, name="B")
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            file_a = a.write_descriptors(storage, "in-a")
            file_b = b.write_descriptors(storage, "in-b")
            storage.phase_boundary()
            storage.stats.reset()
            algo = SizeSeparationSpatialJoin(storage)
            result = algo.join(file_a, file_b)
            levels_a = result.metrics.details["levels_a"]
            levels_b = result.metrics.details["levels_b"]
            per_page = storage.descriptors_per_page()
            sorted_pages = sum(
                -(-count // per_page)
                for count in list(levels_a.values()) + list(levels_b.values())
            )
            join = storage.stats.phases["join"]
            # Result-file appends hit the buffered tail page; the only
            # physical reads are the sorted level files, once each.
            assert join.page_reads == sorted_pages

    def test_total_io_within_best_and_worst_case(self):
        """Equations 5 and 6 bound the total page I/O."""
        from benchmarks.costmodel import s3j_best_case_io, s3j_worst_case_io

        a = make_squares(1700, 0.03, seed=19, name="A")
        b = make_squares(1700, 0.03, seed=20, name="B")
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            file_a = a.write_descriptors(storage, "in-a")
            file_b = b.write_descriptors(storage, "in-b")
            storage.phase_boundary()
            storage.stats.reset()
            algo = SizeSeparationSpatialJoin(storage)
            result = algo.join(file_a, file_b)
            result_pages = result.metrics.details["result_pages"]
            total = result.metrics.total_ios
            best = s3j_best_case_io(file_a.num_pages, file_b.num_pages, result_pages)
            worst = s3j_worst_case_io(
                file_a.num_pages, file_b.num_pages, 64, result_pages
            )
            # Rounding of level files to page boundaries adds slack on
            # top of the analytic best case.
            assert best * 0.9 <= total <= worst * 1.3


class TestDSBIntegration:
    def test_dsb_does_not_change_result(self):
        a = make_squares(300, 0.03, seed=21, name="A")
        b = make_squares(300, 0.03, seed=22, name="B")
        plain = run_s3j(a, b)
        filtered = run_s3j(a, b, dsb_level=6)
        assert plain.pairs == filtered.pairs

    @pytest.mark.parametrize("mode", ["precise", "fast"])
    def test_dsb_filters_selective_join(self, mode):
        """Disjoint data spaces: DSB should filter most of B out."""
        left = make_squares(300, 0.02, seed=23, name="left")
        # Shift into the left half only.
        for entity in left.entities:
            pass  # entities already uniform; build a disjoint B instead
        right_entities = make_squares(300, 0.02, seed=24, name="right")
        result = run_s3j(left, right_entities, dsb_level=6, dsb_mode=mode)
        assert result.pairs == brute_force_pairs(left, right_entities)

    def test_dsb_reduces_level_file_sizes(self):
        """With disjoint inputs, nearly all of B is filtered before the
        sort phase (r_B < 1 — the paper's filtering capability)."""
        import random

        from repro.geometry.entity import Entity
        from repro.geometry.rect import Rect
        from repro.join.dataset import SpatialDataset

        rng = random.Random(25)
        left = SpatialDataset(
            "left",
            [
                Entity.from_geometry(
                    i, Rect(x := rng.uniform(0, 0.38), y := rng.uniform(0, 0.95), x + 0.02, y + 0.02)
                )
                for i in range(300)
            ],
        )
        right = SpatialDataset(
            "right",
            [
                Entity.from_geometry(
                    i, Rect(x := rng.uniform(0.6, 0.93), y := rng.uniform(0, 0.95), x + 0.02, y + 0.02)
                )
                for i in range(300)
            ],
        )
        result = run_s3j(left, right, dsb_level=6)
        assert result.pairs == frozenset()
        assert result.metrics.details["dsb_filtered"] > 250
        assert result.metrics.replication_b < 0.2


def _strip(name, x_lo, x_hi, seed):
    """Boxes of three sizes in a vertical strip of the upper half: on a
    level-6 bitmap the 0.07 boxes are coarse rows (many precise-mode
    cells each), the 0.004 boxes finer than a bitmap cell.  Clear of
    y = 0.5, no box is level 0, whose fast projection is the whole
    bitmap."""
    import random

    from repro.geometry.entity import Entity
    from repro.geometry.rect import Rect
    from repro.join.dataset import SpatialDataset

    rng = random.Random(seed)
    entities = []
    for eid in range(400):
        side = rng.choice((0.004, 0.02, 0.07))
        x = rng.uniform(x_lo, x_hi - side)
        y = rng.uniform(0.51, 1.0 - side)
        entities.append(Entity.from_geometry(eid, Rect(x, y, x + side, y + side)))
    return SpatialDataset(name, entities)


class TestDSBPin:
    """The DSB's ledger on one selective join, recorded before the
    bitmap's projection was rewritten: pairs, rows filtered, bitmap
    pages, the partition phase's ``bitmap`` CPU ops and the total page
    I/O must not move.  Two partition blocks per input, so block-wise
    counting is exercised."""

    @pytest.mark.parametrize(
        "mode, expected",
        [
            ("precise", (336, 333, 1, 10810, 76)),
            ("fast", (336, 332, 1, 800, 76)),
        ],
    )
    def test_selective_join_ledger(self, monkeypatch, mode, expected):
        from repro.core import partition

        monkeypatch.setattr(partition, "DEFAULT_BATCH_SIZE", 256)
        left = _strip("left", 0.0, 0.5, seed=49)
        right = _strip("right", 0.4, 1.0, seed=50)
        result = run_s3j(left, right, dsb_level=6, dsb_mode=mode)
        assert result.pairs == brute_force_pairs(left, right)
        metrics = result.metrics
        observed = (
            len(result),
            metrics.details["dsb_filtered"],
            metrics.details["dsb_pages"],
            metrics.phases["partition"].cpu_ops["bitmap"],
            metrics.total_ios,
        )
        assert observed == expected
