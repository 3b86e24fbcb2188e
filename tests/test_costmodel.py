"""Tests for the analytic I/O cost models (section 4)."""

import pytest

from benchmarks.costmodel import (
    expected_replication_factor,
    inside_fraction,
    level_fractions,
    pbsm_io,
    pbsm_partitions,
    replicated_fraction,
    s3j_best_case_io,
    s3j_hilbert_cpu,
    s3j_io,
    s3j_worst_case_io,
    shj_io,
    sort_passes,
)


class TestReplicationFraction:
    def test_zero_at_zero(self):
        assert replicated_fraction(0.0) == 0.0

    def test_one_at_one(self):
        assert replicated_fraction(1.0) == pytest.approx(1.0)

    def test_equation11_form(self):
        """N = 1 - d 2^(j+1) + d^2 2^(2j)."""
        x = 0.3
        assert inside_fraction(x) == pytest.approx(1 - 2 * x + x * x)

    def test_monotone(self):
        values = [replicated_fraction(x / 10) for x in range(11)]
        assert values == sorted(values)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            replicated_fraction(1.5)


class TestSortPasses:
    def test_fits_in_memory(self):
        assert sort_passes(50, 100, 99) == 1

    def test_one_merge_pass(self):
        assert sort_passes(500, 100, 99) == 2

    def test_deep_merge(self):
        assert sort_passes(10000, 10, 4) == 1 + 5  # 1000 runs, fan-in 4

    def test_empty_file(self):
        assert sort_passes(0, 100, 10) == 0


class TestS3JModel:
    def test_best_case_equation5(self):
        assert s3j_best_case_io(100, 200, 30) == 5 * 100 + 5 * 200 + 30

    def test_worst_case_equation6(self):
        total = s3j_worst_case_io(1000, 1000, 100, 50, fan_in=99)
        passes = sort_passes(1000, 100, 99)
        expected = 3 * 1000 + 3 * 1000 + 2 * passes * 1000 + 2 * passes * 1000 + 50
        assert total == expected

    def test_breakdown_sums(self):
        fractions = level_fractions(0.01)
        breakdown = s3j_io(500, 500, 100, fractions, fractions, 40)
        assert breakdown.total_ios == (
            breakdown.scan_ios + breakdown.sort_ios + breakdown.join_ios
        )

    def test_small_files_hit_best_case(self):
        """When every level file fits in memory the model reduces to
        equation 5 (up to page rounding of level files)."""
        fractions = level_fractions(0.01)
        breakdown = s3j_io(100, 100, 1000, fractions, fractions, 10)
        assert breakdown.total_ios == pytest.approx(
            s3j_best_case_io(100, 100, 10), rel=0.15
        )

    def test_hilbert_cpu_equation7(self):
        assert s3j_hilbert_cpu(100, 100, 85) == pytest.approx(
            10e-6 * 200 * 85
        )


class TestPBSMModel:
    def test_partitions_equation8(self):
        assert pbsm_partitions(300, 300, 100) == 6

    def test_partition_io_equation10(self):
        breakdown = pbsm_io(
            pages_a=100,
            pages_b=100,
            memory_pages=50,
            replication_a=1.2,
            replication_b=1.3,
            candidate_pages=20,
            result_pages=10,
            repartition_fraction=0.0,
        )
        assert breakdown.partition_ios == pytest.approx(2.2 * 100 + 2.3 * 100, abs=1)

    def test_repartition_half_equation13(self):
        breakdown = pbsm_io(100, 100, 50, 1.0, 1.0, 20, 10)
        assert breakdown.repartition_ios == pytest.approx(0.5 * (200 + 200), abs=1)

    def test_candidate_fits_in_memory(self):
        breakdown = pbsm_io(100, 100, 50, 1.0, 1.0, 20, 10)
        assert breakdown.sort_ios == 30  # C + J

    def test_dedup_shrink_reduces_sort(self):
        kwargs = dict(
            pages_a=100, pages_b=100, memory_pages=10,
            replication_a=1.0, replication_b=1.0,
            candidate_pages=500, result_pages=100,
        )
        plain = pbsm_io(**kwargs, dedup_shrink=0.0)
        shrunk = pbsm_io(**kwargs, dedup_shrink=0.3)
        assert shrunk.sort_ios < plain.sort_ios

    def test_expected_replication_uniform(self):
        """(1 + d 2^j)^2 expected copies per object."""
        assert expected_replication_factor(0.0, 32) == 1.0
        assert expected_replication_factor(0.01, 100) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_replication_factor(-0.1, 10)
        with pytest.raises(ValueError):
            pbsm_io(1, 1, 1, 1.0, 1.0, 1, 1, repartition_fraction=2.0)


class TestSHJModel:
    def test_partition_io_equations16_17(self):
        breakdown = shj_io(
            pages_a=100,
            pages_b=100,
            memory_pages=50,
            num_partitions=10,
            replication_b=1.5,
            result_pages=10,
        )
        assert breakdown.sample_ios == 10
        assert breakdown.partition_ios == 200 + 250

    def test_join_fitting_equation18(self):
        breakdown = shj_io(100, 100, 50, 10, 1.5, 10, partitions_fit=True)
        assert breakdown.join_ios == 100 + 150 + 10

    def test_join_blockwise_costs_more(self):
        fitting = shj_io(1000, 1000, 20, 4, 2.0, 10, partitions_fit=True)
        blockwise = shj_io(1000, 1000, 20, 4, 2.0, 10, partitions_fit=False)
        assert blockwise.join_ios > fitting.join_ios

    def test_totals(self):
        breakdown = shj_io(100, 100, 50, 10, 1.5, 10)
        assert breakdown.total_ios == (
            breakdown.sample_ios + breakdown.partition_ios + breakdown.join_ios
        )


class TestModelVersusMeasured:
    """The analytic model must track the implementation's ledger for
    the canonical uniform workload (the claim of section 4)."""

    def test_s3j_predicted_vs_measured(self):
        from repro.core.s3j import SizeSeparationSpatialJoin
        from repro.storage.manager import StorageConfig, StorageManager

        from tests.conftest import make_squares

        side = 0.02
        a = make_squares(1700, side, seed=30, name="A")
        b = make_squares(1700, side, seed=31, name="B")
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            file_a = a.write_descriptors(storage, "in-a")
            file_b = b.write_descriptors(storage, "in-b")
            storage.phase_boundary()
            storage.stats.reset()
            algo = SizeSeparationSpatialJoin(storage)
            result = algo.join(file_a, file_b)
            fractions = level_fractions(side)
            predicted = s3j_io(
                file_a.num_pages,
                file_b.num_pages,
                64,
                fractions,
                fractions,
                result.metrics.details["result_pages"],
            )
            assert result.metrics.total_ios == pytest.approx(
                predicted.total_ios, rel=0.25
            )
