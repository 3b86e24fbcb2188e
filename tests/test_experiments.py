"""Tests for the experiment harness (paper protocol)."""

import pytest

from repro.experiments.runner import (
    FULL_SCALE_ENTRIES_PER_PAGE,
    make_storage_config,
    run_algorithm,
)
from repro.experiments.table4 import format_table4, run_workload, table4_rows
from repro.experiments.workloads import WORKLOADS, workload_by_name
from repro.storage.manager import StorageConfig

from tests.conftest import make_squares

TINY = 0.02  # ~2000-entity workloads: fast enough for unit tests


class TestStorageConfig:
    def test_page_capacity_scales(self):
        a = make_squares(100, 0.02, seed=1)
        full = make_storage_config(a, a, scale=1.0)
        fifth = make_storage_config(a, a, scale=0.2)
        assert full.page_size == 48 * FULL_SCALE_ENTRIES_PER_PAGE
        assert fifth.page_size == 48 * 17

    def test_page_counts_scale_invariant(self):
        """The whole point: S in pages is the same at any scale."""
        import math

        for scale in (1.0, 0.2, 0.05):
            count = int(100_000 * scale)
            entries = max(1, round(FULL_SCALE_ENTRIES_PER_PAGE * scale))
            assert math.ceil(count / entries) == pytest.approx(1177, rel=0.1)

    def test_memory_is_ten_percent(self):
        a = make_squares(8500, 0.01, seed=2)
        config = make_storage_config(a, a, scale=1.0)
        assert config.buffer_pages == 20  # 10% of 200 pages

    @pytest.mark.parametrize("scale", [0.005, 0.01, 0.05, 0.2, 0.5, 1.0])
    def test_one_memory_sizing(self, scale):
        """The experiments' sizing is the library's default sizing on
        ``E * scale``-record pages, and equals the derivation it
        replaced: 10 % of the input pages, at least 16."""
        import math

        from repro.join.api import default_storage_config

        a = make_squares(int(20_000 * scale) + 7, 0.01, seed=4)
        b = make_squares(int(9_000 * scale) + 3, 0.01, seed=5)
        config = make_storage_config(a, b, scale=scale)
        entries = max(1, round(85 * scale))
        pages = math.ceil(len(a) / entries) + math.ceil(len(b) / entries)
        assert FULL_SCALE_ENTRIES_PER_PAGE == 85
        assert config == StorageConfig(
            page_size=48 * entries, buffer_pages=max(16, math.ceil(0.10 * pages))
        )
        assert config == default_storage_config(a, b, page_size=48 * entries)

    def test_invalid_scale(self):
        a = make_squares(10, 0.1, seed=3)
        with pytest.raises(ValueError):
            make_storage_config(a, a, scale=0.0)


class TestWorkloads:
    def test_six_workloads(self):
        assert len(WORKLOADS) == 6
        assert [w.figure for w in WORKLOADS] == ["8a", "8b", "9a", "9b", "10a", "10b"]

    def test_lookup(self):
        assert workload_by_name("TR").self_join
        with pytest.raises(ValueError):
            workload_by_name("XX")

    def test_self_join_flags(self):
        assert workload_by_name("TR").self_join
        assert workload_by_name("CFD").self_join
        assert not workload_by_name("UN1-UN2").self_join
        assert not workload_by_name("LB-LB'").self_join  # shifted copy

    def test_datasets_materialize(self):
        a, b = workload_by_name("UN1-UN2").datasets(scale=TINY)
        assert a.name == "UN1" and b.name == "UN2"
        a, b = workload_by_name("TR").datasets(scale=TINY)
        assert a is b  # self join
        a, b = workload_by_name("LB-LB'").datasets(scale=TINY)
        assert b.name == "LB'"
        assert len(a) == len(b)

    def test_predicates(self):
        assert workload_by_name("CFD").predicate().name == "within_distance"
        assert workload_by_name("TR").predicate().name == "intersects"

    def test_paper_reference_numbers_present(self):
        for workload in WORKLOADS:
            assert set(workload.paper_normalized) == {
                "pbsm_small",
                "pbsm_large",
                "shj",
            }


class TestRunner:
    def test_run_algorithm_row(self):
        a = make_squares(300, 0.03, seed=4, name="A")
        b = make_squares(300, 0.03, seed=5, name="B")
        run = run_algorithm(a, b, "s3j", scale=TINY)
        row = run.row()
        assert row["algorithm"] == "s3j"
        assert row["pairs"] == len(run.result.pairs)
        assert "partition_s" in row and "join_s" in row

    def test_normalized_column(self):
        a = make_squares(200, 0.03, seed=6, name="A")
        b = make_squares(200, 0.03, seed=7, name="B")
        run = run_algorithm(a, b, "pbsm", scale=TINY)
        row = run.row(baseline_time=run.response_time)
        assert row["normalized"] == 1.0


class TestTable4:
    def test_un_row_structure_and_agreement(self):
        row = run_workload(workload_by_name("UN1-UN2"), scale=TINY)
        assert row["pairs"] > 0
        assert row["pbsm_small"]["pairs"] == row["pairs"]
        assert row["shj"]["pairs"] == row["pairs"]
        assert row["pbsm_small"]["normalized"] > 0

    def test_tr_self_join_shape(self):
        """TR at tiny scale keeps its Table 3 coverage (13.96), which
        makes entities enormous — running the PBSM configurations is a
        benchmark-scale job, so the unit test checks the S3J/SHJ leg.
        """
        workload = workload_by_name("TR")
        a, b = workload.datasets(scale=TINY)
        s3j = run_algorithm(a, b, "s3j", scale=TINY)
        shj = run_algorithm(a, b, "shj", scale=TINY)
        assert shj.result.pairs == s3j.result.pairs
        assert len(s3j.result.pairs) > 0
        # S3J never replicates; SHJ does on TR.
        assert s3j.result.metrics.replication_a == 1.0
        assert shj.result.metrics.replication_b > 1.0

    def test_disagreeing_configuration_raises(self, monkeypatch):
        """The row's cross-algorithm check compares pair arrays: one
        pair changed in one configuration, same length, must raise."""
        import repro.experiments.table4 as table4

        def perturbed(a, b, algorithm, **kwargs):
            outcome = run_algorithm(a, b, algorithm, **kwargs)
            if algorithm == "shj":
                changed = outcome.result.pair_array.copy()
                changed["b"][0] += 1
                outcome.result.pair_array = changed
            return outcome

        monkeypatch.setattr(table4, "run_algorithm", perturbed)
        with pytest.raises(AssertionError, match="disagrees with s3j"):
            run_workload(workload_by_name("UN1-UN2"), scale=TINY)

    def test_only_filter(self):
        rows = table4_rows(scale=TINY, only=("UN1-UN2",))
        assert len(rows) == 1

    def test_format_table4(self):
        rows = table4_rows(scale=TINY, only=("UN1-UN2",))
        text = format_table4(rows)
        assert "UN1-UN2" in text
        assert "Workload" in text
