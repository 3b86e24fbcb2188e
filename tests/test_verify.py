"""Tests for the differential correctness harness (repro.verify)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.dataset import SpatialDataset
from repro.join.predicates import WithinDistance
from repro.verify import (
    DEFAULT_INVARIANTS,
    Divergence,
    ExecutorSpec,
    VerifyCase,
    cases_by_name,
    default_executors,
    diff_pairs,
    oracle_pairs,
    run_executor,
    run_verify,
    transforms_by_name,
)
from repro.verify.differential import minimize_counterexample
from repro.verify.invariants import (
    check_obs_parity,
    join_reads_once,
    phase_buckets_sum_to_total,
    replication,
)
from repro.verify.metamorphic import TRANSFORMS, CurveSwapTransform
from repro.verify.workloads import grid_aligned_dataset
from tests.conftest import brute_force_pairs, brute_force_self_pairs

# Dyadic coordinates: exactly representable, and they land on the grid
# lines where closed-interval bugs live.
dyadic = st.integers(0, 32).map(lambda k: k / 32)


def rect_strategy():
    return st.tuples(dyadic, dyadic, dyadic, dyadic).map(
        lambda c: Rect(
            min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3])
        )
    )


def dataset_strategy(name, max_size=12):
    return st.lists(rect_strategy(), min_size=0, max_size=max_size).map(
        lambda rects: SpatialDataset(
            name, [Entity(eid, rect) for eid, rect in enumerate(rects)]
        )
    )


class TestOracle:
    @given(dataset_strategy("A"), dataset_strategy("B"))
    def test_matches_brute_force(self, dataset_a, dataset_b):
        assert oracle_pairs(dataset_a, dataset_b) == brute_force_pairs(
            dataset_a, dataset_b
        )

    @given(dataset_strategy("A"))
    def test_self_join_matches_brute_force(self, dataset):
        assert oracle_pairs(dataset, dataset) == brute_force_self_pairs(dataset)

    @given(dataset_strategy("A"), dataset_strategy("B"))
    def test_margin_matches_brute_force(self, dataset_a, dataset_b):
        margin = WithinDistance(0.125).mbr_margin
        assert oracle_pairs(
            dataset_a, dataset_b, margin=margin
        ) == brute_force_pairs(dataset_a, dataset_b, margin=margin)

    def test_empty_dataset(self):
        empty = SpatialDataset("E", [])
        other = SpatialDataset("O", [Entity(0, Rect(0, 0, 1, 1))])
        assert oracle_pairs(empty, other) == frozenset()
        assert oracle_pairs(empty, empty) == frozenset()

    def test_self_join_excludes_identity_pairs(self):
        dataset = SpatialDataset(
            "S", [Entity(i, Rect(0, 0, 1, 1)) for i in range(3)]
        )
        assert oracle_pairs(dataset, dataset) == frozenset(
            {(0, 1), (0, 2), (1, 2)}
        )


class TestMetamorphic:
    @given(dataset_strategy("A", 10), dataset_strategy("B", 10))
    def test_geometry_transforms_preserve_oracle(self, dataset_a, dataset_b):
        base = VerifyCase("t", dataset_a, dataset_b)
        expected = oracle_pairs(dataset_a, dataset_b)
        for name in ("axis-swap", "reflect-x"):
            transform = TRANSFORMS[name]
            variant = transform.apply(base)
            mapped = transform.map_pairs(expected, base.self_join)
            assert (
                oracle_pairs(variant.dataset_a, variant.dataset_b) == mapped
            ), name

    @given(dataset_strategy("A", 10), dataset_strategy("B", 10))
    def test_swap_ab_flips_pairs(self, dataset_a, dataset_b):
        transform = TRANSFORMS["swap-ab"]
        base = VerifyCase("t", dataset_a, dataset_b)
        variant = transform.apply(base)
        assert variant.dataset_a is dataset_b
        mapped = transform.map_pairs(
            oracle_pairs(dataset_a, dataset_b), self_join=False
        )
        assert oracle_pairs(variant.dataset_a, variant.dataset_b) == mapped

    def test_swap_ab_keeps_self_join_identity(self):
        dataset = grid_aligned_dataset(8, 20, seed=1, name="G")
        base = VerifyCase("t", dataset, dataset)
        variant = TRANSFORMS["swap-ab"].apply(base)
        assert variant.self_join

    def test_geometry_transform_keeps_self_join_identity(self):
        dataset = grid_aligned_dataset(8, 20, seed=1, name="G")
        variant = TRANSFORMS["axis-swap"].apply(VerifyCase("t", dataset, dataset))
        assert variant.self_join

    def test_grid_snap_not_pair_preserving(self):
        assert not TRANSFORMS["grid-snap-8"].preserves_pairs

    def test_curve_swap_only_touches_s3j(self):
        transform = CurveSwapTransform()
        assert transform.param_overrides("pbsm") == {}
        overrides = transform.param_overrides("s3j")
        assert type(overrides["curve"]).__name__ == "ZOrderCurve"

    def test_transforms_by_name_identity_first(self):
        picked = transforms_by_name(("swap-ab", "axis-swap"))
        assert [t.name for t in picked] == ["identity", "swap-ab", "axis-swap"]

    def test_transforms_by_name_unknown(self):
        with pytest.raises(ValueError, match="unknown transforms"):
            transforms_by_name(("rotate-45",))


class TestDiffAndMinimize:
    def test_diff_pairs(self):
        diff = diff_pairs(frozenset({(1, 2), (3, 4)}), frozenset({(3, 4), (5, 6)}))
        assert diff.missing == frozenset({(1, 2)})
        assert diff.extra == frozenset({(5, 6)})
        assert not diff.empty
        assert "1 missing" in diff.describe() and "1 extra" in diff.describe()

    def test_minimizer_shrinks_to_culprit_pair(self):
        """A runner that drops exactly one oracle pair must shrink to
        (roughly) the two entities of that pair."""
        dataset_a = grid_aligned_dataset(8, 40, seed=7, name="MA")
        dataset_b = grid_aligned_dataset(8, 40, seed=8, name="MB")
        case = VerifyCase("min", dataset_a, dataset_b)
        dropped = min(oracle_pairs(dataset_a, dataset_b))

        def broken_runner(sub):
            return frozenset(
                oracle_pairs(sub.dataset_a, sub.dataset_b) - {dropped}
            )

        counterexample = minimize_counterexample(case, broken_runner, max_runs=120)
        assert counterexample.diff.missing == frozenset({dropped})
        assert len(counterexample.entities_a) == 1
        assert len(counterexample.entities_b) == 1
        assert counterexample.runs_used <= 120
        assert "missing" in counterexample.describe()

    def test_minimizer_self_join_keeps_identity(self):
        dataset = grid_aligned_dataset(8, 30, seed=9, name="MS")
        case = VerifyCase("min-self", dataset, dataset)
        dropped = min(oracle_pairs(dataset, dataset))

        def broken_runner(sub):
            assert sub.self_join
            return frozenset(
                oracle_pairs(sub.dataset_a, sub.dataset_b) - {dropped}
            )

        counterexample = minimize_counterexample(case, broken_runner, max_runs=120)
        assert counterexample.self_join
        assert counterexample.diff.missing == frozenset({dropped})
        assert len(counterexample.entities_a) == 2


class TestExecutors:
    def test_default_roster(self):
        roster = default_executors()
        names = [spec.name for spec in roster]
        assert names == ["pbsm", "rtree", "s3j", "shj", "sweep", "s3j:memory"]
        # S3J refines in both modes, so every sweep holds the two to each other.
        refining = [spec.name for spec in roster if dict(spec.params).get("refine")]
        assert refining == ["s3j", "s3j:memory"]

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithms"):
            default_executors(algorithms=("s3j", "nested"))

    def test_serial_run_captures_ledger(self):
        case = small_case()
        record = run_executor(case, ExecutorSpec("s3j"))
        assert record.pairs == oracle_pairs(case.dataset_a, case.dataset_b)
        assert record.ledger_total is not None
        assert record.registry is not None
        assert record.level_file_pages  # S3J leaves sorted level files

    def test_memory_run_captures_pairs_only(self):
        case = small_case()
        spec = ExecutorSpec("s3j", mode="memory", params=(("refine", True),))
        record = run_executor(case, spec)
        assert record.pairs == oracle_pairs(case.dataset_a, case.dataset_b)
        assert record.ledger_total is None and not record.level_file_pages
        assert record.refined is not None

    def test_uninstrumented_run_has_no_registry(self):
        record = run_executor(small_case(), ExecutorSpec("sweep"), instrument=False)
        assert record.registry is None


def small_case() -> VerifyCase:
    return VerifyCase(
        "small",
        grid_aligned_dataset(8, 30, seed=11, name="SA"),
        grid_aligned_dataset(8, 30, seed=12, name="SB"),
    )


class TestInvariants:
    def test_healthy_s3j_run_passes_all(self):
        record = run_executor(small_case(), ExecutorSpec("s3j"))
        for invariant in DEFAULT_INVARIANTS:
            assert invariant(record) == []

    def test_phase_buckets_detects_leak(self):
        record = run_executor(small_case(), ExecutorSpec("s3j"))
        bucket = next(iter(record.metrics.phases.values()))
        bucket.page_reads += 1  # doctor: a read escapes attribution
        violations = phase_buckets_sum_to_total(record)
        assert len(violations) == 1
        assert "page_reads" in violations[0].message

    def test_join_reads_once_detects_rescan(self):
        record = run_executor(small_case(), ExecutorSpec("s3j"))
        # Doctor: claim the sorted files are smaller than they are, so
        # the recorded physical reads look like re-reads.
        record.level_file_pages = {
            name: max(pages - 1, 0)
            for name, pages in record.level_file_pages.items()
        }
        violations = join_reads_once(record)
        assert violations
        assert any("pages" in v.message for v in violations)

    def test_join_reads_once_ignores_other_algorithms(self):
        record = run_executor(small_case(), ExecutorSpec("sweep"))
        assert join_reads_once(record) == []

    def test_replication_detects_fudged_factor(self):
        record = run_executor(small_case(), ExecutorSpec("s3j"))
        record.metrics.replication_a = 1.25
        violations = replication(record)
        assert len(violations) == 1
        assert "r_A" in violations[0].message

    def test_obs_parity_holds(self):
        assert check_obs_parity(small_case(), ExecutorSpec("s3j")) == []


class TestHarness:
    def test_small_sweep_passes(self):
        report = run_verify(
            quick=True,
            cases=[small_case()],
            transforms=transforms_by_name(("axis-swap", "swap-ab")),
            executors=[ExecutorSpec("s3j"), ExecutorSpec("sweep")],
        )
        assert report.ok
        # 3 variants x 2 executors + 1 obs-parity pair (s3j only in quick).
        assert report.counts["runs"] == 3 * 2 + 2
        assert report.counts["pairs_checked"] > 0
        assert "PASS" in report.summary()

    def test_catches_boundary_dropping_join(self, monkeypatch):
        """A join kernel that drops boundary-contact pairs (the classic
        open-interval bug) must produce a minimized divergence — through
        every paged engine, since they share the one kernel."""
        import repro.sweep.plane_sweep as sweep_module

        real_kernel = sweep_module.sweep_intersecting_pairs

        def open_interval_kernel(a, b):
            ia, ib, candidates = real_kernel(a, b)
            (axlo, aylo, axhi, ayhi), (bxlo, bylo, bxhi, byhi) = a, b
            inside = (
                (axhi[ia] != bxlo[ib])
                & (bxhi[ib] != axlo[ia])
                & (ayhi[ia] != bylo[ib])
                & (byhi[ib] != aylo[ia])
            )
            return ia[inside], ib[inside], candidates

        monkeypatch.setattr(
            sweep_module, "sweep_intersecting_pairs", open_interval_kernel
        )
        for executor in ("sweep", "s3j"):
            report = run_verify(
                quick=True,
                cases=[small_case()],
                transforms=transforms_by_name(()),
                executors=[ExecutorSpec(executor)],
            )
            assert not report.ok
            (violation,) = report.violations
            assert violation.check == "pair-set"
            divergence = violation.payload
            assert isinstance(divergence, Divergence)
            assert divergence.executor == executor
            assert divergence.diff.missing and not divergence.diff.extra
            counterexample = divergence.counterexample
            assert counterexample is not None
            assert len(counterexample.entities_a) <= 2
            assert len(counterexample.entities_b) <= 2
            assert "FAIL" in report.summary()

    def test_cross_mode_is_a_roster_of_the_same_sweep(self):
        """Ledger-vs-memory parity needs no gate of its own: the
        default S3J roster refines in both modes."""
        report = run_verify(
            cases=[small_case()],
            transforms=transforms_by_name(()),
            executors=default_executors(("s3j",)),
        )
        assert report.ok, report.summary()
        assert report.counts["executors"] == ["s3j", "s3j:memory"]
        assert report.counts["transforms"] == ["identity"]
        # 2 executors + 1 obs-parity pair each (both are s3j).
        assert report.counts["runs"] == 2 + 2 * 2

    def test_cross_mode_catches_refined_set_drift(self, monkeypatch):
        """The oracle covers the filter step only; a refinement step
        that disagrees across engines must still be reported."""
        import repro.fastpath as fastpath

        real = fastpath.memory_spatial_join

        def drops_a_refined_pair(*args, **kwargs):
            result = real(*args, **kwargs)
            result.refined = frozenset(sorted(result.refined)[1:])
            return result

        monkeypatch.setattr(fastpath, "memory_spatial_join", drops_a_refined_pair)
        report = run_verify(cases=[small_case()], transforms=transforms_by_name(()))
        (violation,) = report.violations
        assert violation.check == "refined-parity"
        assert "s3j:memory" in violation.where and "1 missing" in violation.message

    def test_workload_catalog(self):
        with pytest.raises(ValueError, match="unknown workloads"):
            cases_by_name(("no-such-workload",))
        (case,) = cases_by_name(("mixed-self",))
        assert case.self_join

    @settings(deadline=None, max_examples=5)
    @given(st.integers(0, 3))
    def test_generated_workloads_deterministic_in_seed(self, seed):
        first = cases_by_name(("grid-aligned",), seed=seed)[0]
        second = cases_by_name(("grid-aligned",), seed=seed)[0]
        assert [e.mbr for e in first.dataset_a] == [
            e.mbr for e in second.dataset_a
        ]
