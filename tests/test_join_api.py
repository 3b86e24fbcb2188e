"""Tests for the top-level join API, predicates, datasets, metrics,
and results."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.geometry.shapes import Point, Segment
from repro.join.api import (
    available_algorithms,
    default_storage_config,
    make_algorithm,
    spatial_join,
)
from repro.join.dataset import SpatialDataset
from repro.join.metrics import JoinMetrics
from repro.join.predicates import Intersects, WithinDistance
from repro.join.result import canonical_pairs
from repro.storage.costs import CostModel
from repro.storage.iostats import PhaseStats
from repro.storage.manager import StorageConfig, StorageManager
from repro.storage.records import PAIR

from tests.conftest import brute_force_pairs, make_squares


class TestPredicates:
    def test_intersects_margin_zero(self):
        assert Intersects().mbr_margin == 0.0

    def test_within_distance_margin(self):
        assert WithinDistance(0.2).mbr_margin == 0.1

    def test_negative_eps_raises(self):
        with pytest.raises(ValueError):
            WithinDistance(-1.0)

    def test_refine_dispatch(self):
        a = Entity.from_geometry(1, Point(0.1, 0.1))
        b = Entity.from_geometry(2, Point(0.1, 0.25))
        assert WithinDistance(0.2).refine(a, b)
        assert not Intersects().refine(a, b)


class TestDataset:
    def test_len_and_iter(self):
        ds = make_squares(10, 0.1, seed=1)
        assert len(ds) == 10
        assert len(list(ds)) == 10

    def test_mbr_and_coverage(self):
        ds = SpatialDataset(
            "two",
            [
                Entity.from_geometry(0, Rect(0.0, 0.0, 0.5, 0.5)),
                Entity.from_geometry(1, Rect(0.5, 0.5, 1.0, 1.0)),
            ],
        )
        assert ds.mbr() == Rect(0.0, 0.0, 1.0, 1.0)
        assert ds.coverage() == pytest.approx(0.5)

    def test_empty_dataset_mbr_raises(self):
        with pytest.raises(ValueError):
            SpatialDataset("empty", []).mbr()

    def test_size_pages(self, storage):
        ds = make_squares(100, 0.1, seed=2)
        assert ds.size_pages(storage) == 2  # 85 per page

    def test_entity_by_id(self):
        ds = make_squares(5, 0.1, seed=3)
        lookup = ds.entity_by_id()
        assert set(lookup) == {0, 1, 2, 3, 4}

    def test_write_descriptors_margin_expands(self, storage):
        ds = SpatialDataset(
            "one", [Entity.from_geometry(0, Rect(0.4, 0.4, 0.5, 0.5))]
        )
        handle = ds.write_descriptors(storage, "f", margin=0.1)
        record = next(handle.scan())
        assert record[1] == pytest.approx(0.3)
        assert record[4] == pytest.approx(0.6)

    def test_write_descriptors_clips_to_unit_square(self, storage):
        ds = SpatialDataset(
            "edge", [Entity.from_geometry(0, Rect(0.0, 0.0, 0.05, 0.05))]
        )
        handle = ds.write_descriptors(storage, "f", margin=0.2)
        record = next(handle.scan())
        assert record[1] == 0.0 and record[2] == 0.0


def _pair_array(pairs):
    return np.array(list(pairs), dtype=PAIR)


def _reference_pairs(pairs, self_join):
    """What a join's pairs meant as a frozenset of tuples: a self join
    folds mirrored pairs to ``(min, max)`` and drops ``(e, e)``."""
    if not self_join:
        return frozenset(pairs)
    return frozenset((min(a, b), max(a, b)) for a, b in pairs if a != b)


_INT64 = st.integers(-(2**63), 2**63 - 1)
_IDS = {
    # Few distinct ids, so mirrors, (e, e) pairs and duplicates are common.
    "small": st.integers(-6, 6),
    "offset": st.integers(2**40 - 6, 2**40 + 6) | st.integers(-(2**40) - 6, -(2**40) + 6),
    # A span of 2**32 or more: the lexsort fallback.
    "wide": st.integers(-6, 6) | st.sampled_from([-(2**63), 2**63 - 1, 2**32, -(2**32)]) | _INT64,
}


class TestCanonicalPairs:
    def test_plain_join_passthrough(self):
        out = canonical_pairs(_pair_array([(2, 1), (1, 2), (2, 1)]), self_join=False)
        assert out.dtype == PAIR
        assert out.tolist() == [(1, 2), (2, 1)]

    def test_self_join_normalizes(self):
        out = canonical_pairs(_pair_array([(1, 2), (2, 1), (3, 3)]), self_join=True)
        assert out.tolist() == [(1, 2)]

    @pytest.mark.parametrize("self_join", [False, True])
    def test_empty_input(self, self_join):
        for raw in ([], [(4, 4)]):
            out = canonical_pairs(_pair_array(raw), self_join)
            assert out.dtype == PAIR
            assert out.tolist() == sorted(_reference_pairs(raw, self_join))

    def test_result_is_read_only(self):
        out = canonical_pairs(_pair_array([(1, 2)]), self_join=False)
        with pytest.raises(ValueError):
            out["a"][0] = 7

    @pytest.mark.parametrize("ids, fallback", [("small", False), ("offset", False), ("wide", True)])
    def test_wide_ids_take_the_lexsort_fallback(self, monkeypatch, ids, fallback):
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        low, high = {
            "small": (-6, 6), "offset": (2**40 - 6, 2**40 + 6), "wide": (-(2**63), 2**63 - 1)
        }[ids]
        raw = [(low, high), (high, low), (high, high), (low, high), (high, low + 1)]
        for self_join in (False, True):
            out = canonical_pairs(_pair_array(raw), self_join)
            assert out.tolist() == sorted(_reference_pairs(raw, self_join))
        assert bool(calls) == fallback

    @settings(max_examples=150, deadline=None)
    @pytest.mark.parametrize("ids", sorted(_IDS))
    @given(data=st.data(), self_join=st.booleans())
    def test_matches_the_frozenset_reference(self, ids, data, self_join):
        raw = data.draw(st.lists(st.tuples(_IDS[ids], _IDS[ids]), max_size=40))
        if raw and data.draw(st.booleans()):  # mirrored copies of drawn pairs
            raw += [(b, a) for a, b in raw[: data.draw(st.integers(1, len(raw)))]]
        out = canonical_pairs(_pair_array(raw), self_join)
        rows = out.tolist()
        assert out.dtype == PAIR
        assert rows == sorted(set(rows))  # sorted by (a, b), unique
        assert frozenset(rows) == _reference_pairs(raw, self_join)


class TestSpatialJoinAPI:
    def test_algorithms_listed(self):
        assert available_algorithms() == ("pbsm", "s3j", "shj")

    def test_unknown_algorithm_raises(self):
        a = make_squares(10, 0.1, seed=4)
        with pytest.raises(ValueError):
            spatial_join(a, a, algorithm="nested-loops")

    def test_make_algorithm_unknown_raises(self, storage):
        with pytest.raises(ValueError):
            make_algorithm("quadtree", storage)

    def test_retired_rtree_join_is_unknown(self):
        a = make_squares(10, 0.1, seed=4)
        choices = r"\('pbsm', 's3j', 'shj'\)"
        with pytest.raises(ValueError, match=f"unknown algorithm 'rtree'; choose from {choices}"):
            spatial_join(a, a, algorithm="rtree")

    def test_retired_sweep_join_is_unknown(self):
        a = make_squares(10, 0.1, seed=4)
        choices = r"\('pbsm', 's3j', 'shj'\)"
        with pytest.raises(ValueError, match=f"unknown algorithm 'sweep'; choose from {choices}"):
            spatial_join(a, a, algorithm="sweep")

    @pytest.mark.parametrize("algorithm", ["s3j", "pbsm", "shj"])
    def test_all_algorithms_agree(self, algorithm):
        a = make_squares(150, 0.04, seed=5, name="A")
        b = make_squares(150, 0.04, seed=6, name="B")
        result = spatial_join(a, b, algorithm=algorithm)
        assert result.pairs == brute_force_pairs(a, b)

    def test_distance_predicate_filter_superset(self):
        a = make_squares(100, 0.02, seed=7, name="A")
        b = make_squares(100, 0.02, seed=8, name="B")
        eps = 0.03
        result = spatial_join(a, b, predicate=WithinDistance(eps))
        assert result.pairs == brute_force_pairs(a, b, margin=eps / 2)

    def test_refinement_exact_distance(self):
        a = SpatialDataset("a", [Entity.from_geometry(0, Point(0.30, 0.30))])
        b = SpatialDataset(
            "b",
            [
                Entity.from_geometry(0, Point(0.30, 0.34)),  # within 0.05
                Entity.from_geometry(1, Point(0.34, 0.34)),  # corner: ~0.057
            ],
        )
        result = spatial_join(
            a, b, predicate=WithinDistance(0.05), refine=True
        )
        # The filter step (Chebyshev) admits both; refinement keeps one.
        assert result.pairs == frozenset({(0, 0), (0, 1)})
        assert result.refined == frozenset({(0, 0)})

    def test_refinement_segments(self):
        a = SpatialDataset(
            "a", [Entity.from_geometry(0, Segment(0.1, 0.1, 0.4, 0.4))]
        )
        b = SpatialDataset(
            "b",
            [
                Entity.from_geometry(0, Segment(0.1, 0.4, 0.4, 0.1)),  # crosses
                Entity.from_geometry(1, Segment(0.35, 0.12, 0.4, 0.15)),  # MBR only
            ],
        )
        result = spatial_join(a, b, refine=True)
        assert result.pairs == frozenset({(0, 0), (0, 1)})
        assert result.refined == frozenset({(0, 0)})

    def test_self_join_identity(self):
        a = make_squares(100, 0.05, seed=9)
        result = spatial_join(a, a)
        assert result.self_join
        assert all(x < y for x, y in result.pairs)

    def test_external_storage_manager_reused(self):
        a = make_squares(50, 0.05, seed=10, name="A")
        b = make_squares(50, 0.05, seed=11, name="B")
        with StorageManager(StorageConfig(buffer_pages=32)) as manager:
            result = spatial_join(a, b, storage=manager)
            assert result.pairs == brute_force_pairs(a, b)
            # The manager stays usable (not closed by the call).
            manager.create_file("still-works")

    def test_storage_config_accepted(self):
        a = make_squares(50, 0.05, seed=12, name="A")
        b = make_squares(50, 0.05, seed=13, name="B")
        result = spatial_join(a, b, storage=StorageConfig(buffer_pages=24))
        assert result.pairs == brute_force_pairs(a, b)

    def test_default_config_memory_fraction(self):
        a = make_squares(8500, 0.01, seed=14, name="A")  # 100 pages
        config = default_storage_config(a, a)
        assert config.buffer_pages == 20  # 10% of 200 pages

    def test_default_config_tracks_page_size(self):
        # Regression: E must come from the actual page size and the
        # descriptor record size, not a hardcoded 4096 // 48.
        a = make_squares(8500, 0.01, seed=14, name="A")
        config = default_storage_config(a, a, page_size=1024)
        per_page = 1024 // 48  # 21 descriptors per 1 KB page
        pages = 2 * -(-8500 // per_page)
        assert config.page_size == 1024
        assert config.buffer_pages == -(-pages // 10)  # 10%, rounded up
        # Same inputs on larger pages need fewer buffer pages.
        assert config.buffer_pages > default_storage_config(a, a).buffer_pages

    def test_algorithm_params_forwarded(self):
        a = make_squares(100, 0.05, seed=15, name="A")
        b = make_squares(100, 0.05, seed=16, name="B")
        result = spatial_join(a, b, algorithm="pbsm", tiles_per_dim=7)
        assert result.metrics.details["tiles_per_dim"] == 7


class TestMetrics:
    def make_metrics(self):
        phases = {
            "partition": PhaseStats(page_reads=10, page_writes=10),
            "join": PhaseStats(page_reads=5, cpu_ops={"mbr_test": 1000}),
        }
        return JoinMetrics(
            algorithm="test",
            phase_names=("partition", "join"),
            phases=phases,
            cost_model=CostModel(),
        )

    def test_response_time_is_sum_of_phases(self):
        metrics = self.make_metrics()
        assert metrics.response_time == pytest.approx(
            metrics.phase_time("partition") + metrics.phase_time("join")
        )

    def test_absent_phase_zero(self):
        metrics = self.make_metrics()
        assert metrics.phase_time("sort") == 0.0
        assert metrics.phase_ios("sort") == 0

    def test_totals(self):
        metrics = self.make_metrics()
        assert metrics.total_ios == 25
        assert metrics.total_reads == 15
        assert metrics.total_writes == 10

    def test_replication_total(self):
        metrics = self.make_metrics()
        metrics.replication_a = 1.5
        metrics.replication_b = 2.0
        assert metrics.replication_total == 3.5

    def test_describe_contains_key_fields(self):
        text = self.make_metrics().describe()
        assert "test" in text and "partition" in text and "r_A" in text


class TestParameterValidation:
    def small(self):
        return make_squares(20, 0.05, seed=1, name="V")

    # The removed sharding parameters accept no value at all: each is an
    # unknown argument to the default (ledger) mode's algorithm.
    @pytest.mark.parametrize("workers", [0, -1, 1.5, "2"])
    def test_bad_workers_raises(self, workers):
        ds = self.small()
        with pytest.raises(TypeError, match="workers"):
            spatial_join(ds, ds, workers=workers)

    @pytest.mark.parametrize("shard_level", [-1, 0.5, "1"])
    def test_bad_shard_level_raises(self, shard_level):
        ds = self.small()
        with pytest.raises(TypeError, match="shard_level"):
            spatial_join(ds, ds, shard_level=shard_level)

    @pytest.mark.parametrize("mode, error", [("ledger", TypeError), ("memory", ValueError)])
    @pytest.mark.parametrize(
        "param",
        ["workers", "shard_level", "partial_results", "shard_timeout_s", "shard_retries"],
    )
    def test_removed_sharding_parameters_raise(self, param, mode, error):
        # Sharded execution is gone: its knobs are unknown arguments,
        # rejected like any other, before a result exists.
        ds = self.small()
        with pytest.raises(error, match=param):
            spatial_join(ds, ds, mode=mode, **{param: 2})


class TestCoordinateValidation:
    """No coordinate outside ``[0, 1]`` — NaN included, which passes
    every ``<``/``>`` test — may reach the array kernels: a cast of NaN
    to a grid index is undefined, and ``searchsorted`` over a column
    holding one has no defined candidate count."""

    FIELDS = ("xlo", "ylo", "xhi", "yhi")

    def joined_with(self, field, value, mode):
        box = dict(xlo=0.2, ylo=0.2, xhi=0.3, yhi=0.3)
        box[field] = value
        bad = SpatialDataset("bad", [Entity(0, Rect(**box))])
        good = make_squares(20, 0.05, seed=1, name="V")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spatial_join(bad, good, mode=mode)

    @pytest.mark.parametrize("mode", ["ledger", "memory"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_nan_is_refused_by_field_name(self, field, mode):
        with pytest.raises(ValueError, match=f"{field} coordinate outside the unit square"):
            self.joined_with(field, float("nan"), mode)

    @pytest.mark.parametrize("mode", ["ledger", "memory"])
    @pytest.mark.parametrize(
        "field, value",
        [("xlo", -0.1), ("ylo", float("-inf")), ("xhi", 1.5), ("yhi", float("inf"))],
    )
    def test_inf_and_out_of_square_are_refused(self, field, value, mode):
        with pytest.raises(ValueError, match="outside the unit square"):
            self.joined_with(field, value, mode)


def unchecked_rect(xlo, ylo, xhi, yhi):
    """A ``Rect`` that skipped its own check (it refuses inverted
    corners, but not NaN or corners outside the unit square)."""
    rect = object.__new__(Rect)
    for field, value in zip(("xlo", "ylo", "xhi", "yhi"), (xlo, ylo, xhi, yhi)):
        object.__setattr__(rect, field, value)
    return rect


class TestInputRule:
    """One input rule, checked when a data set is built, so no engine
    sees bad input.  Before it, PBSM, SHJ and sweep answered it
    silently (dropping a NaN box, pairing one at x = -0.5 or 1.5), and a
    duplicate id passed S3J and PBSM alike."""

    GOOD = [(0.1 * i, 0.1 * i, 0.1 * i + 0.05, 0.1 * i + 0.05) for i in range(9)]
    BAD = {
        "nan": ((0.2, float("nan"), 0.3, 0.3), "ylo coordinate outside the unit square"),
        "inf": ((0.1, 0.2, float("inf"), 0.3), "xhi coordinate outside the unit square"),
        "negative": ((-0.5, 0.2, 0.3, 0.3), "xlo coordinate outside the unit square"),
        "beyond": ((0.2, 0.2, 0.3, 1.5), "yhi coordinate outside the unit square"),
        "inverted": ((0.3, 0.2, 0.2, 0.3), "xlo > xhi"),
        "duplicate": ((0.2, 0.2, 0.3, 0.3), "duplicate id"),
    }

    def build(self, case, source):
        box, _ = self.BAD[case]
        last = 0 if case == "duplicate" else len(self.GOOD)
        rows = [(eid, *good) for eid, good in enumerate(self.GOOD)] + [(last, *box)]
        if source == "columns":
            return SpatialDataset.from_columns("bad", *map(list, zip(*rows)))
        return SpatialDataset("bad", [Entity(eid, unchecked_rect(*box)) for eid, *box in rows])

    @pytest.mark.parametrize("source", ["entities", "columns"])
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_refused_before_any_engine(self, case, source, monkeypatch):
        import repro.fastpath

        reached = []
        monkeypatch.setattr("repro.join.api.make_algorithm", lambda *a, **k: reached.append(a))
        monkeypatch.setattr(repro.fastpath, "memory_spatial_join", lambda *a, **k: reached.append(a))
        good = make_squares(20, 0.05, seed=1, name="V")
        refusal = f"data set 'bad', row {len(self.GOOD)} .*{self.BAD[case][1]}"
        runs = [(name, "ledger") for name in available_algorithms()] + [("s3j", "memory")]
        for algorithm, mode in runs:
            with pytest.raises(ValueError, match=refusal):
                spatial_join(self.build(case, source), good, algorithm=algorithm, mode=mode)
            with pytest.raises(ValueError, match=refusal):
                spatial_join(good, self.build(case, source), algorithm=algorithm, mode=mode)
        assert not reached


class TestTimedPathBuildsNoTuple:
    """A join's result is its ``PAIR`` array: the set of tuples
    ``result.pairs`` is built only when a caller asks for it."""

    @pytest.mark.parametrize(
        "algorithm, mode",
        [("s3j", "memory"), ("s3j", "ledger"), ("pbsm", "ledger"), ("shj", "ledger")],
    )
    def test_run_algorithm_leaves_pairs_unbuilt(self, algorithm, mode):
        from repro.experiments.runner import run_algorithm

        a = make_squares(120, 0.06, seed=11, name="A")
        b = make_squares(100, 0.05, seed=12, name="B")
        result = run_algorithm(a, b, algorithm, mode=mode).result
        assert "pairs" not in result.__dict__
        assert len(result) == len(result.pairs) > 0
        assert result.pairs == brute_force_pairs(a, b)


class TestBatchPathMintsNoEntity:
    """A batch join reads a data set's columns only: a generated data
    set keeps no ``Entity`` unless something asks for one."""

    def test_engines_leave_generated_data_sets_unminted(self):
        from repro.datagen import road_segments, uniform_squares
        from repro.experiments.runner import run_algorithm

        a = road_segments(400, seed=1, name="A")
        b = uniform_squares(300, 0.02, seed=2, name="B")
        runs = [("s3j", "memory"), ("s3j", "ledger"), ("pbsm", "ledger")]
        digests = {run_algorithm(a, b, name, mode=mode).result.pairs for name, mode in runs}
        assert len(digests) == 1
        assert "entities" not in vars(a) and "entities" not in vars(b)

    def test_the_edge_still_mints_on_demand(self):
        from repro.datagen import road_segments
        from repro.service import PersistentIndex

        a = road_segments(300, seed=3, name="A")
        b = road_segments(300, seed=4, name="B")
        refined = spatial_join(a, b, refine=True).refined
        assert "entities" in vars(a) and isinstance(a.entities[0].geometry, Segment)
        assert refined == spatial_join(a, b, mode="memory", refine=True).refined
        assert a.entity_by_id()[7] is a.entities[7]
        with PersistentIndex(b.entities) as index:
            assert index.snapshot_dataset().columns()[0].tolist() == list(range(300))


class TestWarmProcessDeterminism:
    """Back-to-back joins in one process must be byte-identical.

    File names used to come from process-global counters, so a warm
    process numbered its runs differently from a fresh one and the
    second run's ledger/report drifted.  Naming is per-manager now."""

    def run_once(self):
        import json

        dataset_a = make_squares(80, 0.03, seed=5, name="A")
        dataset_b = make_squares(90, 0.04, seed=6, name="B")
        result = spatial_join(dataset_a, dataset_b)
        return json.dumps(result.metrics.to_dict(), sort_keys=True)

    def test_back_to_back_joins_identical(self):
        assert self.run_once() == self.run_once()

    def test_warm_process_all_algorithms(self):
        import json

        ds = make_squares(100, 0.03, seed=9, name="S")
        for algorithm in available_algorithms():
            dumps = [
                json.dumps(
                    spatial_join(ds, ds, algorithm=algorithm).metrics.to_dict(),
                    sort_keys=True,
                )
                for _ in range(2)
            ]
            assert dumps[0] == dumps[1], f"{algorithm} drifted when warm"
