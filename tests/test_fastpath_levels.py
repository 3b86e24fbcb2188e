"""Memory mode's per-level passes against the per-group-pair loop they
replaced.

Until PR 19 ``fastpath/join.py`` bucketed each input by ``(effective
level, cell)``, enumerated the nested bucket pairs by ancestor lookups
and swept each pair on its own — thousands of kernel calls on a few rows
each.  That loop lives on here as the *reference*: written with a dense
all-pairs overlap matrix per bucket pair instead of the kernel, it
shares nothing with the shipped join but the column builder, and it
defines what the shipped join must report — the pair set, the
x-overlap candidate count (the ``mbr_test`` charge) and the number of
occupied buckets per input.

Also here: the column builder ``ColumnarDataset.from_dataset`` ran on
every join until PR 23 — five ``np.fromiter`` passes over ``Entity`` and
``Rect`` attributes — as the reference for the columns the data set now
builds once and keeps; and the structural guards that keep the rewrite's
properties — a Python trip count that depends on the cell level only,
peak memory that does not depend on the candidate count, and no entity
read after a data set's first join.
"""

from __future__ import annotations

import tracemalloc
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fastpath.join as fastpath_join
from repro.curves import GrayCurve, HilbertCurve, ZOrderCurve
from repro.datagen import road_segments
from repro.fastpath import ColumnarDataset, memory_spatial_join
from repro.fastpath.sweep import CHUNK_CANDIDATES
from repro.filtertree.levels import LevelAssigner, quantize_array
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.dataset import SpatialDataset
from repro.join.predicates import Intersects, WithinDistance
from repro.join.result import canonical_pairs
from repro.storage.records import PAIR

# ---------------------------------------------------------------------------
# The reference: PR 18's per-group-pair loop.


def _buckets(col: ColumnarDataset, cell_level: int) -> dict[tuple[int, int], np.ndarray]:
    """Row indices of one input by ``(effective level, cell at it)``."""
    eff = np.minimum(col.level, cell_level)
    prefix = col.cell >> (2 * (col.depth - eff))
    buckets: dict[tuple[int, int], list[int]] = {}
    for row, key in enumerate(zip(eff.tolist(), prefix.tolist())):
        buckets.setdefault(key, []).append(row)
    return {key: np.asarray(rows) for key, rows in buckets.items()}


def _nested_bucket_pairs(buckets_a, buckets_b, self_join):
    """All ``(a_bucket, b_bucket)`` key pairs whose cells nest.

    Loop 1 finds, for each A bucket, every B bucket at an equal-or-
    coarser level whose cell contains it; loop 2 finds, for each B
    bucket, every *strictly* coarser A bucket — together covering each
    nested pair exactly once.  A self join keeps loop 1 only.
    """
    pairs = []
    for la, pa in buckets_a:
        for lb in range(la + 1):
            key = (lb, pa >> (2 * (la - lb)))
            if key in buckets_b:
                pairs.append(((la, pa), key))
    if self_join:
        return pairs
    for lb, pb in buckets_b:
        for la in range(lb):
            key = (la, pb >> (2 * (lb - la)))
            if key in buckets_a:
                pairs.append((key, (lb, pb)))
    return pairs


def reference_join(dataset_a, dataset_b, cell_level, predicate):
    """``(pairs, candidates, groups_a, groups_b)`` by the old loop."""
    self_join = dataset_a is dataset_b
    margin = predicate.mbr_margin
    col_a = ColumnarDataset.from_dataset(dataset_a, margin=margin, depth=cell_level)
    col_b = (
        col_a
        if self_join
        else ColumnarDataset.from_dataset(dataset_b, margin=margin, depth=cell_level)
    )
    buckets_a = _buckets(col_a, cell_level)
    buckets_b = buckets_a if self_join else _buckets(col_b, cell_level)
    raw_a: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    raw_b: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    candidates = 0
    for key_a, key_b in _nested_bucket_pairs(buckets_a, buckets_b, self_join):
        ra, rb = buckets_a[key_a][:, None], buckets_b[key_b][None, :]
        x_overlap = (col_a.xlo[ra] <= col_b.xhi[rb]) & (col_b.xlo[rb] <= col_a.xhi[ra])
        candidates += int(x_overlap.sum())
        hit = x_overlap & (col_a.ylo[ra] <= col_b.yhi[rb]) & (col_b.ylo[rb] <= col_a.yhi[ra])
        ia, ib = np.nonzero(hit)
        raw_a.append(col_a.eid[ra[ia, 0]])
        raw_b.append(col_b.eid[rb[0, ib]])
    raw = np.empty(sum(map(len, raw_a)), dtype=PAIR)
    raw["a"], raw["b"] = np.concatenate(raw_a), np.concatenate(raw_b)
    return canonical_pairs(raw, self_join), candidates, len(buckets_a), len(buckets_b)


# ---------------------------------------------------------------------------
# Inputs biased toward what breaks interval code: a 1/64 lattice forces
# duplicate coordinates, zero-area boxes, boxes that touch each other and
# the grid lines of every level down to 6; free floats break the ties.

LATTICE = 64
_coordinate = st.one_of(
    st.integers(0, LATTICE).map(lambda k: k / LATTICE),
    st.floats(0.0, 1.0, allow_nan=False),
)
_extent = st.one_of(
    st.sampled_from([0.0, 0.0, 1 / LATTICE, 2 / LATTICE, 9 / LATTICE, 0.5]),
    st.floats(0.0, 0.05, allow_nan=False),
)


@st.composite
def datasets(draw, name: str, max_count: int = 24) -> SpatialDataset:
    entities = []
    for eid in range(draw(st.integers(0, max_count))):
        x, y = draw(_coordinate), draw(_coordinate)
        if draw(st.integers(0, 7)) == 0:
            # Straddles the centre point: level 0 whatever its size.
            half = draw(st.sampled_from([1 / LATTICE, 0.1, 0.3]))
            box = Rect(0.5 - half, 0.5 - half, 0.5 + half, 0.5 + half)
        else:
            box = Rect(x, y, min(1.0, x + draw(_extent)), min(1.0, y + draw(_extent)))
        entities.append(Entity.from_geometry(eid, box))
    return SpatialDataset(name, entities)


_predicates = st.sampled_from(
    [Intersects(), WithinDistance(1 / LATTICE), WithinDistance(0.013)]
)


def _assert_matches_reference(dataset_a, dataset_b, cell_level, predicate):
    result = memory_spatial_join(
        dataset_a, dataset_b, predicate=predicate, cell_level=cell_level
    )
    details = result.metrics.details
    pairs, candidates, groups_a, groups_b = reference_join(
        dataset_a, dataset_b, details["cell_level"], predicate
    )
    assert np.array_equal(result.pair_array, pairs)
    assert details["candidates"] == candidates
    assert result.metrics.phases["join"].cpu_ops.get("mbr_test", 0) == candidates
    assert (details["groups_a"], details["groups_b"]) == (groups_a, groups_b)


class TestAgainstGroupPairLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        a=datasets("A"),
        b=datasets("B"),
        cell_level=st.integers(0, 6),
        predicate=_predicates,
    )
    def test_non_self_join(self, a, b, cell_level, predicate):
        _assert_matches_reference(a, b, cell_level, predicate)

    @settings(max_examples=150, deadline=None)
    @given(a=datasets("A"), cell_level=st.integers(0, 6), predicate=_predicates)
    def test_self_join(self, a, cell_level, predicate):
        _assert_matches_reference(a, a, cell_level, predicate)

    @pytest.mark.parametrize("cell_level", range(7))
    def test_all_residual_skew(self, cell_level):
        # Every box straddles the centre point: one level-0 bucket a
        # side, whatever the cell level.
        def straddlers(name, offset):
            return SpatialDataset(
                name,
                [
                    Entity.from_geometry(
                        eid, Rect(0.5 - d, 0.5 - d / 2, 0.5 + d / 3, 0.5 + d)
                    )
                    for eid, d in enumerate(np.linspace(0.01 + offset, 0.3, 25))
                ],
            )

        a, b = straddlers("A", 0.0), straddlers("B", 0.005)
        _assert_matches_reference(a, b, cell_level, Intersects())
        _assert_matches_reference(a, a, cell_level, Intersects())

    def test_two_dense_towns_many_chunks(self):
        # Three box sizes around two centres: nine Filter-Tree levels,
        # and enough x-overlap that one level's candidates span chunks.
        def towns(name, count, seed):
            rng = np.random.default_rng(seed)
            centre = rng.choice([0.3, 0.7], size=(count, 2))
            centre += rng.normal(0.0, 0.04, size=(count, 2))
            half = rng.choice([0.0005, 0.005, 0.03], size=(count, 1))
            lo = np.clip(centre - half, 0.0, 1.0).tolist()
            hi = np.clip(centre + half, 0.0, 1.0).tolist()
            return SpatialDataset(
                name,
                [
                    Entity.from_geometry(eid, Rect(*lo[eid], *hi[eid]))
                    for eid in range(count)
                ],
            )

        a, b = towns("A", 2500, seed=1), towns("B", 2000, seed=2)
        result = memory_spatial_join(a, b)
        assert result.metrics.details["candidates"] > 3 * CHUNK_CANDIDATES
        _assert_matches_reference(a, b, None, Intersects())


# ---------------------------------------------------------------------------
# The reference column builder: PR 22's ``from_dataset`` body, rebuilt
# from the entities on every call.


def reference_columns(dataset, margin=0.0, curve=None, assigner=None, depth=None):
    """``(eid, xlo, ylo, xhi, yhi, level, cell)`` straight off the
    ``Entity`` objects, nothing cached."""
    curve = curve or HilbertCurve()
    assigner = assigner or LevelAssigner(curve.order, min(16, curve.order))
    depth = assigner.max_level if depth is None else depth
    n = len(dataset)
    eid = np.fromiter(map(attrgetter("eid"), dataset), np.int64, n)
    boxes = list(map(attrgetter("mbr"), dataset))
    xlo, ylo, xhi, yhi = (
        np.fromiter(map(attrgetter(corner), boxes), np.float64, n)
        for corner in ("xlo", "ylo", "xhi", "yhi")
    )
    if margin != 0.0:
        xlo, ylo = (np.clip(low - margin, 0.0, 1.0) for low in (xlo, ylo))
        xhi, yhi = (np.clip(high + margin, 0.0, 1.0) for high in (xhi, yhi))
    level = assigner.levels(xlo, ylo, xhi, yhi)
    qx = quantize_array((xlo + xhi) / 2, curve.side, "center x")
    qy = quantize_array((ylo + yhi) / 2, curve.side, "center y")
    if depth:
        shift = curve.order - depth
        cell = type(curve)(order=depth).keys(qx >> shift, qy >> shift)
    else:
        cell = np.zeros(n, dtype=np.int64)
    return eid, xlo, ylo, xhi, yhi, level, cell


COLUMN_NAMES = ("eid", "xlo", "ylo", "xhi", "yhi", "level", "cell")


def _assert_columns_equal(col: ColumnarDataset, reference) -> None:
    for name, expected in zip(COLUMN_NAMES, reference):
        got = getattr(col, name)
        assert got.dtype == expected.dtype, name
        assert got.tolist() == expected.tolist(), name


class TestAgainstPerJoinColumnBuild:
    """``from_dataset`` over the data set's cached columns equals the
    per-join build it replaced, column for column — whatever margins the
    same data set object was joined under before."""

    @settings(max_examples=150, deadline=None)
    @given(
        dataset=datasets("A"),
        margins=st.lists(
            st.sampled_from([0.0, 1 / LATTICE, 0.013, 0.5, 2.0]), min_size=1, max_size=3
        ),
        depth=st.integers(0, 8),
    )
    def test_columns_equal_the_reference(self, dataset, margins, depth):
        for margin in margins:  # one object, several joins' worth of calls
            col = ColumnarDataset.from_dataset(dataset, margin=margin, depth=depth)
            _assert_columns_equal(col, reference_columns(dataset, margin, depth=depth))
        assert len(col) == len(dataset)

    def test_empty_dataset(self):
        empty = SpatialDataset("empty", [])
        for margin in (0.0, 0.25):
            col = ColumnarDataset.from_dataset(empty, margin=margin)
            _assert_columns_equal(col, reference_columns(empty, margin))

    def test_points_and_boxes_on_grid_lines(self):
        boxes = [Rect.point(0.5, 0.5), Rect.point(0.0, 1.0), Rect(0.25, 0.25, 0.5, 0.5)]
        boxes += [Rect(k / 8, 0.0, k / 8, 1.0) for k in range(9)]
        dataset = SpatialDataset(
            "lines", [Entity.from_geometry(eid, box) for eid, box in enumerate(boxes)]
        )
        for margin in (0.0, 1 / 8, 1 / 3):
            for curve in (HilbertCurve(), ZOrderCurve(order=12), GrayCurve(order=9)):
                col = ColumnarDataset.from_dataset(dataset, margin=margin, curve=curve)
                _assert_columns_equal(col, reference_columns(dataset, margin, curve))

    def test_margin_never_reaches_the_cache(self):
        # Intersects, then a distance predicate, on ONE data set object:
        # each equals the same join on fresh copies of the entities.
        a = road_segments(1500, seed=5, name="A")
        b = road_segments(1200, towns=7, seed=6, name="B")
        before = [column.copy() for column in a.columns()]
        for predicate in (Intersects(), WithinDistance(0.004), Intersects()):
            fresh_a = SpatialDataset("A", list(a))
            fresh_b = SpatialDataset("B", list(b))
            assert (
                memory_spatial_join(a, b, predicate=predicate).pairs
                == memory_spatial_join(fresh_a, fresh_b, predicate=predicate).pairs
            )
            assert (
                memory_spatial_join(a, a, predicate=predicate).pairs
                == memory_spatial_join(fresh_a, fresh_a, predicate=predicate).pairs
            )
        for column, kept in zip(a.columns(), before):
            assert column.tolist() == kept.tolist()


class TestCellColumn:
    """``cell`` is the top ``2*depth`` bits of the full-order key: the
    prefix property every curve promises, used here to compute only
    ``depth`` levels of it."""

    @pytest.mark.parametrize("curve_type", [HilbertCurve, ZOrderCurve, GrayCurve])
    def test_cell_is_the_full_key_prefix(self, curve_type):
        dataset = road_segments(400, seed=3)
        curve = curve_type(order=12)
        wide = ColumnarDataset.from_dataset(dataset, curve=curve, depth=12)
        qx = quantize_array((wide.xlo + wide.xhi) / 2, curve.side, "x")
        qy = quantize_array((wide.ylo + wide.yhi) / 2, curve.side, "y")
        assert wide.cell.tolist() == curve.keys(qx, qy).tolist()
        for depth in range(12):
            col = ColumnarDataset.from_dataset(dataset, curve=curve, depth=depth)
            assert col.depth == depth
            assert col.cell.tolist() == (wide.cell >> (2 * (12 - depth))).tolist()


# ---------------------------------------------------------------------------
# Structural guards.


class TestStructure:
    def test_kernel_calls_depend_on_cell_level_only(self, monkeypatch):
        calls = []
        kernel = fastpath_join.forward_sweep_pairs

        def counted(*keys):
            calls.append(len(keys[0]))
            return kernel(*keys)

        monkeypatch.setattr(fastpath_join, "forward_sweep_pairs", counted)
        a = road_segments(12_000, seed=1, name="A")
        b = road_segments(8_000, towns=9, seed=2, name="B")
        details = memory_spatial_join(a, b).metrics.details
        assert details["groups_a"] + details["groups_b"] > 100
        assert 0 < len(calls) <= 2 * (details["cell_level"] + 1)
        calls.clear()
        details = memory_spatial_join(a, a).metrics.details
        assert 0 < len(calls) <= details["cell_level"] + 1

    def test_second_join_reads_no_entity(self, monkeypatch):
        a = road_segments(3000, seed=1, name="A")
        b = road_segments(2000, towns=9, seed=2, name="B")
        first = memory_spatial_join(a, b)
        calls = []
        fromiter = np.fromiter

        def counted(*args, **kwargs):
            calls.append(args)
            return fromiter(*args, **kwargs)

        monkeypatch.setattr(np, "fromiter", counted)
        again = memory_spatial_join(a, b, predicate=WithinDistance(0.001))
        assert memory_spatial_join(a, b).pairs == first.pairs <= again.pairs
        memory_spatial_join(b, b)
        assert calls == []
        # ... and the guard can fire: a fresh data set builds its columns.
        memory_spatial_join(SpatialDataset("fresh", list(a)), b)
        assert len(calls) == 4

    def test_peak_memory_is_bounded_by_the_chunk(self):
        # Skinny horizontal slivers across the centre line: all level 0,
        # every ordered pair x-overlaps (1.2 M candidates), almost none
        # y-overlap — so what the join allocates is candidates, not
        # results.  Unchunked, one int64 column of them is 10 MB and
        # the kernel holds several at once.
        count = 1100
        slivers = SpatialDataset(
            "slivers",
            [
                Entity.from_geometry(
                    eid, Rect(0.4, (eid + 0.25) / count, 0.6, (eid + 0.5) / count)
                )
                for eid in range(count)
            ],
        )
        tracemalloc.start()
        try:
            result = memory_spatial_join(slivers, slivers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.metrics.details["candidates"] == count * count
        assert len(result.pairs) == 0
        chunk_column = CHUNK_CANDIDATES * 8  # one int64 index per candidate
        assert peak < 10 * chunk_column
