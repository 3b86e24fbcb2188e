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

Also here: the structural guards that keep the rewrite's two
properties — a Python trip count that depends on the cell level only,
and peak memory that does not depend on the candidate count.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fastpath.join as fastpath_join
from repro.curves import GrayCurve, HilbertCurve, ZOrderCurve
from repro.datagen import road_segments
from repro.fastpath import ColumnarDataset, memory_spatial_join
from repro.fastpath.sweep import CHUNK_CANDIDATES
from repro.filtertree.levels import quantize_array
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.dataset import SpatialDataset
from repro.join.predicates import Intersects, WithinDistance
from repro.join.result import canonical_pairs

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
    raw: list[tuple[int, int]] = []
    candidates = 0
    for key_a, key_b in _nested_bucket_pairs(buckets_a, buckets_b, self_join):
        ra, rb = buckets_a[key_a][:, None], buckets_b[key_b][None, :]
        x_overlap = (col_a.xlo[ra] <= col_b.xhi[rb]) & (col_b.xlo[rb] <= col_a.xhi[ra])
        candidates += int(x_overlap.sum())
        hit = x_overlap & (col_a.ylo[ra] <= col_b.yhi[rb]) & (col_b.ylo[rb] <= col_a.yhi[ra])
        ia, ib = np.nonzero(hit)
        raw.extend(
            zip(col_a.eid[ra[ia, 0]].tolist(), col_b.eid[rb[0, ib]].tolist())
        )
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
    assert result.pairs == pairs
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
