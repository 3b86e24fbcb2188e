"""Boundary semantics of ``Level()`` and the vectorized bit-length kernel.

The adversarial inputs here are grid-aligned, boundary-touching, and
degenerate (zero-area) MBRs — exactly where an off-by-one quantization
would show.  ``level()``'s exclusive quantization is the one cell rule
(a high corner on a grid line lands in the cell above it); every
property is cross-checked against a brute-force restatement of the
paper's definitions that shares no arithmetic with the implementation
under test, and the vectorized ``levels()`` against the scalar
``level()`` — also over the boxes ``repro verify`` joins.
"""

from __future__ import annotations

import bisect

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.filtertree.levels import LevelAssigner, _bit_lengths
from repro.geometry.rect import Rect
from repro.verify.oracle import descriptor_boxes
from repro.verify.workloads import generated_cases

ORDER = 10
assigner = LevelAssigner(order=ORDER, max_level=ORDER)

# Dyadic grid coordinates k / 2^g with g <= ORDER: exactly representable
# as binary floats, and every value lies on a filter line of some level.
grid_coords = st.integers(1, ORDER).flatmap(
    lambda g: st.integers(0, 1 << g).map(lambda k: k / (1 << g))
)
any_coords = st.one_of(
    grid_coords, st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
)


def rects(coords):
    return st.tuples(coords, coords, coords, coords).map(
        lambda c: Rect(
            min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3])
        )
    )


# The interior lines of the finest grid, k / 2^ORDER for 0 < k < 2^ORDER.
GRID_LINES = [k / (1 << ORDER) for k in range(1, 1 << ORDER)]


def cell(coord: float) -> int:
    """The finest-grid cell of a coordinate, counted rather than cast:
    the number of interior grid lines at or below it (so a coordinate
    on a line lands in the cell above it, and 1.0 in the last cell)."""
    return bisect.bisect_right(GRID_LINES, coord)


def brute_level(rect: Rect) -> int:
    """The paper's ``Level()`` restated as a search: the largest level
    whose (exclusively quantized) grid leaves both corners of each
    dimension in the same cell."""
    qx_lo, qx_hi = cell(rect.xlo), cell(rect.xhi)
    qy_lo, qy_hi = cell(rect.ylo), cell(rect.yhi)
    for level in range(assigner.max_level, -1, -1):
        shift = ORDER - level
        if qx_lo >> shift == qx_hi >> shift and qy_lo >> shift == qy_hi >> shift:
            return level
    return 0


class TestLevelBoundarySemantics:
    @given(rects(any_coords))
    def test_level_matches_brute_force(self, rect):
        assert assigner.level(rect) == brute_level(rect)

    @given(rects(grid_coords))
    def test_level_matches_brute_force_on_grid(self, rect):
        assert assigner.level(rect) == brute_level(rect)

    @given(grid_coords, grid_coords)
    def test_degenerate_point_hits_max_level(self, x, y):
        assert assigner.level(Rect.point(x, y)) == assigner.max_level

    def test_boundary_touching_hi_corner_stays_coarse(self):
        """``level()`` keeps *exclusive* hi-corner quantization: an MBR
        whose high edge lies exactly on a filter line is assigned the
        coarser level."""
        assert assigner.level(Rect(0.25, 0.0, 0.5, 0.25)) == 0
        assert assigner.level(Rect(0.0, 0.25, 0.25, 0.5)) == 0

    @given(rects(any_coords))
    def test_vectorized_levels_match_scalar(self, rect):
        batch = assigner.levels(
            np.array([rect.xlo]),
            np.array([rect.ylo]),
            np.array([rect.xhi]),
            np.array([rect.yhi]),
        )
        assert int(batch[0]) == assigner.level(rect)

    @pytest.mark.parametrize("name", ["uniform", "grid-aligned", "mixed-self", "degenerate-self"])
    def test_vectorized_levels_match_scalar_on_verify_workloads(self, name):
        """At order 16, over the filter-step boxes ``repro verify``
        joins: grid-aligned, degenerate and mixed-size."""
        deep = LevelAssigner(order=16, max_level=16)
        case = {case.name: case for case in generated_cases(0)}[name]
        datasets = (case.dataset_a,) if case.self_join else (case.dataset_a, case.dataset_b)
        for dataset in datasets:
            _, boxes = descriptor_boxes(dataset, case.margin)
            scalar = [deep.level(Rect(*box)) for box in boxes.tolist()]
            assert deep.levels(*boxes.T).tolist() == scalar


class TestBitLengths:
    @given(st.lists(st.integers(0, 2**63 - 1), max_size=50))
    def test_matches_int_bit_length(self, values):
        result = _bit_lengths(np.array(values, dtype=np.int64))
        assert result.dtype == np.int64
        assert result.tolist() == [value.bit_length() for value in values]

    def test_powers_of_two_boundaries(self):
        values = [0, 1]
        for exp in range(1, 63):
            values.extend([(1 << exp) - 1, 1 << exp, (1 << exp) + 1])
        result = _bit_lengths(np.array(values, dtype=np.int64))
        assert result.tolist() == [value.bit_length() for value in values]

    def test_int64_max(self):
        assert _bit_lengths(np.array([2**63 - 1])).tolist() == [63]

    def test_empty_array(self):
        assert _bit_lengths(np.array([], dtype=np.int64)).shape == (0,)

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            _bit_lengths(np.array([3, -1]))

    def test_preserves_input(self):
        values = np.array([5, 1024, 0], dtype=np.int64)
        _bit_lengths(values)
        assert values.tolist() == [5, 1024, 0]

    def test_2d_shape(self):
        grid = np.array([[0, 1], [255, 256]], dtype=np.int64)
        assert _bit_lengths(grid).tolist() == [[0, 1], [8, 9]]
