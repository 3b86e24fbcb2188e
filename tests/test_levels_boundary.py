"""Boundary semantics of ``Level()``/``cell_of`` and the vectorized
bit-length kernel.

The adversarial inputs here are grid-aligned, boundary-touching, and
degenerate (zero-area) MBRs — exactly where closed-interval semantics
(`cells are closed; boundary contact counts`) diverge from the naive
exclusive quantization.  Every property is cross-checked against a
brute-force restatement of the paper's definitions that shares no
arithmetic with the implementation under test.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.filtertree.levels import LevelAssigner, _bit_lengths
from repro.geometry.rect import Rect

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


def brute_level(rect: Rect) -> int:
    """The paper's ``Level()`` restated as a search: the largest level
    whose (exclusively quantized) grid leaves both corners of each
    dimension in the same cell."""
    qx_lo, qx_hi = assigner.quantize(rect.xlo), assigner.quantize(rect.xhi)
    qy_lo, qy_hi = assigner.quantize(rect.ylo), assigner.quantize(rect.yhi)
    for level in range(assigner.max_level, -1, -1):
        shift = ORDER - level
        if qx_lo >> shift == qx_hi >> shift and qy_lo >> shift == qy_hi >> shift:
            return level
    return 0


def closed_cell_fit(rect: Rect, level: int) -> tuple[int, int] | None:
    """The level-``level`` closed grid cell geometrically containing the
    rect, or None if no single cell does."""
    cells = 1 << level
    width = 1.0 / cells
    cx = min(int(rect.xlo * cells), cells - 1)
    cy = min(int(rect.ylo * cells), cells - 1)
    if rect.xhi <= (cx + 1) * width and rect.yhi <= (cy + 1) * width:
        return (cx, cy)
    return None


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
        coarser level.  It must not inherit cell_of's closed-cell
        semantics."""
        assert assigner.level(Rect(0.25, 0.0, 0.5, 0.25)) == 0
        assert assigner.level(Rect(0.0, 0.25, 0.25, 0.5)) == 0

    @given(rects(grid_coords))
    def test_vectorized_levels_match_scalar(self, rect):
        batch = assigner.levels(
            np.array([rect.xlo]),
            np.array([rect.ylo]),
            np.array([rect.xhi]),
            np.array([rect.yhi]),
        )
        assert int(batch[0]) == assigner.level(rect)


class TestCellOfClosedSemantics:
    @given(rects(any_coords))
    def test_own_level_never_raises(self, rect):
        level = assigner.level(rect)
        cx, cy = assigner.cell_of(rect, level)
        side = assigner.cell_side(level)
        assert cx * side <= rect.xlo and cy * side <= rect.ylo

    @given(rects(grid_coords), st.integers(0, ORDER))
    def test_matches_geometric_closed_fit(self, rect, level):
        """``cell_of`` succeeds exactly when the rect fits one *closed*
        cell, and returns that cell."""
        fit = closed_cell_fit(rect, level)
        if fit is None:
            with pytest.raises(ValueError):
                assigner.cell_of(rect, level)
        else:
            assert assigner.cell_of(rect, level) == fit

    def test_hi_corner_on_grid_line_fits_cell_below(self):
        """The bug this PR fixes: xhi exactly on a grid line used to
        quantize into the next cell, making cell_of reject an MBR that
        fits its closed cell."""
        rect = Rect(0.25, 0.25, 0.5, 0.5)  # hi corner on the 2^1 line
        assert assigner.cell_of(rect, 1) == (0, 0)
        assert assigner.cell_of(rect, 2) == (1, 1)

    @given(grid_coords, grid_coords, st.integers(0, ORDER))
    def test_point_on_grid_lines_never_raises(self, x, y, level):
        """A degenerate point always fits one closed cell at every
        level, even when it sits on a grid corner shared by four."""
        point = Rect.point(x, y)
        cx, cy = assigner.cell_of(point, level)
        side = assigner.cell_side(level)
        assert cx * side <= x <= (cx + 1) * side
        assert cy * side <= y <= (cy + 1) * side

    @given(grid_coords, grid_coords, grid_coords, st.integers(0, ORDER))
    def test_degenerate_segment_on_grid_line(self, x, y1, y2, level):
        """Zero-width vertical segments lying on a grid line fit the
        closed cell left of the line whenever their extent allows."""
        ylo, yhi = min(y1, y2), max(y1, y2)
        rect = Rect(x, ylo, x, yhi)
        fit = closed_cell_fit(rect, level)
        if fit is not None:
            assert assigner.cell_of(rect, level) == fit

    def test_straddling_rect_still_raises(self):
        with pytest.raises(ValueError, match="spans multiple"):
            assigner.cell_of(Rect(0.24, 0.0, 0.26, 0.1), 2)


class TestQuantizeHi:
    def test_endpoints(self):
        assert assigner.quantize_hi(0.0) == 0
        assert assigner.quantize_hi(1.0) == assigner.side - 1

    @given(st.integers(1, (1 << ORDER)))
    def test_grid_line_belongs_to_cell_below(self, k):
        assert assigner.quantize_hi(k / assigner.side) == k - 1

    @given(st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False))
    def test_off_grid_matches_quantize(self, coord):
        scaled = coord * assigner.side
        if scaled != int(scaled):
            assert assigner.quantize_hi(coord) == assigner.quantize(coord)

    @given(st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False))
    def test_at_most_one_below_quantize(self, coord):
        low, high = assigner.quantize_hi(coord), assigner.quantize(coord)
        assert low in (high, high - 1) or high == assigner.side - 1

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            assigner.quantize_hi(-0.01)
        with pytest.raises(ValueError):
            assigner.quantize_hi(1.01)


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
