"""Tests for the Filter-Tree level machinery."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from benchmarks.costmodel import (
    level_fraction,
    level_fractions,
    lowest_level,
    probability_level_at_least,
)
from repro.filtertree.levels import LevelAssigner, quantize_array
from repro.geometry.rect import Rect

coords = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


class TestLevelAssigner:
    def test_center_cut_is_level_zero(self):
        assigner = LevelAssigner(order=16)
        assert assigner.level(Rect(0.4, 0.4, 0.6, 0.6)) == 0

    def test_cut_in_one_dimension_only(self):
        assigner = LevelAssigner(order=16)
        # Crosses x = 0.5 but not any y line above level 0.
        assert assigner.level(Rect(0.45, 0.1, 0.55, 0.2)) == 0

    def test_quadrant_resident_is_level_one_or_more(self):
        assigner = LevelAssigner(order=16)
        assert assigner.level(Rect(0.1, 0.1, 0.2, 0.2)) >= 1

    def test_point_hits_max_level(self):
        assigner = LevelAssigner(order=16, max_level=16)
        assert assigner.level(Rect.point(0.3, 0.7)) == 16

    def test_max_level_cap(self):
        assigner = LevelAssigner(order=16, max_level=4)
        assert assigner.level(Rect.point(0.3, 0.7)) == 4

    def test_level_definition(self):
        """level(e) is the largest l such that e fits inside one cell
        of the 2^l grid."""
        assigner = LevelAssigner(order=10, max_level=10)
        rect = Rect(0.26, 0.26, 0.37, 0.30)
        level = assigner.level(rect)
        for l in range(level + 1):
            side = 1 << l
            cx = int(rect.xlo * side)
            cy = int(rect.ylo * side)
            cell = Rect(cx / side, cy / side, (cx + 1) / side, (cy + 1) / side)
            assert cell.contains(rect), f"does not fit at level {l}"
        side = 1 << (level + 1)
        cx = int(rect.xlo * side)
        cy = int(rect.ylo * side)
        cell = Rect(cx / side, cy / side, (cx + 1) / side, (cy + 1) / side)
        assert not cell.contains(rect)

    @given(coords, coords, st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    def test_monotone_under_growth(self, x, y, w, h):
        assigner = LevelAssigner(order=12, max_level=12)
        rect = Rect(x * 0.5, y * 0.5, x * 0.5 + w * 0.5, y * 0.5 + h * 0.5)
        grown = rect.expanded(0.05).clamped()
        assert assigner.level(grown) <= assigner.level(rect)

    @given(coords, coords, coords, coords)
    def test_entity_fits_its_level_cell(self, x1, y1, x2, y2):
        """Both corners, quantized as ``level()`` does, shift to one
        level-``l`` cell: the Filter-Tree invariant the probe and the
        synchronized scan rely on.  Below the cap the next level splits
        them."""
        assigner = LevelAssigner(order=12, max_level=12)
        rect = Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        level = assigner.level(rect)
        shift = assigner.order - level
        def q(coord):
            return int(quantize_array([coord], assigner.side, "coord")[0])

        assert q(rect.xlo) >> shift == q(rect.xhi) >> shift
        assert q(rect.ylo) >> shift == q(rect.yhi) >> shift
        if level < assigner.max_level:
            assert (q(rect.xlo) >> shift - 1, q(rect.ylo) >> shift - 1) != (
                q(rect.xhi) >> shift - 1,
                q(rect.yhi) >> shift - 1,
            )

    def test_vectorized_matches_scalar(self):
        assigner = LevelAssigner(order=16, max_level=16)
        rng = np.random.default_rng(3)
        xlo = rng.random(200) * 0.9
        ylo = rng.random(200) * 0.9
        xhi = xlo + rng.random(200) * 0.1
        yhi = ylo + rng.random(200) * 0.1
        batch = assigner.levels(xlo, ylo, xhi, yhi)
        for i in range(200):
            rect = Rect(xlo[i], ylo[i], xhi[i], yhi[i])
            assert int(batch[i]) == assigner.level(rect)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            LevelAssigner(order=0)
        with pytest.raises(ValueError):
            LevelAssigner(order=8, max_level=9)


class TestOccupancy:
    def test_lowest_level_values(self):
        assert lowest_level(0.5) == 1
        assert lowest_level(0.1) == 3
        assert lowest_level(1.0) == 0

    def test_lowest_level_bounds(self):
        with pytest.raises(ValueError):
            lowest_level(0.0)
        with pytest.raises(ValueError):
            lowest_level(1.5)

    def test_f0_matches_paper(self):
        """Equation 2: f_0 = d(2 - d)."""
        for d in (0.01, 0.05, 0.2):
            assert level_fraction(0, d) == pytest.approx(d * (2 - d))

    def test_fractions_sum_to_one(self):
        for d in (0.003, 0.01, 0.07, 0.3):
            assert sum(level_fractions(d)) == pytest.approx(1.0)

    def test_fractions_nonnegative(self):
        for d in (0.001, 0.02, 0.4):
            assert all(f >= 0 for f in level_fractions(d))

    def test_beyond_lowest_level_is_zero(self):
        assert level_fraction(10, 0.1) == 0.0

    def test_max_level_folding(self):
        d = 0.001  # k(d) = 9
        folded = level_fractions(d, max_level=5)
        assert len(folded) == 6
        assert sum(folded) == pytest.approx(1.0)

    def test_matches_monte_carlo(self):
        """The closed form must match an empirical simulation of the
        level function on uniform squares.

        The paper's model places corners uniformly over [0, 1] rather
        than [0, 1-d], so the approximation is tight only while
        ``d * 2^i`` is small — we test in that regime.
        """
        d = 0.02
        assigner = LevelAssigner(order=16, max_level=16)
        rng = np.random.default_rng(11)
        n = 20000
        counts = [0] * (lowest_level(d) + 1)
        for _ in range(n):
            x = rng.random() * (1 - d)
            y = rng.random() * (1 - d)
            level = assigner.level(Rect(x, y, x + d, y + d))
            counts[min(level, len(counts) - 1)] += 1
        for i, fraction in enumerate(level_fractions(d)):
            assert counts[i] / n == pytest.approx(fraction, abs=0.02)

    def test_probability_monotone_in_level(self):
        d = 0.01
        probs = [probability_level_at_least(i, d) for i in range(8)]
        assert probs == sorted(probs, reverse=True)


class TestGrid:
    """The one cell rule, :func:`quantize_array`: a point's cell is its
    coordinates truncated to the grid, the top edge clamped, and the
    cells a box overlaps lie between the cells of its corners."""

    @staticmethod
    def cells_overlapping(rect, level):
        side = 1 << level
        cx_lo, cx_hi = quantize_array([rect.xlo, rect.xhi], side, "x").tolist()
        cy_lo, cy_hi = quantize_array([rect.ylo, rect.yhi], side, "y").tolist()
        return {
            (cx, cy) for cx in range(cx_lo, cx_hi + 1) for cy in range(cy_lo, cy_hi + 1)
        }

    def test_cell_of_point(self):
        assert quantize_array([0.0, 0.99, 1.0], 4, "x").tolist() == [0, 3, 3]  # clamped

    def test_cells_overlapping_single(self):
        assert self.cells_overlapping(Rect(0.1, 0.1, 0.2, 0.2), 2) == {(0, 0)}

    def test_cells_overlapping_straddle(self):
        cells = self.cells_overlapping(Rect(0.2, 0.2, 0.3, 0.3), 2)
        assert cells == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_cells_overlapping_whole_space(self):
        assert len(self.cells_overlapping(Rect(0, 0, 1, 1), 1)) == 4
