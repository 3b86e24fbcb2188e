"""Tests for the space-filling curves.

The properties tested here are exactly what S3J relies on:
bijectivity, the prefix/nesting property, and (for Hilbert) unit-step
adjacency.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import GrayCurve, HilbertCurve, SpaceFillingCurve, ZOrderCurve, curve_by_name
from repro.curves.gray import gray_decode, gray_encode
from repro.curves.zorder import deinterleave_bits, interleave_bits

ALL_CURVES = [HilbertCurve, ZOrderCurve, GrayCurve]


@pytest.fixture(params=ALL_CURVES, ids=lambda cls: cls.name)
def curve(request):
    return request.param(order=5)


class TestInterface:
    def test_curve_by_name(self):
        assert isinstance(curve_by_name("hilbert"), HilbertCurve)
        assert isinstance(curve_by_name("zorder"), ZOrderCurve)
        assert isinstance(curve_by_name("z-order"), ZOrderCurve)
        assert isinstance(curve_by_name("Gray"), GrayCurve)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            curve_by_name("peano")

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            HilbertCurve(order=0)
        with pytest.raises(ValueError):
            HilbertCurve(order=32)

    def test_out_of_grid_raises(self, curve):
        with pytest.raises(ValueError):
            curve.key(curve.side, 0)
        with pytest.raises(ValueError):
            curve.point(curve.max_key + 1)


class TestBijection:
    def test_full_bijection_small_order(self, curve):
        keys = {
            curve.key(x, y) for x in range(curve.side) for y in range(curve.side)
        }
        assert keys == set(range(curve.side * curve.side))

    def test_roundtrip_all_cells(self, curve):
        for x in range(curve.side):
            for y in range(curve.side):
                assert curve.point(curve.key(x, y)) == (x, y)


class TestPrefixProperty:
    def test_cells_are_contiguous_ranges(self, curve):
        """Every level-l cell must map to one contiguous key range, and
        ``cell_key`` keys the cell by its first key's top ``2l`` bits."""
        order = curve.order
        for level in range(order + 1):
            shift = order - level
            seen: dict[tuple[int, int], list[int]] = {}
            for x in range(curve.side):
                for y in range(curve.side):
                    seen.setdefault((x >> shift, y >> shift), []).append(
                        curve.key(x, y)
                    )
            cell_size = 1 << (2 * shift)
            for (cx, cy), keys in seen.items():
                keys.sort()
                assert keys[-1] - keys[0] == cell_size - 1
                assert keys[0] % cell_size == 0
                assert curve.cell_key(cx, cy, level) == keys[0] >> 2 * shift


class TestHilbertSpecifics:
    def test_order1_canonical_shape(self):
        c = HilbertCurve(order=1)
        assert [c.point(k) for k in range(4)] == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_adjacency(self):
        """Consecutive Hilbert keys are 4-neighbour grid cells."""
        c = HilbertCurve(order=6)
        px, py = c.point(0)
        for key in range(1, c.side * c.side):
            x, y = c.point(key)
            assert abs(x - px) + abs(y - py) == 1, f"jump at key {key}"
            px, py = x, y

    def test_cross_order_prefix_consistency(self):
        """The level-l key of a cell equals the full-precision key of an
        interior point truncated to 2l bits (used by DSB)."""
        fine = HilbertCurve(order=8)
        coarse = HilbertCurve(order=3)
        shift = 2 * (8 - 3)
        for x in range(0, fine.side, 7):
            for y in range(0, fine.side, 7):
                assert fine.key(x, y) >> shift == coarse.key(x >> 5, y >> 5)

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    @settings(max_examples=200)
    def test_scalar_roundtrip_full_precision(self, x, y):
        c = HilbertCurve(order=16)
        assert c.point(c.key(x, y)) == (x, y)


def bit_loop_key(order: int, x: int, y: int) -> int:
    """The classic quadrant rotate-and-recurse Hilbert mapping, one bit
    of ``x`` and ``y`` per step: what ``HilbertCurve.key`` ran until the
    4-bit state table took over, kept as its reference."""
    d = 0
    s = 1 << order >> 1
    while s > 0:
        rx = 1 if x & s else 0
        ry = 1 if y & s else 0
        d += s * s * ((3 * rx) ^ ry)
        # Keep only the bits below s, then rotate the quadrant so the
        # recursion always sees the canonical sub-curve orientation.
        x &= s - 1
        y &= s - 1
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


class TestHilbertTable:
    @pytest.mark.parametrize("order", range(1, 6))
    def test_every_cell_of_small_orders(self, order):
        curve = HilbertCurve(order=order)
        cells = [(x, y) for x in range(curve.side) for y in range(curve.side)]
        expected = [bit_loop_key(order, x, y) for x, y in cells]
        assert [curve.key(x, y) for x, y in cells] == expected
        xs, ys = (np.array(column) for column in zip(*cells))
        batch = curve.keys(xs, ys)
        assert batch.dtype == np.int64 and batch.tolist() == expected
        assert [curve.point(key) for key in expected] == cells

    @pytest.mark.parametrize("order", [16, 31, 13, 30])  # pad 0, 1, 3, 2 bits
    def test_random_cells_of_large_orders(self, order):
        curve = HilbertCurve(order=order)
        rng = np.random.default_rng(order)
        xs = rng.integers(0, curve.side, size=2000)
        ys = rng.integers(0, curve.side, size=2000)
        expected = [bit_loop_key(order, x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        assert curve.keys(xs, ys).tolist() == expected
        for x, y, key in zip(xs[:200].tolist(), ys[:200].tolist(), expected):
            assert curve.key(x, y) == key and curve.point(key) == (x, y)

    @pytest.mark.parametrize("order", [16, 31])
    def test_a_coarser_curve_is_the_top_bits(self, order):
        fine = HilbertCurve(order=order)
        rng = np.random.default_rng(3)
        xs = rng.integers(0, fine.side, size=300)
        ys = rng.integers(0, fine.side, size=300)
        keys = fine.keys(xs, ys)
        for k in range(1, order):
            coarse = type(fine)(order=k)
            down = order - k
            assert (coarse.keys(xs >> down, ys >> down) == keys >> 2 * down).all()
            assert coarse.key(int(xs[0]) >> down, int(ys[0]) >> down) == int(keys[0]) >> 2 * down

    def test_empty_input(self):
        empty = HilbertCurve().keys(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert empty.dtype == np.int64 and empty.shape == (0,)


class TestVectorized:
    @pytest.mark.parametrize("cls", ALL_CURVES, ids=lambda c: c.name)
    def test_keys_matches_scalar(self, cls):
        curve = cls(order=16)
        rng = np.random.default_rng(7)
        xs = rng.integers(0, curve.side, size=300)
        ys = rng.integers(0, curve.side, size=300)
        batch = curve.keys(xs, ys)
        for x, y, key in zip(xs, ys, batch):
            assert curve.key(int(x), int(y)) == int(key)

    def test_keys_shape_mismatch_raises(self):
        c = HilbertCurve(order=4)
        with pytest.raises(ValueError):
            c.keys(np.array([1, 2]), np.array([1]))


class TestBitHelpers:
    @given(st.integers(0, 2**20 - 1))
    def test_gray_roundtrip(self, value):
        assert gray_decode(gray_encode(value)) == value

    @given(st.integers(0, 2**20 - 1))
    def test_gray_adjacent_codes_differ_one_bit(self, value):
        diff = gray_encode(value) ^ gray_encode(value + 1)
        assert diff.bit_count() == 1

    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
    def test_interleave_roundtrip(self, x, y):
        assert deinterleave_bits(interleave_bits(x, y, 12), 12) == (x, y)

    def test_interleave_bit_positions(self):
        # x supplies the high bit of each 2-bit digit.
        assert interleave_bits(1, 0, 1) == 2
        assert interleave_bits(0, 1, 1) == 1


class TestKeyOfNormalized:
    def test_center_key_matches_quantized(self, curve):
        def cell(v):
            return min(int(v * curve.side), curve.side - 1)

        for x, y in ((0.3, 0.7), (0.0, 1.0), (1.0, 0.5)):
            assert curve.key_of_normalized(x, y) == curve.key(cell(x), cell(y))

    def test_subclass_contract(self):
        assert issubclass(HilbertCurve, SpaceFillingCurve)
        assert issubclass(ZOrderCurve, SpaceFillingCurve)
        assert issubclass(GrayCurve, SpaceFillingCurve)


class TestKeyDtypeConsistency:
    """Vectorized keys are int64 — the signed dtype matching the scalar
    Python ints.  A uint64 result would silently promote to float64 the
    moment it mixed with signed arithmetic, corrupting keys above 2^53.
    """

    @pytest.mark.parametrize("cls", ALL_CURVES, ids=lambda c: c.name)
    def test_keys_are_int64(self, cls):
        curve = cls(order=16)
        keys = curve.keys(np.array([0, 5, 100]), np.array([3, 7, 200]))
        assert keys.dtype == np.int64

    @pytest.mark.parametrize("cls", ALL_CURVES, ids=lambda c: c.name)
    def test_mixing_with_signed_stays_integral(self, cls):
        curve = cls(order=16)
        keys = curve.keys(np.array([1, 2, 3]), np.array([4, 5, 6]))
        mixed = keys - np.int64(1)  # uint64 here would yield float64
        assert np.issubdtype(mixed.dtype, np.integer)

    @pytest.mark.parametrize("cls", ALL_CURVES, ids=lambda c: c.name)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_scalar_vector_agree_at_max_order(self, cls, data):
        """Property cross-check at order 31, where keys approach 2^62:
        any float64 round-trip would be off by thousands."""
        curve = cls(order=31)
        n = data.draw(st.integers(1, 8))
        xs = [data.draw(st.integers(0, curve.side - 1)) for _ in range(n)]
        ys = [data.draw(st.integers(0, curve.side - 1)) for _ in range(n)]
        batch = curve.keys(np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64))
        assert batch.dtype == np.int64
        for x, y, key in zip(xs, ys, batch):
            scalar = curve.key(x, y)
            assert int(key) == scalar
            assert 0 <= scalar <= curve.max_key
