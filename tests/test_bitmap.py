"""Tests for Dynamic Spatial Bitmaps (section 3.2)."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.bitmap import DynamicSpatialBitmap
from repro.curves.hilbert import HilbertCurve
from repro.filtertree.levels import LevelAssigner
from repro.geometry.rect import Rect
from repro.obs.metrics import MetricsRegistry
from repro.storage.iostats import IOStats

CURVE = HilbertCurve(order=10)
ASSIGNER = LevelAssigner(order=10, max_level=10)


def project(*rects):
    """One partition block's DSB arguments for ``rects``: the corner
    columns, the curve keys and the Filter-Tree levels."""
    return (
        np.array([r.xlo for r in rects]),
        np.array([r.ylo for r in rects]),
        np.array([r.xhi for r in rects]),
        np.array([r.yhi for r in rects]),
        [CURVE.key_of_normalized(*r.center) for r in rects],
        [ASSIGNER.level(r) for r in rects],
    )


def set_bits(bitmap):
    return {bit for bit in range(bitmap.num_bits) if bitmap._bits[bit >> 3] >> (bit & 7) & 1}


def random_rects(rng, count, max_side=0.3):
    rects = []
    for _ in range(count):
        x = rng.uniform(0, 1)
        y = rng.uniform(0, 1)
        side = rng.uniform(0, max_side)
        rects.append(Rect(x, y, min(1, x + side), min(1, y + side)))
    return rects


class TestConstruction:
    def test_sizes(self):
        bitmap = DynamicSpatialBitmap(8, CURVE)
        assert bitmap.num_bits == 4**8

    def test_pages_matches_paper(self):
        """Section 3.2's example: with pages of 2^12 bits, level 7 ->
        4 pages and level 8 -> 16 pages (2^(2l - p))."""
        page_bytes = (1 << 12) // 8
        assert DynamicSpatialBitmap(7, HilbertCurve(order=16)).pages(page_bytes) == 4
        assert DynamicSpatialBitmap(8, HilbertCurve(order=16)).pages(page_bytes) == 16

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            DynamicSpatialBitmap(14, CURVE)
        with pytest.raises(ValueError):
            DynamicSpatialBitmap(-1, CURVE)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            DynamicSpatialBitmap(4, CURVE, mode="approximate")

    def test_population_starts_empty(self):
        assert DynamicSpatialBitmap(6, CURVE).population() == 0


class TestSetAndProbe:
    @pytest.mark.parametrize("mode", ["precise", "fast"])
    def test_set_then_probe_same_entity(self, mode):
        bitmap = DynamicSpatialBitmap(5, CURVE, mode=mode)
        block = project(Rect(0.3, 0.3, 0.32, 0.32))
        bitmap.set_batch(*block)
        assert bitmap.admits_batch(*block) == [True]

    @pytest.mark.parametrize("mode", ["precise", "fast"])
    def test_far_entity_filtered(self, mode):
        bitmap = DynamicSpatialBitmap(5, CURVE, mode=mode)
        bitmap.set_batch(*project(Rect(0.1, 0.1, 0.12, 0.12)))
        assert bitmap.admits_batch(*project(Rect(0.8, 0.8, 0.82, 0.82))) == [False]
        assert bitmap.filtered_count == 1

    def test_entity_above_bitmap_level_sets_region(self):
        """A level-1 entity on a level-4 bitmap covers many cells."""
        bitmap = DynamicSpatialBitmap(4, CURVE, mode="fast")
        block = project(Rect(0.6, 0.6, 0.9, 0.9))  # inside quadrant (1,1)
        assert block[-1] == [1]
        bitmap.set_batch(*block)
        assert bitmap.population() == 4 ** (4 - 1)

    def test_precise_mode_sets_fewer_bits_than_fast(self):
        block = project(Rect(0.6, 0.6, 0.65, 0.65))
        fast = DynamicSpatialBitmap(6, CURVE, mode="fast")
        precise = DynamicSpatialBitmap(6, CURVE, mode="precise")
        fast.set_batch(*block)
        precise.set_batch(*block)
        assert precise.population() <= fast.population()

    def test_counters(self):
        bitmap = DynamicSpatialBitmap(5, CURVE)
        block = project(Rect(0.2, 0.2, 0.25, 0.25))
        bitmap.set_batch(*block)
        bitmap.admits_batch(*block)
        assert bitmap.set_operations == 1
        assert bitmap.probe_operations == 1

    def test_charges_cpu(self):
        stats = IOStats()
        bitmap = DynamicSpatialBitmap(5, CURVE, stats=stats)
        bitmap.set_batch(*project(Rect(0.2, 0.2, 0.25, 0.25)))
        assert stats.total.cpu_ops.get("bitmap", 0) > 0


class TestPreciseCells:
    """Precise mode projects a coarse row (bigger than a bitmap cell)
    onto exactly the level-``l`` cells whose closed extent meets its
    MBR, each set by the cell's key on a level-``l`` curve."""

    @staticmethod
    def expected_bits(rect, level):
        side = 1 << level
        cell_curve = HilbertCurve(order=level)
        return {
            cell_curve.key(cx, cy)
            for cx in range(side)
            for cy in range(side)
            if Rect(cx / side, cy / side, (cx + 1) / side, (cy + 1) / side).intersects(rect)
        }

    def test_overlap_consistency(self):
        rect = Rect(0.15, 0.35, 0.45, 0.6)
        bitmap = DynamicSpatialBitmap(3, CURVE, mode="precise")
        bitmap.set_batch(*project(rect))
        assert set_bits(bitmap) == self.expected_bits(rect, 3)

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_set_bits_are_the_cells_meeting_the_mbr(self, x0, y0, x1, y1, level):
        rect = Rect(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
        side = 1 << level
        # A low corner exactly on a grid line lands in the cell above
        # it, so the cell below, which only touches the MBR, is not set.
        assume(all((v * side) % 1 for v in (rect.xlo, rect.ylo, rect.xhi, rect.yhi)))
        assume(ASSIGNER.level(rect) < level)
        bitmap = DynamicSpatialBitmap(level, CURVE, mode="precise")
        bitmap.set_batch(*project(rect))
        assert set_bits(bitmap) == self.expected_bits(rect, level)


class TestBlockLedger:
    """One block of 120 rows populated and one probed: the set bits,
    the ``bitmap`` CPU ops and the ``dsb.*`` counters, recorded before
    the per-row projection was replaced by a per-block one."""

    @pytest.mark.parametrize(
        "mode, expected",
        [
            (
                "precise",
                ("9a335fe8b19a", 408, 19, 101, 2442,
                 {"set_ops": 120, "probes": 120, "admits": 19, "rejects": 101}),
            ),
            (
                "fast",
                ("21aa4780d6b7", 1024, 35, 85, 240,
                 {"set_ops": 120, "probes": 120, "admits": 35, "rejects": 85}),
            ),
        ],
    )
    def test_block_ledger_pinned(self, mode, expected):
        rects = random_rects(random.Random(42), 240, max_side=0.08)
        # The populated rows stay in the upper-left quadrant: none is
        # level 0, whose fast projection is the whole bitmap.
        quadrant = [
            Rect(r.xlo * 0.45, 0.52 + r.ylo * 0.45, r.xhi * 0.45, 0.52 + r.yhi * 0.45)
            for r in rects[:120]
        ]
        stats, registry = IOStats(), MetricsRegistry()
        bitmap = DynamicSpatialBitmap(6, CURVE, mode=mode, stats=stats, metrics=registry)
        bitmap.set_batch(*project(*quadrant))
        answers = bitmap.admits_batch(*project(*rects[120:]))
        observed = (
            hashlib.sha1(bytes(bitmap._bits)).hexdigest()[:12],
            bitmap.population(),
            sum(answers),
            bitmap.filtered_count,
            stats.total.cpu_ops["bitmap"],
            {
                name: registry.counter_value(f"dsb.{name}")
                for name in ("set_ops", "probes", "admits", "rejects")
            },
        )
        assert observed == expected


class TestNoFalseNegatives:
    """The core DSB safety property: if an A entity and a B entity have
    intersecting MBRs, B must be admitted after A was set — in every
    mode combination and at every bitmap level."""

    @pytest.mark.parametrize("mode", ["precise", "fast"])
    @pytest.mark.parametrize("bitmap_level", [2, 4, 6])
    def test_random_workload(self, mode, bitmap_level):
        rng = random.Random(bitmap_level * 7 + len(mode))
        bitmap = DynamicSpatialBitmap(bitmap_level, CURVE, mode=mode)
        set_a = random_rects(rng, 120)
        bitmap.set_batch(*project(*set_a))
        probe = random_rects(rng, 200)
        for rect, admitted in zip(probe, bitmap.admits_batch(*project(*probe))):
            if any(rect.intersects(other) for other in set_a):
                assert admitted, rect

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_no_false_negatives(self, seed):
        rng = random.Random(seed)
        mode = rng.choice(["precise", "fast"])
        bitmap = DynamicSpatialBitmap(rng.choice([3, 5]), CURVE, mode=mode)
        set_a = random_rects(rng, 40)
        bitmap.set_batch(*project(*set_a))
        probe = random_rects(rng, 40)
        for rect, admitted in zip(probe, bitmap.admits_batch(*project(*probe))):
            if any(rect.intersects(other) for other in set_a):
                assert admitted


class TestFilteringEffectiveness:
    def test_filters_disjoint_region(self):
        """Entities confined to the left half must reject right-half
        probes (the selective-join scenario of section 5.2.2)."""
        rng = random.Random(42)
        bitmap = DynamicSpatialBitmap(6, CURVE, mode="precise")
        left = []
        for _ in range(200):
            x = rng.uniform(0.0, 0.4)
            y = rng.uniform(0.0, 1.0)
            left.append(Rect(x, y, min(1, x + 0.02), min(1, y + 0.02)))
        bitmap.set_batch(*project(*left))
        right = []
        for _ in range(200):
            x = rng.uniform(0.6, 0.95)
            y = rng.uniform(0.0, 0.95)
            right.append(Rect(x, y, x + 0.02, y + 0.02))
        assert bitmap.admits_batch(*project(*right)).count(False) > 150


def _naive_set(bits, lo, hi):
    for bit in range(lo, hi):
        bits[bit >> 3] |= 1 << (bit & 7)


class TestByteWiseRanges:
    """`_set_range` / `_any_in_range` fill and scan whole bytes; they
    must agree with the bit-at-a-time definition on every alignment."""

    @given(st.integers(0, 1024), st.integers(0, 1024))
    @settings(max_examples=300)
    def test_set_range_matches_naive(self, a, b):
        lo, hi = min(a, b), max(a, b)
        bitmap = DynamicSpatialBitmap(5, CURVE)  # 1024 bits
        expected = bytearray(len(bitmap._bits))
        _naive_set(expected, lo, hi)
        bitmap._set_range(lo, hi)
        assert bitmap._bits == expected

    @given(
        st.integers(0, 1024),
        st.integers(0, 1024),
        st.lists(st.integers(0, 1023), max_size=8),
    )
    @settings(max_examples=300)
    def test_any_in_range_matches_naive(self, a, b, set_bits):
        lo, hi = min(a, b), max(a, b)
        bitmap = DynamicSpatialBitmap(5, CURVE)
        for bit in set_bits:
            bitmap._set_range(bit, bit + 1)
        expected = any(lo <= bit < hi for bit in set_bits)
        assert bitmap._any_in_range(lo, hi) is expected

    def test_fast_mode_huge_range_is_cheap(self):
        """Regression: a level-0 entity projected in fast mode onto a
        level-13 bitmap covers all 2^26 bits.  Setting them must be a
        few byte-slice operations, not 67 million Python loop turns."""
        import time

        curve = HilbertCurve(order=16)
        bitmap = DynamicSpatialBitmap(13, curve, mode="fast")
        start = time.perf_counter()
        bitmap.set_batch([0.0], [0.0], [1.0], [1.0], [0], [0])
        assert bitmap.admits_batch([0.3], [0.3], [0.9], [0.9], [0], [0]) == [True]
        elapsed = time.perf_counter() - start
        assert bitmap.population() == bitmap.num_bits
        # The bit-at-a-time version needs tens of seconds here; the
        # byte-wise one is well under a second even on slow CI.
        assert elapsed < 2.0

    def test_probe_empty_huge_range_is_cheap(self):
        import time

        curve = HilbertCurve(order=16)
        bitmap = DynamicSpatialBitmap(13, curve, mode="fast")
        bitmap._set_range(bitmap.num_bits - 1, bitmap.num_bits)
        start = time.perf_counter()
        assert bitmap._any_in_range(0, bitmap.num_bits)
        assert not bitmap._any_in_range(0, bitmap.num_bits - 1)
        assert time.perf_counter() - start < 2.0
