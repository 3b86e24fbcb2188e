"""Tests for the in-memory R-tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.rtree.rtree import RTree
from repro.storage.iostats import IOStats


def random_rects(rng, count, max_side=0.2):
    rects = []
    for _ in range(count):
        x = rng.uniform(0, 1)
        y = rng.uniform(0, 1)
        rects.append(
            Rect(x, y, min(1, x + rng.uniform(0, max_side)), min(1, y + rng.uniform(0, max_side)))
        )
    return rects


class TestConstruction:
    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert list(tree.search(Rect(0, 0, 1, 1))) == []

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            RTree(max_entries=2)

    def test_min_entries_validation(self):
        with pytest.raises(ValueError):
            RTree(max_entries=8, min_entries=5)

    def test_insert_and_count(self):
        tree = RTree(max_entries=4)
        for i in range(100):
            tree.insert(Rect(i / 200, i / 200, i / 200 + 0.01, i / 200 + 0.01), i)
        assert len(tree) == 100

    def test_height_grows(self):
        tree = RTree(max_entries=4)
        assert tree.height == 1
        rng = random.Random(1)
        for i, rect in enumerate(random_rects(rng, 100)):
            tree.insert(rect, i)
        assert tree.height >= 3


class TestSearch:
    def test_point_query(self):
        tree = RTree(max_entries=4)
        tree.insert(Rect(0.2, 0.2, 0.4, 0.4), "hit")
        tree.insert(Rect(0.6, 0.6, 0.8, 0.8), "miss")
        assert list(tree.search(Rect.point(0.3, 0.3))) == ["hit"]

    def test_search_matches_linear_scan(self):
        rng = random.Random(2)
        rects = random_rects(rng, 400)
        tree = RTree(max_entries=8)
        for i, rect in enumerate(rects):
            tree.insert(rect, i)
        for window in random_rects(rng, 25, max_side=0.4):
            expected = {i for i, r in enumerate(rects) if r.intersects(window)}
            assert set(tree.search(window)) == expected

    def test_charges_rtree_cpu(self):
        stats = IOStats()
        tree = RTree(max_entries=4, stats=stats)
        rng = random.Random(4)
        for i, rect in enumerate(random_rects(rng, 60)):
            tree.insert(rect, i)
        before = stats.total.cpu_ops.get("rtree", 0)
        list(tree.search(Rect(0, 0, 1, 1)))
        assert stats.total.cpu_ops["rtree"] > before


class TestInvariants:
    def test_invariants_after_inserts(self):
        tree = RTree(max_entries=5)
        rng = random.Random(5)
        for i, rect in enumerate(random_rects(rng, 300)):
            tree.insert(rect, i)
            if i % 50 == 0:
                tree.check_invariants()
        tree.check_invariants()

    def test_duplicate_rects_allowed(self):
        tree = RTree(max_entries=4)
        for i in range(50):
            tree.insert(Rect(0.5, 0.5, 0.6, 0.6), i)
        tree.check_invariants()
        assert len(set(tree.search(Rect(0.5, 0.5, 0.6, 0.6)))) == 50

    @given(st.integers(0, 2**32 - 1), st.integers(10, 150))
    @settings(max_examples=20, deadline=None)
    def test_property_search_correct(self, seed, count):
        rng = random.Random(seed)
        rects = random_rects(rng, count)
        tree = RTree(max_entries=4)
        for i, rect in enumerate(rects):
            tree.insert(rect, i)
        tree.check_invariants()
        window = random_rects(rng, 1, max_side=0.5)[0]
        expected = {i for i, r in enumerate(rects) if r.intersects(window)}
        assert set(tree.search(window)) == expected

