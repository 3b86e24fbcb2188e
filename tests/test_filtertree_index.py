"""The complete Filter Tree [SK96]: :class:`PersistentIndex`'s level
files and its window queries."""

import itertools
import random

from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.dataset import SpatialDataset
from repro.service import PersistentIndex
from repro.storage.manager import StorageConfig
from repro.storage.records import HKEY

from tests.conftest import make_squares

POOL = StorageConfig(buffer_pages=32)


def index_of(entities) -> PersistentIndex:
    return PersistentIndex(entities, storage=POOL)


class TestBuild:
    def test_size(self):
        dataset = make_squares(400, 0.03, seed=1, name="D")
        with index_of(dataset.entities) as index:
            assert len(index) == len(dataset)

    def test_level_files_sorted_by_hilbert(self):
        dataset = make_squares(400, 0.03, seed=1, name="D")
        with index_of(dataset.entities) as index:
            for handle in index._base.values():
                keys = [r[HKEY] for r in handle.scan()]
                assert keys == sorted(keys)

    def test_mixed_sizes_spread_over_levels(self):
        big = make_squares(30, 0.3, seed=4)
        small = make_squares(300, 0.005, seed=5)
        entities = [
            Entity(i, e.mbr, e.geometry) for i, e in enumerate(itertools.chain(big, small))
        ]
        with index_of(entities) as index:
            assert len(index._base) >= 3


class TestWindowQuery:
    def test_matches_linear_scan(self):
        dataset = make_squares(400, 0.03, seed=1, name="D")
        rng = random.Random(6)
        with index_of(dataset.entities) as index:
            for _ in range(25):
                x, y = rng.uniform(0, 0.7), rng.uniform(0, 0.7)
                window = Rect(x, y, x + rng.uniform(0.05, 0.3), y + rng.uniform(0.05, 0.3))
                expected = tuple(sorted(e.eid for e in dataset if e.mbr.intersects(window)))
                assert index.window_query(window) == expected

    def test_empty_window(self):
        # A dataset confined to the left half; query the right half.
        rng = random.Random(7)
        entities = []
        for i in range(200):
            x = rng.uniform(0.0, 0.35)
            y = rng.uniform(0.0, 0.9)
            entities.append(Entity.from_geometry(i, Rect(x, y, x + 0.02, y + 0.02)))
        with index_of(entities) as index:
            assert index.window_query(Rect(0.6, 0.0, 0.9, 0.9)) == ()

    def test_window_query_reads_fewer_pages_than_scan(self):
        dataset = make_squares(3000, 0.01, seed=8)
        with index_of(dataset.entities) as index:
            total_pages = sum(f.num_pages for f in index._base.values())
            index.storage.phase_boundary()  # a cold pool
            index.window_query(Rect(0.4, 0.4, 0.45, 0.45))
            assert index.query_page_reads < total_pages / 2

    def test_big_entities_found_from_high_levels(self):
        dataset = SpatialDataset(
            "one-big",
            [Entity.from_geometry(0, Rect(0.05, 0.05, 0.95, 0.95))],
        )
        with index_of(dataset.entities) as index:
            assert index.window_query(Rect(0.9, 0.9, 0.92, 0.92)) == (0,)
