"""Tests for the synchronized scan (S3J's join phase)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sync_scan import synchronized_scan
from repro.curves.hilbert import HilbertCurve
from repro.filtertree.levels import LevelAssigner
from repro.geometry.rect import Rect
from repro.storage.manager import StorageConfig, StorageManager
from repro.storage.records import PAIR

ORDER = 10
CURVE = HilbertCurve(order=ORDER)
ASSIGNER = LevelAssigner(order=ORDER, max_level=ORDER)


def build_level_files(storage, tag, rects, start_eid=0):
    """Partition + sort rects into Hilbert-ordered level files."""
    by_level = {}
    for i, rect in enumerate(rects):
        level = ASSIGNER.level(rect)
        key = CURVE.key_of_normalized(*rect.center)
        by_level.setdefault(level, []).append(
            (start_eid + i, rect.xlo, rect.ylo, rect.xhi, rect.yhi, key)
        )
    files = {}
    for level, records in by_level.items():
        records.sort(key=lambda r: r[5])
        handle = storage.create_file(f"{tag}-L{level}")
        handle.extend(records)
        files[level] = handle
    storage.phase_boundary()
    return files


def random_rects(rng, count, max_side=0.25):
    rects = []
    for _ in range(count):
        x = rng.uniform(0, 1)
        y = rng.uniform(0, 1)
        side = rng.uniform(0, max_side)
        rects.append(Rect(x, y, min(1, x + side), min(1, y + side)))
    return rects


def brute(rects_a, rects_b):
    return {
        (i, 1000 + j)
        for i, a in enumerate(rects_a)
        for j, b in enumerate(rects_b)
        if a.intersects(b)
    }


def collect(seen):
    """A pair sink: the scan hands it one arriving page's pairs at a
    time, a ``PAIR`` array of ``(eid from A, eid from B)``, never an
    empty one."""
    def on_pairs(found):
        assert found.dtype == PAIR and len(found)
        seen.extend(found.tolist())
    return on_pairs


def run_scan(storage, files_a, files_b):
    seen = []
    synchronized_scan(files_a, files_b, ORDER, collect(seen), stats=storage.stats)
    return set(seen)


class TestCorrectness:
    def test_empty_inputs(self, storage):
        assert run_scan(storage, {}, {}) == set()

    def test_one_sided_input(self, storage):
        files_a = build_level_files(storage, "A", [Rect(0.1, 0.1, 0.2, 0.2)])
        assert run_scan(storage, files_a, {}) == set()

    def test_same_cell_pair_found(self, storage):
        rect = Rect(0.1, 0.1, 0.12, 0.12)
        files_a = build_level_files(storage, "A", [rect])
        files_b = build_level_files(storage, "B", [rect], start_eid=1000)
        assert run_scan(storage, files_a, files_b) == {(0, 1000)}

    def test_cross_level_pair_found(self, storage):
        big = Rect(0.05, 0.05, 0.6, 0.6)     # level 0 (crosses center)
        small = Rect(0.3, 0.3, 0.31, 0.31)   # deep level, nested inside
        files_a = build_level_files(storage, "A", [big])
        files_b = build_level_files(storage, "B", [small], start_eid=1000)
        assert run_scan(storage, files_a, files_b) == {(0, 1000)}

    def test_disjoint_cells_no_pair(self, storage):
        a = Rect(0.1, 0.1, 0.12, 0.12)
        b = Rect(0.9, 0.9, 0.92, 0.92)
        files_a = build_level_files(storage, "A", [a])
        files_b = build_level_files(storage, "B", [b], start_eid=1000)
        assert run_scan(storage, files_a, files_b) == set()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_matches_brute_force(self, seed):
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            rng = random.Random(seed)
            rects_a = random_rects(rng, 250)
            rects_b = random_rects(rng, 250)
            files_a = build_level_files(storage, "A", rects_a)
            files_b = build_level_files(storage, "B", rects_b, start_eid=1000)
            assert run_scan(storage, files_a, files_b) == brute(rects_a, rects_b)

    def test_no_duplicate_pairs(self):
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            rng = random.Random(5)
            rects_a = random_rects(rng, 200)
            rects_b = random_rects(rng, 200)
            files_a = build_level_files(storage, "A", rects_a)
            files_b = build_level_files(storage, "B", rects_b, start_eid=1000)
            seen = []
            synchronized_scan(files_a, files_b, ORDER, collect(seen))
            assert len(seen) == len(set(seen))

    def test_orientation(self):
        """The sink always receives A's entity ids first, whichever
        side's page arrived."""
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            rng = random.Random(6)
            rects_a = random_rects(rng, 80)
            rects_b = random_rects(rng, 80)
            files_a = build_level_files(storage, "A", rects_a)
            files_b = build_level_files(storage, "B", rects_b, start_eid=1000)
            pairs = run_scan(storage, files_a, files_b)
            assert all(a < 1000 <= b for a, b in pairs)


class TestReadOnceInvariant:
    def test_each_page_read_exactly_once(self):
        """The property the algorithm is designed around (section 3.1):
        the join phase reads every level-file page exactly once."""
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            rng = random.Random(7)
            files_a = build_level_files(storage, "A", random_rects(rng, 800))
            files_b = build_level_files(
                storage, "B", random_rects(rng, 800), start_eid=5000
            )
            total_pages = sum(
                f.num_pages for f in list(files_a.values()) + list(files_b.values())
            )
            storage.stats.reset()
            with storage.stats.phase("join"):
                synchronized_scan(files_a, files_b, ORDER, collect([]))
            phase = storage.stats.phases["join"]
            assert phase.page_reads == total_pages
            assert phase.buffer_hits == 0


# -- property-based oracle ----------------------------------------------
#
# Rect coordinates are multiples of 1/16, so MBR edges land *exactly* on
# Filter-Tree grid lines at levels <= 4 — the boundary-touch cases where
# quantization decides which cell (and which level) an entity gets.
# Degenerate (zero-width) rects and heavy duplication are both allowed:
# duplicated rects share a center, hence a Hilbert key, producing level
# files with whole pages of equal keys.

GRID = 16

rect_on_grid = st.tuples(
    st.integers(0, GRID - 1), st.integers(0, GRID - 1),
    st.integers(0, GRID), st.integers(0, GRID),
).map(
    lambda t: Rect(
        t[0] / GRID,
        t[1] / GRID,
        (t[0] + min(t[2], GRID - t[0])) / GRID,
        (t[1] + min(t[3], GRID - t[1])) / GRID,
    )
)

# (rect, copies): copies > 1 stacks identical Hilbert keys.
rect_lists = st.lists(
    st.tuples(rect_on_grid, st.integers(1, 12)), max_size=15
).map(lambda items: [rect for rect, copies in items for _ in range(copies)])


class TestOracle:
    @given(rects_a=rect_lists, rects_b=rect_lists)
    @settings(max_examples=60, deadline=None)
    def test_scan_matches_brute_force(self, rects_a, rects_b):
        """Oracle: the scan equals the nested-loop join on mixed-level
        data with boundary-touching MBRs and duplicated Hilbert keys."""
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            files_a = build_level_files(storage, "A", rects_a)
            files_b = build_level_files(storage, "B", rects_b, start_eid=1000)
            assert run_scan(storage, files_a, files_b) == brute(rects_a, rects_b)

    @given(
        rects_a=rect_lists,
        rects_b=rect_lists,
        pivot=st.sampled_from([0.25, 0.5]),
    )
    @settings(max_examples=25, deadline=None)
    def test_scan_matches_brute_force_around_pivot(self, rects_a, rects_b, pivot):
        """Same oracle with every rect snapped to touch one grid line
        (maximal boundary-touch density around the level-1/2 pivots)."""
        def snap(rects):
            return [
                Rect(min(r.xlo, pivot), r.ylo, max(r.xhi, pivot), r.yhi)
                for r in rects
            ]

        rects_a, rects_b = snap(rects_a), snap(rects_b)
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            files_a = build_level_files(storage, "A", rects_a)
            files_b = build_level_files(storage, "B", rects_b, start_eid=1000)
            assert run_scan(storage, files_a, files_b) == brute(rects_a, rects_b)
