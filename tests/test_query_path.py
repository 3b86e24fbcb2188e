"""The index-pruned point/window access path (repro.filtertree.ranges).

Three kinds of check: differential (random interleavings of mutations,
compactions and reopens against a brute-force scan of a model live
set — the linear scan survives only here, as the oracle — seeded and
as a hypothesis property, with the reach invariant checked from its
integer definition after every step), the machine-independent pruning
gate (ledger page reads, warm pool, the key directory, records examined
per hit), and the query-side input validation / observability of the
service.
"""

import asyncio
import hashlib
import json
import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.curves.base import curve_by_name
from repro.curves.hilbert import HilbertCurve
from repro.datagen.uniform import uniform_squares_by_coverage
from repro.filtertree.ranges import KeyDirectory, box_key_ranges
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.dataset import SpatialDataset
from repro.obs import Observability
from repro.service import JoinService, PersistentIndex, ServiceServer
from repro.storage.manager import StorageConfig
from repro.storage.records import HKEY, EntityDescriptorCodec


def brute(model: dict[int, Rect], window: Rect) -> tuple[int, ...]:
    return tuple(sorted(eid for eid, box in model.items() if box.intersects(window)))


def coordinate(rng: random.Random) -> float:
    """Half of all coordinates sit exactly on a grid line ``k / 2**l``
    (1.0 included), where the closed-interval rules bite."""
    if rng.random() < 0.5:
        level = rng.choice([rng.randint(0, 6), rng.randint(0, 16)])
        return rng.randint(0, 1 << level) / (1 << level)
    return rng.random()


def random_box(rng: random.Random, max_side: float) -> Rect:
    if rng.random() < 0.02:  # nearly the whole space, in a level of small boxes
        return Rect(rng.random() / 50, rng.random() / 50, 0.99, 1.0 - rng.random() / 50)
    x, y = coordinate(rng), coordinate(rng)
    width, height = (
        rng.choice([0.0, 1 / 64, 1 / 8, rng.random() * max_side]) for _ in "wh"
    )
    return Rect(x, y, min(1.0, x + width), min(1.0, y + height))


def touching(box: Rect, at_corner: bool) -> Rect:
    """A window meeting ``box`` at one corner, or along one edge, only."""
    if at_corner:
        return Rect(box.xhi, box.yhi, min(1.0, box.xhi + 0.1), min(1.0, box.yhi + 0.1))
    return Rect(max(0.0, box.xlo - 0.1), box.ylo, box.xlo, box.yhi)


def random_window(rng: random.Random, model: dict[int, Rect]) -> Rect:
    kind = rng.random()
    if kind < 0.1:
        return Rect(0.0, 0.0, 1.0, 1.0)
    if kind < 0.2:  # partly outside the square
        return Rect(rng.random() - 0.5, rng.random() - 0.5, 1.2, 1.3)
    if kind < 0.3:  # wholly outside
        return rng.choice([Rect(1.1, 0.2, 1.5, 0.4), Rect(-1.0, -1.0, -0.1, 2.0)])
    if kind < 0.5:  # zero area
        return Rect.point(coordinate(rng), coordinate(rng))
    if kind < 0.7 and model:  # touches an entity at an edge or a corner only
        return touching(model[rng.choice(sorted(model))], rng.random() < 0.5)
    return random_box(rng, 0.6)


def assert_reach_covers_every_record(index: PersistentIndex, proven: set | None = None) -> None:
    """The invariant the centre boxes rest on, from its definition:
    dead base records count too (tombstones leave them in the file).

    The check of one record is a pure function of (curve, level, reach,
    record); ``proven`` holds the (level, reach, record) triples a
    caller has already checked under this index's curve, and skips them.
    """
    side = index.curve.side

    def q(v: float) -> int:  # the cell rule of key_of_normalized
        return min(int(v * side), side - 1)

    for level in index.levels():
        reach = rx, ry = index._directory.reach[level]
        handle = index._base.get(level)
        base = index._raw_scan(handle).tolist() if handle is not None else []
        for record in base + index._delta.get(level, []):
            if proven is not None and (level, reach, record) in proven:
                continue
            _, xlo, ylo, xhi, yhi, key = record
            cx, cy = Rect(xlo, ylo, xhi, yhi).center
            assert index.curve.key(q(cx), q(cy)) == key
            assert q(cx) - q(xlo) <= rx and q(xhi) - q(cx) <= rx
            assert q(cy) - q(ylo) <= ry and q(yhi) - q(cy) <= ry
            if proven is not None:
                proven.add((level, reach, record))


def tight_reach(index: PersistentIndex) -> dict:
    """What the reach is when taken from the live records alone."""
    fresh = KeyDirectory(index.curve, index.assigner.max_level)
    for level, entity in index._live.values():
        fresh.grow(level, EntityDescriptorCodec().page([(entity.eid, *entity.mbr.as_tuple(), 0)]))
    return fresh.reach


def replay(curve_name: str, base: list[Rect], ops, data_dir=None) -> int:
    """Run a schedule against a brute-force model; returns how many
    queries were checked.  An op is ``("insert", box)``, ``("revive",
    pick, box)`` (a deleted eid comes back, in whatever level its new
    size puts it), ``("delete", pick)``, ``("compact",)``, ``("reopen",
    fold_first)``, ``("window", rect)`` or ``("touch", pick, at_corner)``;
    a pick is taken modulo what there is to pick from."""

    def open_index(entities=()):
        return PersistentIndex(
            entities,
            storage=StorageConfig(buffer_pages=8),
            curve=curve_by_name(curve_name),
            compaction_threshold=10**9,
            data_dir=data_dir,
        )

    model = dict(enumerate(base))
    index = open_index([Entity(eid, box) for eid, box in model.items()])
    next_eid, graveyard, checked = len(model), [], 0
    proven: set = set()  # one curve per replay, so one memo too
    try:
        for op, *args in ops:
            if op == "insert" or (op == "revive" and not graveyard):
                eid, next_eid = next_eid, next_eid + 1
                model[eid] = args[-1]
                index.insert(Entity(eid, model[eid]))
            elif op == "revive":
                eid = graveyard.pop(args[0] % len(graveyard))
                model[eid] = args[1]
                index.insert(Entity(eid, model[eid]))
            elif op == "delete" and model:
                eid = sorted(model)[args[0] % len(model)]
                del model[eid]
                graveyard.append(eid)
                index.delete(eid)
            elif op == "compact":
                index.compact()
            elif op == "reopen" and data_dir is not None:
                folded = args[0] and (index.compact() or True)
                index.close()
                index = open_index()
                # Deletes leave the reach high; a reopen reads it off
                # the files, so after a fold it is tight again.  A fold
                # empties the journal whenever it holds a mutation, even
                # an insert deleted out of the delta, so nothing replays.
                tight = index._directory.reach == tight_reach(index)
                assert not folded or (tight and not index.notes_replayed)
            elif op == "window" or (op == "touch" and model):
                window = args[0] if op == "window" else touching(
                    model[sorted(model)[args[0] % len(model)]], args[1]
                )
                assert index.window_query(window) == brute(model, window), window
                checked += 1
            assert_reach_covers_every_record(index, proven)
            assert index.delta_records >= sum(
                map(len, [*index._delta.values(), *index._tombstones.values()])
            )
    finally:
        index.close()
    return checked


def run_interleaving(seed: int, curve_name: str, steps: int, data_dir=None) -> int:
    """Replay one seeded schedule over 150 small boxes."""
    rng = random.Random(seed)
    base = [random_box(rng, 0.1) for _ in range(150)]
    loaded = dict(enumerate(base))

    def schedule():
        for _ in range(steps):
            roll = rng.random()
            if roll < 0.25:  # half the inserts revive a deleted eid
                op = rng.choice(["insert", "revive"])
                yield op, rng.randrange(10**6), random_box(rng, rng.choice([0.001, 0.1, 0.7]))
            elif roll < 0.45:
                yield "delete", rng.randrange(10**6)
            elif roll < 0.5:
                yield ("compact",)
            elif roll < 0.53:
                yield "reopen", rng.random() < 0.5
            else:
                yield "window", random_window(rng, loaded)
                yield "touch", rng.randrange(10**6), rng.random() < 0.5
                yield "window", Rect.point(coordinate(rng), coordinate(rng))

    return replay(curve_name, base, schedule(), data_dir)


# The same schedule space for hypothesis: coordinates on the grid lines
# of every level, zero-area and nearly-space-sized boxes, windows that
# are degenerate, on grid lines, or partly / wholly outside the square.
picks = st.integers(0, 10**6)
grid_lines = st.integers(0, 16).flatmap(
    lambda level: st.integers(0, 1 << level).map(lambda k: k / (1 << level))
)
inside = grid_lines | st.floats(0.0, 1.0)
sides = st.sampled_from([0.0, 0.0, 2**-16, 1 / 64, 0.009]) | st.floats(0.0, 0.3)
boxes = st.builds(
    lambda x, y, w, h: Rect(x, y, min(1.0, x + w), min(1.0, y + h)), inside, inside, sides, sides
) | st.just(Rect(0.004, 0.002, 0.99, 0.997))
anywhere = inside | st.floats(-0.5, 1.5)
windows = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h), anywhere, anywhere, sides, sides
) | st.sampled_from([Rect(1.1, 0.2, 1.5, 0.4), Rect(-1.0, -1.0, -0.1, 2.0), Rect(-3, -3, 3, 3)])
schedules = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), boxes),
        st.tuples(st.just("revive"), picks, boxes),
        st.tuples(st.just("delete"), picks),
        st.just(("compact",)),
        st.tuples(st.just("reopen"), st.booleans()),
        st.tuples(st.just("window"), windows),
        st.tuples(st.just("touch"), picks, st.booleans()),
    ),
    max_size=30,
)


class TestDifferential:
    @pytest.mark.parametrize("seed", range(4))
    def test_hilbert_interleavings_match_brute_force(self, seed):
        assert run_interleaving(seed, "hilbert", steps=1200) > 800

    @pytest.mark.parametrize("curve_name", ["zorder", "gray"])
    def test_helper_needs_only_the_prefix_property(self, curve_name):
        assert run_interleaving(7, curve_name, steps=500) > 300

    def test_durable_close_and_reopen(self, tmp_path):
        assert run_interleaving(11, "hilbert", steps=150, data_dir=str(tmp_path)) > 50

    @settings(max_examples=60, deadline=None)
    @given(
        curve_name=st.sampled_from(["hilbert", "zorder", "gray"]),
        base=st.lists(boxes, max_size=25),
        ops=schedules,
    )
    @example(  # nothing to fold, two notes replayed: the reach may stay high
        curve_name="hilbert",
        base=[],
        ops=[("insert", Rect(0.0, 0.0, 0.0, 0.0)), ("delete", 0), ("reopen", True)],
    )
    @example(  # nothing pending, empty journal: reopened off the folded files
        curve_name="hilbert",
        base=[Rect(0.0, 0.0, 0.5, 0.5), Rect(0.1, 0.1, 0.1, 0.1)],
        ops=[("delete", 0), ("compact",), ("reopen", True)],
    )
    def test_any_schedule_on_any_curve_matches_brute_force(self, curve_name, base, ops):
        with tempfile.TemporaryDirectory() as data_dir:
            replay(curve_name, base, ops, data_dir)

    def test_edge_and_corner_contact_on_grid_lines(self):
        boxes = {
            1: Rect(0.25, 0.25, 0.5, 0.5),  # xhi/yhi on the level-1 centre lines
            2: Rect(0.5, 0.5, 0.75, 0.75),  # touches 1 at the corner (0.5, 0.5)
            3: Rect(0.75, 0.0, 1.0, 0.25),  # xhi == 1.0
            4: Rect(0.5, 0.5, 0.5, 0.5),  # a point on the centre
        }
        with PersistentIndex(Entity(e, b) for e, b in boxes.items()) as index:
            assert index.point_query(0.5, 0.5) == (1, 2, 4)
            assert index.window_query(Rect(0.5, 0.0, 0.5, 0.25)) == (1,)  # corner
            assert index.window_query(Rect(0.5, 0.0, 0.5, 0.2)) == ()
            assert index.window_query(Rect(0.5, 0.0, 0.75, 0.25)) == (1, 3)
            assert index.window_query(Rect(1.0, 0.25, 1.0, 0.25)) == (3,)
            assert index.window_query(Rect(0.0, 0.0, 0.25, 0.25)) == (1,)
            assert index.window_query(Rect(-3.0, -3.0, 3.0, 3.0)) == (1, 2, 3, 4)
            assert index.window_query(Rect(1.0, 1.0, 2.0, 2.0)) == ()
            assert index.window_query(Rect(1.5, 0.0, 2.0, 1.0)) == ()


class CountingCurve(HilbertCurve):
    """Counts the keys a cover takes: ``cell_key``, the only curve
    method a window query calls."""

    def __init__(self) -> None:
        super().__init__()
        self.key_calls = 0

    def cell_key(self, x: int, y: int, depth: int) -> int:
        self.key_calls += 1
        return super().cell_key(x, y, depth)


def reference_cover(curve, xlo: int, ylo: int, xhi: int, yhi: int) -> list:
    """The <= 2x2-cell cover of a grid box from its definition: the
    finest depth where the box spans at most two cells a side, each
    cell's range taken off a full-order ``curve.key`` of its corner."""
    down = min(
        d for d in range(curve.order + 1)
        if (xhi >> d) - (xlo >> d) <= 1 and (yhi >> d) - (ylo >> d) <= 1
    )
    width = 1 << 2 * down
    starts = sorted(
        {
            curve.key(cx << down, cy << down) & -width
            for cx in {xlo >> down, xhi >> down}
            for cy in {ylo >> down, yhi >> down}
        }
    )
    merged = []
    for lo in starts:
        if merged and merged[-1][1] == lo:
            merged[-1] = (merged[-1][0], lo + width)
        else:
            merged.append((lo, lo + width))
    return merged


def grid_coordinate(order: int):
    """Any grid unit, or the first or last unit of a cell of any depth
    (a coordinate on a grid line)."""
    anywhere = st.integers(0, (1 << order) - 1)
    on_a_line = st.integers(0, order).flatmap(
        lambda depth: st.builds(
            lambda cell, last: (cell << order - depth) + last * ((1 << order - depth) - 1),
            st.integers(0, (1 << depth) - 1),
            st.booleans(),
        )
    )
    return anywhere | on_a_line


@st.composite
def grid_boxes(draw):
    """A curve of any name and order and a closed grid box on it:
    degenerate (one or both sides zero), the whole square, or spanned
    by coordinates on grid lines."""
    curve = curve_by_name(
        draw(st.sampled_from(["hilbert", "zorder", "gray"])),
        draw(st.just(16) | st.integers(1, 31)),
    )
    if draw(st.integers(0, 9)) == 0:
        return curve, (0, 0, curve.side - 1, curve.side - 1)
    xs = sorted(draw(st.lists(grid_coordinate(curve.order), min_size=1, max_size=2)))
    ys = sorted(draw(st.lists(grid_coordinate(curve.order), min_size=1, max_size=2)))
    return curve, (xs[0], ys[0], xs[-1], ys[-1])


def mixed_sweep(rng: random.Random) -> tuple[SpatialDataset, dict, list[Rect]]:
    """800 entities, 600 of them points, and 80 windows over them: a
    0.5-wide one, then a :func:`random_window`, forty times."""
    points = [Rect.point(coordinate(rng), coordinate(rng)) for _ in range(600)]
    boxes = points + [random_box(rng, 0.2) for _ in range(200)]
    dataset = SpatialDataset(
        "mixed", [Entity.from_geometry(eid, box) for eid, box in enumerate(boxes)]
    )
    model = dict(enumerate(boxes))
    windows = []
    for _ in range(40):
        x, y = rng.random() * 0.5, rng.random() * 0.5
        windows += [Rect(x, y, x + 0.5, y + 0.5), random_window(rng, model)]
    return dataset, model, windows


class TestWindowProbe:
    @settings(max_examples=400, deadline=None)
    @given(grid_boxes())
    def test_depth_keyed_cover_equals_the_full_order_keys(self, curve_and_box):
        curve, box = curve_and_box
        assert box_key_ranges(curve, *box) == reference_cover(curve, *box)

    def test_large_window_over_point_data_costs_four_keys(self):
        """Four ``curve.cell_key`` calls per *distinct centre box*
        however large the window, so at most four per level (it was
        four per query while every level shared the window's own
        cells)."""
        dataset, model, windows = mixed_sweep(random.Random(5))
        curve = CountingCurve()
        with PersistentIndex(dataset.entities, curve=curve) as index:
            assert 16 in index._base  # the points: level == curve order
            keys = 0
            for window in windows:
                curve.key_calls = 0
                assert index.window_query(window) == brute(model, window)
                assert curve.key_calls <= 4 * len(index._base)
                keys += curve.key_calls
            assert keys >= 40  # each 0.5-wide window takes one at least
            # All 600 points share one level, one reach, one box: four keys.
            curve.key_calls = 0
            points_only = {16: index._base[16]}
            index._directory.key_ranges(Rect(0.1, 0.1, 0.9, 0.9), points_only)
            assert 1 <= curve.key_calls <= 4

    @pytest.mark.parametrize(
        "name, tests, reads, hits",
        [
            ("hilbert", 37298, 783, 46),
            ("zorder", 37298, 778, 49),
            ("gray", 37298, 781, 46),
        ],
    )
    def test_window_sweep_io_is_pinned(self, name, tests, reads, hits):
        """A seeded sweep's MBR tests, page reads, pool hits and answers
        repeat exactly: the probe reads the pages and examines the
        records it always did.  Answers are sorted, so their digest is
        the same on every curve."""
        dataset, model, windows = mixed_sweep(random.Random(5))
        config = StorageConfig(buffer_pages=4)
        with PersistentIndex(dataset.entities, storage=config, curve=curve_by_name(name)) as index:
            ledger = index.storage.stats.total
            reads_before, hits_before = ledger.page_reads, ledger.buffer_hits
            answers = [index.window_query(window) for window in windows]
            assert index.query_records_examined == tests
            assert ledger.page_reads - reads_before == reads
            assert ledger.buffer_hits - hits_before == hits
        assert answers == [brute(model, window) for window in windows]
        assert sum(map(len, answers)) == 10050
        assert hashlib.sha256(repr(answers).encode()).hexdigest()[:16] == "8801468bf072ab04"

    def test_ranges_nest_across_levels(self):
        curve = HilbertCurve()
        directory = KeyDirectory(curve, max_level=curve.order)
        window = Rect(0.3, 0.3, 0.35, 0.35)
        levels = range(curve.order + 1)

        def ranges_with_reach(reach):
            directory.reach = dict.fromkeys(levels, (reach, reach))
            return dict(directory.key_ranges(window, levels))

        # A reach as large as the space leaves the level's own cells:
        # a huge entity never widens a level past the cells the window meets.
        by_cells = ranges_with_reach(curve.side)
        assert by_cells[0] == [(0, 4**curve.order)]
        for reach in (0, 300, curve.side):
            ranges = ranges_with_reach(reach)
            for level in levels:
                spans = ranges[level]
                assert spans == sorted(spans) and len(spans) <= 4
                # With one reach everywhere every deeper range lies inside
                # one range of its parent level, and inside the cells' ranges.
                for outer in (ranges[max(level - 1, 0)], by_cells[level]):
                    assert all(
                        any(lo <= a and b <= hi for lo, hi in outer) for a, b in spans
                    )
        # Levels 0-5 have cells far wider than window + reach: one box, one cover.
        tight = ranges_with_reach(300)
        assert all(tight[level] is tight[0] for level in range(6))
        assert sum(hi - lo for lo, hi in tight[0]) < 4**curve.order / 50
        assert directory.key_ranges(Rect(1.5, 0.0, 2.0, 1.0), [0, 5]) == []
        with pytest.raises(ValueError, match="do not fit"):
            KeyDirectory(HilbertCurve(order=31), max_level=16)


def read_shape_index(**kwargs) -> PersistentIndex:
    """The ``service_read`` benchmark shape: 5 000 squares at coverage
    0.4 behind a 32-page pool (about half the index's pages)."""
    entities = uniform_squares_by_coverage(5000, 0.4, seed=1).entities
    return PersistentIndex(entities, storage=StorageConfig(buffer_pages=32), **kwargs)


def assert_directories_match_files(index: PersistentIndex) -> None:
    """The directory is the level-tagged key of every base record, in
    file order, and knows where each level starts."""
    directory = index._directory
    assert list(directory.starts) == sorted(index._base)
    expected = []
    for level, handle in sorted(index._base.items()):
        assert directory.starts[level] == len(expected)
        keys = [record[HKEY] for record in index._raw_scan(handle)]
        assert keys == sorted(keys)
        expected += [(level << 2 * index.curve.order) + key for key in keys]
    assert directory.keys.tolist() == expected
    assert_reach_covers_every_record(index)


class TestPruningGate:
    def test_page_reads_are_pruned_and_the_pool_stays_warm(self):
        rng = random.Random(3)
        windows, points = [], []
        for _ in range(200):
            x, y = rng.random() * 0.95, rng.random() * 0.95
            windows.append(Rect(x, y, x + 0.05, y + 0.05))
            points.append((rng.random(), rng.random()))
        with read_shape_index() as index:
            pages = sum(handle.num_pages for handle in index._base.values())
            ledger = index.storage.stats

            def reads(run) -> int:
                before = ledger.total.page_reads
                run()
                return ledger.total.page_reads - before

            index.storage.phase_boundary()
            cold_windows = reads(lambda: [index.window_query(w) for w in windows])
            assert cold_windows / len(windows) <= pages / 3
            assert reads(lambda: [index.window_query(w) for w in windows]) < cold_windows
            index.storage.phase_boundary()
            cold_points = reads(lambda: [index.point_query(*p) for p in points])
            assert cold_points / len(points) <= pages / 4
            assert reads(lambda: [index.point_query(*p) for p in points]) < cold_points
            assert ledger.phases["query"].buffer_hits > 0

    def test_only_pages_that_hold_a_candidate_are_fetched(self):
        """ROADMAP 6(a)'s gate on the ``service_read`` request shape —
        counts, so they repeat exactly: records examined per id returned
        < 5 (22 while levels 0-3 were scanned cell-wide) and pool
        fetches per query <= 6 (10.4 with first-key page directories)."""

        def counts() -> tuple[int, int, int, int]:
            rng = random.Random(3)
            with read_shape_index() as index:
                for _ in range(300):
                    x, y = rng.random() * 0.95, rng.random() * 0.95
                    index.window_query(Rect(x, y, x + 0.05, y + 0.05))
                    index.point_query(rng.random(), rng.random())
                return (
                    index.queries,
                    index.query_hits,
                    index.query_records_examined,
                    index.query_page_fetches,
                )

        queries, hits, examined, fetches = counts()
        assert queries == 600 and hits > 1000
        assert examined / hits < 5
        assert fetches / queries <= 6
        assert counts() == (queries, hits, examined, fetches)
        # Exact: a probe that reads other pages or examines other
        # records moves them.
        assert (queries, hits, examined, fetches) == (600, 5339, 19131, 2581)

    def test_reach_stays_high_after_a_delete_until_a_reopen(self, tmp_path):
        small = [Entity(eid, Rect(0.49, eid / 64, 0.51, eid / 64 + 0.01)) for eid in range(32)]
        huge = Entity(99, Rect(0.01, 0.02, 0.99, 0.97))  # level 0 too: it crosses x = 0.5
        far = Rect(0.9, 0.3, 0.9, 0.31)  # meets the huge box only
        index = PersistentIndex(small, data_dir=str(tmp_path), compaction_threshold=10**9)
        try:
            tight = index._directory.reach[0]
            assert tight == (657, 329)  # half of 0.02 x 0.01 in grid units, + 2
            assert index.window_query(far) == () and index.query_records_examined == 0
            index.insert(huge)
            assert index._directory.reach[0] == (32114, 31131)
            assert index.window_query(far) == (99,)
            assert index.query_records_examined == 33  # all of level 0 by now
            assert index.compact()
            index.delete(99)
            assert index.compact()  # a fold rewrites the keys, never the reach
            assert index._directory.reach[0] == (32114, 31131)
            # Stale-high is safe, and no worse than the level's own cells.
            assert index.window_query(far) == ()
            assert index.query_records_examined == 33 + 32
        finally:
            index.close()
        with PersistentIndex.open(str(tmp_path)) as index:
            assert index._directory.reach == {0: tight}
            assert index.window_query(far) == () and index.query_records_examined == 0

    def test_directory_tracks_every_rewrite(self, tmp_path):
        entities = uniform_squares_by_coverage(600, 0.4, seed=2).entities
        index = PersistentIndex(
            entities, data_dir=str(tmp_path), compaction_threshold=10**9
        )
        try:
            assert_directories_match_files(index)
            # A compaction that rewrites levels: new records and tombstones.
            for eid in range(100):
                index.delete(eid)
            for eid in range(1000, 1100):
                index.insert(Entity(eid, Rect(eid / 2000, 0.3, eid / 2000 + 0.01, 0.31)))
            assert index.compact()
            assert_directories_match_files(index)
            # ...and one that empties a level outright.
            level = min(index._base, key=lambda lv: index._base[lv].num_records)
            for record in list(index._raw_scan(index._base[level])):
                index.delete(record[0])
            assert index.compact()
            assert level not in index._base and level not in index._directory.reach
            assert_directories_match_files(index)
            live = {e.eid: e.mbr for e in index.live_entities()}
        finally:
            index.close()
        with PersistentIndex.open(str(tmp_path)) as reopened:
            assert_directories_match_files(reopened)
            window = Rect(0.4, 0.2, 0.6, 0.4)
            assert reopened.window_query(window) == brute(live, window)


class TestQueryValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coordinates_are_rejected_by_field(self, bad):
        async def scenario():
            with PersistentIndex([Entity(1, Rect(0.1, 0.1, 0.2, 0.2))]) as index:
                service = JoinService(index)
                with pytest.raises(ValueError, match="coordinate y"):
                    await service.point(0.5, bad)
                with pytest.raises(ValueError, match="coordinate xhi"):
                    await service.window(0.1, 0.1, bad, 0.2)
                assert service.queries == 0 and len(service.cache) == 0
                assert service.breaker.consecutive_failures == 0

        asyncio.run(scenario())

    @pytest.mark.parametrize("corner", range(4))
    def test_a_nan_window_raises_below_the_service_edge(self, corner):
        """A NaN corner passes every clipping test of the access path;
        the cell rule's int() refuses it, so the index answers nothing
        (the service edge rejects it before this point)."""
        with PersistentIndex([Entity(1, Rect(0.1, 0.1, 0.2, 0.2))]) as index:
            box = [0.1, 0.1, 0.5, 0.5]
            box[corner] = float("nan")
            with pytest.raises(ValueError):
                index.window_query(Rect(*box))
            assert index.queries == 0 and index.query_hits == 0

    def test_windows_outside_the_square_are_legal_and_clipped(self):
        async def scenario():
            with PersistentIndex([Entity(1, Rect(0.9, 0.9, 1.0, 1.0))]) as index:
                service = JoinService(index)
                partly = await service.window(0.95, 0.95, 7.0, 7.0)
                wholly = await service.window(1.5, 1.5, 2.0, 2.0)
                assert (partly.status, partly.eids) == ("ok", (1,))
                assert (wholly.status, wholly.eids) == ("ok", ())

        asyncio.run(scenario())

    def test_bare_nan_over_rpc_is_an_error_and_the_connection_survives(self):
        async def scenario():
            with PersistentIndex([Entity(1, Rect(0.4, 0.4, 0.6, 0.6))]) as index:
                server = ServiceServer(JoinService(index))
                reader, writer = await asyncio.open_connection(*await server.start())

                async def ask(line: bytes) -> dict:
                    writer.write(line + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                bad = await ask(b'{"op": "point", "x": NaN, "y": 0.5}')
                assert "x must be finite" in bad["error"]
                bad = await ask(b'{"op": "window", "xlo": 0, "ylo": 0, "xhi": 1, "yhi": Infinity}')
                assert "yhi must be finite" in bad["error"]
                good = await ask(b'{"op": "point", "x": 0.5, "y": 0.5}')
                assert good["status"] == "ok" and good["eids"] == [1]
                stats = await ask(b'{"op": "stats"}')
                assert stats["breaker"] == {"state": "closed", "opened_count": 0}
                assert stats["cache"]["size"] == 1
                writer.close()
                await writer.wait_closed()
                await server.stop()

        asyncio.run(scenario())


class TestQueryObservability:
    def test_metrics_count_what_was_pruned(self):
        obs = Observability()
        with read_shape_index(obs=obs) as index:
            pages = sum(handle.num_pages for handle in index._base.values())
            hits = index.window_query(Rect(0.4, 0.4, 0.45, 0.45))
            metrics = obs.metrics
            assert metrics.counter_value("index.query_hits") == len(hits) > 0
            examined = metrics.counter_value("index.query_records_examined")
            assert len(hits) <= examined < len(index) / 10
            assert 0 < metrics.counter_value("index.query_pages_read") < pages / 3

    def test_disabled_observability_records_nothing(self):
        with read_shape_index() as index:
            index.window_query(Rect(0.4, 0.4, 0.45, 0.45))
            assert index.obs.active_metrics is None
            assert index.obs.metrics.counters == {}

    def test_stats_op_reports_pages_per_query_and_pool_hit_ratio(self):
        async def scenario():
            with read_shape_index() as index:
                service = JoinService(index)
                empty = service.stats()
                assert (empty["index_queries"], empty["pool_hit_ratio"]) == (0, 0.0)
                for _ in range(2):  # the repeat is a result-cache hit
                    await service.window(0.4, 0.4, 0.45, 0.45)
                # An overlapping window shares pages with the first; a
                # point inside it would not (its centre boxes are smaller).
                await service.window(0.41, 0.41, 0.46, 0.46)
                stats = service.stats()
                assert stats["index_queries"] == 2
                assert 0 < stats["pages_read_per_query"] < 20
                assert stats["pages_read_per_query"] < stats["pool_fetches_per_query"] < 20
                assert 0 < stats["pool_hit_ratio"] < 1
                assert 1 <= stats["records_examined_per_hit"] < 10
                json.dumps(stats)

        asyncio.run(scenario())
