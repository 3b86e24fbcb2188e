"""The index-pruned point/window access path (repro.filtertree.ranges).

Three kinds of check: differential (random interleavings of mutations,
compactions and reopens against a brute-force scan of a model live
set — the linear scan survives only here, as the oracle), the
machine-independent pruning gate (ledger page reads, warm pool, page
directories), and the query-side input validation / observability of
the service.
"""

import asyncio
import json
import random

import pytest

from repro.curves.base import curve_by_name
from repro.curves.hilbert import HilbertCurve
from repro.datagen.uniform import uniform_squares_by_coverage
from repro.filtertree.index import FilterTreeIndex
from repro.filtertree.ranges import window_key_ranges
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.dataset import SpatialDataset
from repro.obs import Observability
from repro.service import JoinService, PersistentIndex, ServiceServer
from repro.storage.manager import StorageConfig
from repro.storage.records import HKEY


def brute(model: dict[int, Rect], window: Rect) -> tuple[int, ...]:
    return tuple(sorted(eid for eid, box in model.items() if box.intersects(window)))


def coordinate(rng: random.Random) -> float:
    """Half of all coordinates sit exactly on a grid line ``k / 2**l``
    (1.0 included), where the closed-interval rules bite."""
    if rng.random() < 0.5:
        level = rng.randint(0, 6)
        return rng.randint(0, 1 << level) / (1 << level)
    return rng.random()


def random_box(rng: random.Random, max_side: float) -> Rect:
    x, y = coordinate(rng), coordinate(rng)
    width, height = (
        rng.choice([0.0, 1 / 64, 1 / 8, rng.random() * max_side]) for _ in "wh"
    )
    return Rect(x, y, min(1.0, x + width), min(1.0, y + height))


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
        box = model[rng.choice(sorted(model))]
        if rng.random() < 0.5:
            return Rect(box.xhi, box.yhi, min(1.0, box.xhi + 0.1), min(1.0, box.yhi + 0.1))
        return Rect(max(0.0, box.xlo - 0.1), box.ylo, box.xlo, box.yhi)
    return random_box(rng, 0.6)


def run_interleaving(seed: int, curve_name: str, steps: int, data_dir=None) -> int:
    """Replay one seeded schedule; returns how many queries were checked."""
    rng = random.Random(seed)

    def open_index(entities=()):
        return PersistentIndex(
            entities,
            storage=StorageConfig(buffer_pages=8),
            curve=curve_by_name(curve_name),
            compaction_threshold=10**9,
            data_dir=data_dir,
        )

    model = {eid: random_box(rng, 0.1) for eid in range(150)}
    index = open_index([Entity(eid, box) for eid, box in model.items()])
    next_eid, graveyard, checked = len(model), [], 0
    try:
        for _ in range(steps):
            roll = rng.random()
            if roll < 0.25:
                # Half the inserts revive a deleted eid: a re-insert
                # after a tombstone must be live again.
                if graveyard and rng.random() < 0.5:
                    eid = graveyard.pop()
                else:
                    eid, next_eid = next_eid, next_eid + 1
                model[eid] = random_box(rng, 0.1)
                index.insert(Entity(eid, model[eid]))
            elif roll < 0.45 and model:
                eid = rng.choice(sorted(model))
                del model[eid]
                graveyard.append(eid)
                index.delete(eid)
            elif roll < 0.5:
                index.compact()
            elif roll < 0.53 and data_dir is not None:
                index.close()
                index = open_index()
            else:
                window = random_window(rng, model)
                assert index.window_query(window) == brute(model, window), window
                x, y = coordinate(rng), coordinate(rng)
                assert index.point_query(x, y) == brute(model, Rect.point(x, y))
                checked += 2
    finally:
        index.close()
    return checked


class TestDifferential:
    @pytest.mark.parametrize("seed", range(4))
    def test_hilbert_interleavings_match_brute_force(self, seed):
        assert run_interleaving(seed, "hilbert", steps=1200) > 800

    @pytest.mark.parametrize("curve_name", ["zorder", "gray"])
    def test_helper_needs_only_the_prefix_property(self, curve_name):
        assert run_interleaving(7, curve_name, steps=500) > 300

    def test_durable_close_and_reopen(self, tmp_path):
        assert run_interleaving(11, "hilbert", steps=150, data_dir=str(tmp_path)) > 50

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
    def __init__(self) -> None:
        super().__init__()
        self.key_calls = 0

    def key(self, x: int, y: int) -> int:
        self.key_calls += 1
        return super().key(x, y)


class TestFilterTreeIndex:
    def test_large_window_over_point_data_costs_four_keys(self, storage):
        rng = random.Random(5)
        points = [Rect.point(coordinate(rng), coordinate(rng)) for _ in range(600)]
        boxes = points + [random_box(rng, 0.2) for _ in range(200)]
        dataset = SpatialDataset(
            "mixed", [Entity.from_geometry(eid, box) for eid, box in enumerate(boxes)]
        )
        curve = CountingCurve()
        index = FilterTreeIndex(storage, "ft", curve=curve).build(dataset)
        assert 16 in index.level_files  # the points: level == curve order
        model = dict(enumerate(boxes))
        for _ in range(40):
            x, y = rng.random() * 0.5, rng.random() * 0.5
            for window in (Rect(x, y, x + 0.5, y + 0.5), random_window(rng, model)):
                curve.key_calls = 0
                assert tuple(sorted(index.window_query(window))) == brute(model, window)
                assert curve.key_calls <= 4

    def test_ranges_nest_across_levels(self):
        curve = HilbertCurve()
        window = Rect(0.3, 0.3, 0.35, 0.35)
        ranges = window_key_ranges(curve, window, range(curve.order + 1))
        assert ranges[0] == [(0, 4**curve.order)]
        for level in range(curve.order):
            spans = ranges[level]
            assert spans == sorted(spans) and len(spans) <= 4
            # Every deeper range lies inside one range of its parent level.
            assert all(
                any(lo <= a and b <= hi for lo, hi in spans)
                for a, b in ranges[level + 1]
            )
        assert window_key_ranges(curve, Rect(1.5, 0.0, 2.0, 1.0), [0, 5]) == {}


def read_shape_index(**kwargs) -> PersistentIndex:
    """The ``service_read`` benchmark shape: 5 000 squares at coverage
    0.4 behind a 32-page pool (about half the index's pages)."""
    entities = uniform_squares_by_coverage(5000, 0.4, seed=1).entities
    return PersistentIndex(entities, storage=StorageConfig(buffer_pages=32), **kwargs)


def assert_directories_match_files(index: PersistentIndex) -> None:
    assert set(index._directory) == set(index._base)
    backend = index._backend()
    for level, handle in index._base.items():
        first_keys = [
            backend.read_page(handle.name, page_no)[0][HKEY]
            for page_no in range(handle.num_pages)
        ]
        assert index._directory[level] == first_keys
        keys = [record[HKEY] for record in index._raw_scan(handle)]
        assert keys == sorted(keys)


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
            assert level not in index._base and level not in index._directory
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
                await service.point(0.42, 0.42)
                stats = service.stats()
                assert stats["index_queries"] == 2
                assert 0 < stats["pages_read_per_query"] < 20
                assert 0 < stats["pool_hit_ratio"] < 1
                json.dumps(stats)

        asyncio.run(scenario())
