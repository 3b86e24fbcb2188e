"""Tests for the long-lived join service (repro.service).

Index semantics (delta / tombstones / compaction / epoch), the service
front-end's defensive layers (token bucket, circuit breaker, LRU
cache), the JSON-lines server round-trip, and a quick run of the
service differential gate.  Async paths run under ``asyncio.run`` —
the suite has no pytest-asyncio dependency.
"""

import asyncio
import contextlib
import json
import math
import random

import pytest

from repro.fastpath import default_cell_level
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.api import spatial_join
from repro.obs import Observability, fileio
from repro.obs.events import EventLog
from repro.service import (
    BreakerState,
    CircuitBreaker,
    JoinService,
    PersistentIndex,
    QueryOutcome,
    ResultCache,
    ServiceConfig,
    ServiceServer,
    TokenBucket,
)
from repro.service.api import ShardFailure
from repro.storage.buffer import BufferPoolExhausted
from repro.storage.durable import DATA_FILE, LOG_FILE, DurableStoreError
from repro.storage.manager import StorageConfig
from repro.verify import run_service_verify
from repro.verify.recorder import Fault, FaultyDisk

from tests.conftest import brute_force_self_pairs, make_squares


def square(eid: int, x: float, y: float, side: float = 0.05) -> Entity:
    return Entity.from_geometry(eid, Rect(x, y, x + side, y + side))


def oracle_pairs(index: PersistentIndex) -> frozenset:
    live = index.snapshot_dataset()
    return spatial_join(live, live, algorithm="s3j").pairs


def mixed_squares(count: int, seed: int) -> list[Entity]:
    """Squares of four sizes, so they spread over many Filter-Tree levels."""
    rng = random.Random(seed)
    sides = (0.002, 0.01, 0.03, 0.1)
    entities = []
    for eid in range(count):
        side = rng.choice(sides)
        entities.append(square(eid, rng.uniform(0, 1 - side), rng.uniform(0, 1 - side), side))
    return entities


def insert_a_row(index: PersistentIndex, entities: list[Entity]) -> None:
    """Ten pending inserts in a row and one tombstone."""
    for i in range(10):
        index.insert(square(2000 + i, 0.05 + 0.09 * i, 0.3, side=0.1))
    index.delete(entities[0].eid)


def churn(index: PersistentIndex, entities: list[Entity]) -> None:
    """Pending inserts of mixed sizes, 50 tombstones, and a base eid
    deleted and inserted again elsewhere: its base record is dead, its
    delta record live."""
    for entity in mixed_squares(60, seed=17):
        index.insert(Entity(entity.eid + 10_000, entity.mbr))
    for entity in entities[:50]:
        index.delete(entity.eid)
    reborn = entities[100].eid
    index.delete(reborn)
    index.insert(square(reborn, 0.48, 0.52, side=0.03))


class FakeClock:
    """A manually-advanced monotonic clock for bucket/breaker tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestPersistentIndex:
    def test_bulk_load_self_join_matches_batch(self):
        dataset = make_squares(150, side=0.03, seed=7, name="SVC")
        with PersistentIndex(dataset.entities) as index:
            assert index.self_join() == oracle_pairs(index)
            assert index.self_join() == brute_force_self_pairs(dataset)

    def test_insert_lands_in_delta_and_joins(self):
        dataset = make_squares(60, side=0.03, seed=3)
        with PersistentIndex(dataset.entities) as index:
            epoch = index.insert(square(1000, 0.4, 0.4, side=0.2))
            assert epoch == 1
            assert index.delta_records == 1
            assert 1000 in index
            assert any(1000 in pair for pair in index.self_join())
            assert index.self_join() == oracle_pairs(index)

    def test_duplicate_insert_raises(self):
        with PersistentIndex([square(1, 0.1, 0.1)]) as index:
            with pytest.raises(ValueError, match="already live"):
                index.insert(square(1, 0.5, 0.5))

    def test_delete_base_entity_tombstones(self):
        dataset = make_squares(40, side=0.04, seed=5)
        with PersistentIndex(dataset.entities) as index:
            index.delete(dataset.entities[0].eid)
            assert index.delta_records == 1  # the tombstone
            assert dataset.entities[0].eid not in index
            assert index.self_join() == oracle_pairs(index)

    def test_delete_buffered_insert_removes_outright(self):
        with PersistentIndex([square(1, 0.1, 0.1)]) as index:
            index.insert(square(2, 0.5, 0.5))
            assert index.delta_records == 1
            index.delete(2)
            assert not index._delta and not index._tombstones  # no tombstone needed
            assert index.delta_records == 2  # but both mutations count toward a fold
            assert 2 not in index

    def test_delete_missing_raises(self):
        with PersistentIndex() as index:
            with pytest.raises(KeyError, match="no live entity"):
                index.delete(42)

    def test_compaction_folds_delta_preserves_answers(self):
        # 80 equal squares join at cell level 0; 3,000 mixed sizes at
        # cell level 2, with a base eid both tombstoned and in the delta.
        for entities, mutate, cell_level in (
            (make_squares(80, side=0.04, seed=11).entities, insert_a_row, 0),
            (mixed_squares(3000, seed=13), churn, 2),
        ):
            with PersistentIndex(entities) as index:
                mutate(index, entities)
                assert default_cell_level(len(index), index.assigner.max_level) == cell_level
                ledger = index.storage.stats.total
                reads = ledger.page_reads
                before = index.self_join()
                # Every base page is read once, through the pool.
                base_pages = sum(handle.num_pages for handle in index._base.values())
                assert ledger.page_reads - reads == base_pages
                epoch_before = index.epoch
                assert index.compact()
                assert index.delta_records == 0
                assert index.compactions == 1
                assert index.epoch == epoch_before + 1
                assert index.self_join() == before == oracle_pairs(index)

    def test_compact_empty_delta_is_noop(self):
        with PersistentIndex(make_squares(20, 0.03, seed=1).entities) as index:
            epoch = index.epoch
            assert not index.compact()
            assert index.epoch == epoch

    def test_compaction_threshold_flag(self):
        with PersistentIndex(compaction_threshold=2) as index:
            index.insert(square(1, 0.1, 0.1))
            assert not index.needs_compaction
            index.insert(square(2, 0.5, 0.5))
            assert index.needs_compaction

    def test_window_and_point_queries(self):
        dataset = make_squares(100, side=0.05, seed=13)
        with PersistentIndex(dataset.entities) as index:
            window = Rect(0.2, 0.2, 0.6, 0.6)
            expected = tuple(
                sorted(
                    e.eid for e in dataset.entities if e.mbr.intersects(window)
                )
            )
            assert index.window_query(window) == expected
            x, y = 0.3, 0.3
            hits = index.point_query(x, y)
            assert hits == tuple(
                sorted(
                    e.eid
                    for e in dataset.entities
                    if e.mbr.contains_point(x, y)
                )
            )

    def test_every_mutation_bumps_epoch(self):
        with PersistentIndex() as index:
            assert index.insert(square(1, 0.1, 0.1)) == 1
            assert index.insert(square(2, 0.2, 0.2)) == 2
            assert index.delete(1) == 3

    def test_close_idempotent(self):
        index = PersistentIndex(make_squares(10, 0.03, seed=1).entities)
        index.close()
        index.close()  # second close is a no-op
        assert index.storage.closed


class TestCompactionTrigger:
    """A fold is due when the delta reaches 1/8 of the live set, and
    never below ``compaction_threshold``."""

    @pytest.mark.parametrize(
        "floor, inserts",
        [
            (2, 57),  # 400 + 57 live: the ratio governs, 457 // 8 = 57
            (100, 100),  # 400 + 100 live: 500 // 8 = 62, the floor governs
        ],
    )
    def test_due_exactly_at_the_larger_of_floor_and_an_eighth(self, floor, inserts):
        dataset = make_squares(400, 0.01, seed=3)
        with PersistentIndex(dataset.entities, compaction_threshold=floor) as index:
            for i in range(inserts - 1):
                index.insert(square(1000 + i, 0.5, 0.5, side=0.01))
            assert index.compaction_due_at == inserts
            assert index.delta_records == inserts - 1
            assert not index.needs_compaction
            index.insert(square(999, 0.5, 0.5, side=0.01))
            assert index.delta_records == index.compaction_due_at == inserts
            assert index.needs_compaction
            stats = JoinService(index).stats()
            assert (stats["delta_records"], stats["compaction_due_at"]) == (inserts, inserts)

    @pytest.mark.parametrize(
        "floor, due_at_before, due_at",
        [
            # 400 live, then 399: the eighth governs, and the last delete
            # lowers it from 50 to 49 as it brings the delta to 49.
            (2, 50, 49),
            (100, 100, 100),  # the floor governs: 400 // 8 is only 50
        ],
    )
    def test_needs_compaction_is_delta_records_reaching_due_at(
        self, floor, due_at_before, due_at
    ):
        """Checked after every mutation: 24 inserts, then deletes of
        bulk-loaded records (tombstones) until a fold is due."""
        dataset = make_squares(400, 0.01, seed=3)
        with PersistentIndex(dataset.entities, compaction_threshold=floor) as index:
            def agrees() -> bool:
                return index.needs_compaction == (
                    index.delta_records >= index.compaction_due_at
                )

            for i in range(24):
                index.insert(square(1000 + i, 0.5, 0.5, side=0.01))
                assert agrees() and not index.needs_compaction
            base = iter(entity.eid for entity in dataset.entities)
            while not index.needs_compaction:
                assert agrees()
                before = index.compaction_due_at
                index.delete(next(base))
            assert agrees()
            assert (before, index.compaction_due_at) == (due_at_before, due_at)
            assert index.delta_records == due_at

    @staticmethod
    def fold_writes_per_mutation(count, mutations=5000, seed=5):
        """Page writes of the ``compaction`` phase per mutation, for one
        insert/delete stream over ``count`` bulk-loaded squares at the
        benchmark's coverage, folding whenever a fold is due."""
        side = math.sqrt(0.4 / count)
        dataset = make_squares(count, side, seed=seed)
        rng = random.Random(seed)
        live = [entity.eid for entity in dataset.entities]
        with PersistentIndex(dataset.entities) as index:
            for step in range(mutations):
                if step % 2 == 0:
                    x, y = rng.uniform(0, 1 - side), rng.uniform(0, 1 - side)
                    index.insert(square(count + step, x, y, side))
                    live.append(count + step)
                else:
                    index.delete(live.pop(rng.randrange(len(live))))
                if index.needs_compaction:
                    index.compact()
            assert index.compactions >= 2
            return index.storage.stats.phases["compaction"].page_writes / mutations

    def test_rewrite_work_per_mutation_does_not_grow_with_the_index(self):
        """A fixed fold threshold made every mutation pay base / 256
        page rewrites (about 8x more at 16,000 entities than at 2,000);
        folding at 1/8 of the live set keeps it flat."""
        small = self.fold_writes_per_mutation(2_000)
        large = self.fold_writes_per_mutation(16_000)
        assert large <= 1.25 * small


class TestTokenBucket:
    def test_unlimited_when_rate_none(self):
        bucket = TokenBucket(None, burst=1, clock=FakeClock())
        assert all(bucket.try_acquire() for _ in range(100))

    def test_burst_exhaustion_and_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()  # burst drained
        clock.advance(0.1)  # 1 token refilled at 10/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=3, clock=clock)
        clock.advance(60.0)
        for _ in range(3):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(threshold=3, reset_s=1.0, clock=FakeClock())
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.record_failure()  # third failure opens it
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.opened_count == 1

    def test_half_open_single_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, reset_s=1.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(1.5)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()  # the one probe
        assert not breaker.allow()  # a second caller is held back
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=5, reset_s=1.0, clock=clock)
        for _ in range(5):
            breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()
        breaker.record_failure()  # probe fails: back to OPEN immediately
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, reset_s=1.0, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED


class TestResultCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        assert cache.get("a", 0) == 1  # refresh "a"
        cache.put("c", 0, 3)  # evicts "b", the least recent
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) == 1
        assert cache.get("c", 0) == 3

    def test_hit_miss_counters(self):
        cache = ResultCache(maxsize=4)
        cache.put("k", 0, "v")
        cache.get("k", 0)
        cache.get("absent", 0)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_zero_size_never_stores(self):
        cache = ResultCache(maxsize=0)
        cache.put("k", 0, "v")
        assert len(cache) == 0
        assert cache.get("k", 0) is None


class TestServiceConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": 0.0},
            {"rate": -1.0},
            {"burst": 0},
            {"cache_size": -1},
            {"breaker_threshold": 0},
            {"breaker_reset_s": -0.1},
            # NaN passes a bare `< 0` check; inf is no usable rate or delay.
            {"rate": float("nan")},
            {"rate": float("inf")},
            {"breaker_reset_s": float("nan")},
            {"breaker_reset_s": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestJoinService:
    def run(self, coro):
        return asyncio.run(coro)

    def test_join_matches_batch_oracle(self):
        dataset = make_squares(120, side=0.04, seed=17)

        async def scenario():
            with PersistentIndex(dataset.entities) as index:
                async with JoinService(index) as service:
                    outcome = await service.join()
                    assert outcome.status == "ok"
                    assert outcome.pairs == oracle_pairs(index)
                    return outcome

        outcome = self.run(scenario())
        assert isinstance(outcome, QueryOutcome)
        assert outcome.complete

    def test_cache_hit_and_epoch_invalidation(self):
        dataset = make_squares(60, side=0.04, seed=19)

        async def scenario():
            with PersistentIndex(dataset.entities) as index:
                service = JoinService(index)
                first = await service.join()
                second = await service.join()
                assert not first.cached and second.cached
                assert second.pairs == first.pairs
                await service.insert(square(5000, 0.45, 0.45, side=0.1))
                third = await service.join()  # epoch moved: recomputed
                assert not third.cached
                assert third.pairs == oracle_pairs(index)
                assert third.pairs != first.pairs

        self.run(scenario())

    def test_a_mutation_drops_every_older_epoch_entry(self):
        dataset = make_squares(60, side=0.04, seed=19)

        async def scenario():
            with PersistentIndex(dataset.entities) as index:
                service = JoinService(index)
                await service.join()
                await service.window(0.1, 0.1, 0.5, 0.5)
                assert service.stats()["cache"]["size"] == 2
                await service.insert(square(5000, 0.45, 0.45, side=0.1))
                await service.window(0.1, 0.1, 0.5, 0.5)
                assert service.stats()["cache"]["size"] == 1

        self.run(scenario())

    def test_rate_limit_rejects_loudly(self):
        clock = FakeClock()

        async def scenario():
            with PersistentIndex([square(1, 0.1, 0.1)]) as index:
                config = ServiceConfig(rate=1.0, burst=1)
                service = JoinService(index, config, clock=clock)
                first = await service.point(0.5, 0.5)
                second = await service.point(0.5, 0.5)
                assert first.status == "ok"
                assert second.status == "rejected"
                assert second.error == "rate limited"
                assert service.rejected == 1
                clock.advance(2.0)
                third = await service.point(0.5, 0.5)
                assert third.status == "ok"

        self.run(scenario())

    def test_background_compactor_folds_delta(self):
        async def scenario():
            with PersistentIndex(compaction_threshold=5) as index:
                async with JoinService(index) as service:
                    for i in range(8):
                        await service.insert(
                            square(i, 0.1 + 0.08 * i, 0.2, side=0.06)
                        )
                    for _ in range(200):
                        if index.compactions:
                            break
                        await asyncio.sleep(0.005)
                    assert index.compactions >= 1
                    assert index.delta_records < 5
                    outcome = await service.join()
                    assert outcome.status == "ok"
                    assert outcome.pairs == oracle_pairs(index)

        self.run(scenario())

    def test_a_failed_background_fold_is_logged_and_stop_returns(self):
        """The compactor outlives a fold that dies on a write: the
        failure is a ``compaction_failed`` event, queries stay exact,
        and ``stop()`` returns instead of raising the fold's error."""
        log = EventLog()
        disk = FaultyDisk()
        with fileio.using(disk):
            index = PersistentIndex(
                [square(i, 0.05 * i, 0.5) for i in range(1, 11)],
                data_dir="/store", compaction_threshold=4,
                obs=Observability(events=log),
            )
        disk.arm(Fault("write", DATA_FILE, last=10**9))

        async def scenario():
            service = JoinService(index)
            await service.start()
            for i in range(11, 15):
                await service.insert(square(i, 0.05 * (i - 10), 0.6))
            for _ in range(200):
                if disk.fired:
                    break
                await asyncio.sleep(0.005)
            outcome = await service.join()
            assert outcome.status == "ok"
            assert outcome.pairs == oracle_pairs(index)
            # The store's failed-write latch refuses the next mutation,
            # so the loop is not woken to fold again.
            with pytest.raises(DurableStoreError):
                await service.insert(square(99, 0.3, 0.3))
            await asyncio.sleep(0.01)
            await service.stop()

        try:
            asyncio.run(scenario())
        finally:
            index.close()
        assert disk.fired and index.compactions == 0
        (failed,) = [e for e in log.events if e["type"] == "compaction_failed"]
        assert failed["error"] == "OSError: [Errno 5] Input/output error"
        assert log.events[-1]["type"] == "service_stopped"

    def test_stats_snapshot_keys(self):
        async def scenario():
            with PersistentIndex([square(1, 0.1, 0.1)]) as index:
                service = JoinService(index)
                await service.point(0.1, 0.1)
                stats = service.stats()
                assert stats["entities"] == 1
                assert stats["queries"] == 1
                assert stats["breaker"]["state"] == "closed"
                assert set(stats["cache"]) == {"size", "hits", "misses"}
                json.dumps(stats)  # must be JSON-serializable as-is

        self.run(scenario())


def straight_through(request):
    """Drive a request coroutine with one ``send(None)``, as
    :class:`ServiceServer` does: it must end there, without suspending."""
    with pytest.raises(StopIteration) as done:
        request.send(None)
    return done.value.value


class TestNoRequestSuspends:
    """No lock serializes ``JoinService`` requests; the invariant that
    none suspends does.  Every coroutine here, on a durable index, must
    finish (or raise) within its first ``send(None)``."""

    @pytest.fixture
    def disk(self):
        return FaultyDisk()

    @pytest.fixture
    def index(self, disk):
        with fileio.using(disk):
            index = PersistentIndex(
                [square(i, 0.04 * i, 0.5) for i in range(20)],
                data_dir="/store", compaction_threshold=4,
            )
        yield index
        index.close()

    def test_mutations_and_folds(self, index):
        service = JoinService(index)
        assert straight_through(service.insert(square(100, 0.3, 0.3))) == 1
        assert straight_through(service.delete(100)) == 2  # a delta record
        assert not any(index._tombstones.values())
        assert straight_through(service.delete(3)) == 3  # a base record
        assert {3} in index._tombstones.values()
        assert not index.needs_compaction and not service._delta_grew.is_set()
        straight_through(service.insert(square(101, 0.6, 0.6)))  # makes a fold due
        assert index.needs_compaction and service._delta_grew.is_set()
        assert straight_through(service.compact()) is True
        assert index.compactions == 1 and index.delta_records == 0
        assert straight_through(service.compact()) is False  # none due

    @pytest.mark.parametrize(
        "op, args", [("point", (0.3, 0.51)), ("window", (0.1, 0.4, 0.5, 0.6)), ("join", ())]
    )
    def test_queries_cold_cached_and_rate_limited(self, index, op, args):
        service = JoinService(index, ServiceConfig(rate=1.0, burst=2), clock=FakeClock())
        query = getattr(service, op)
        cold = straight_through(query(*args))
        assert (cold.status, cold.cached) == ("ok", False)
        cached = straight_through(query(*args))
        assert (cached.status, cached.cached) == ("ok", True)
        assert straight_through(query(*args)).status == "rejected"

    def test_a_mutation_on_a_failed_store_raises_without_suspending(self, index, disk):
        service = JoinService(index)
        disk.arm(Fault("fsync", LOG_FILE))  # the note's log commit
        with pytest.raises(OSError):
            service.insert(square(100, 0.3, 0.3)).send(None)
        for request in (service.insert(square(101, 0.6, 0.6)), service.delete(3)):
            with pytest.raises(DurableStoreError, match="reopened"):
                request.send(None)


def pin_every_frame(index):
    """Pin base pages until every frame of the index's pool is pinned
    (as a reader holding them would); returns what to unpin."""
    pool = index.storage.pool
    pages = [
        (handle.name, page_no)
        for handle in index._base.values()
        for page_no in range(handle.num_pages)
    ]
    assert len(pages) > pool.capacity  # some page is left outside
    pinned = pages[: pool.capacity]
    for name, page_no in pinned:
        pool.fetch(name, page_no)
    return pinned


class TestPoolExhaustionUnderLoad:
    """With every frame pinned a query fails loudly — never a silent
    wrong answer — and the pool serves again once they are released."""

    everything = (0.0, 0.0, 1.0, 1.0)  # every base page holds a candidate

    def test_window_query_raises_then_recovers(self):
        dataset = make_squares(600, 0.01, seed=31)
        storage = StorageConfig(buffer_pages=4)

        async def scenario():
            with PersistentIndex(dataset.entities, storage=storage) as index:
                service = JoinService(index)
                pinned = pin_every_frame(index)
                with pytest.raises(BufferPoolExhausted):
                    await service.window(*self.everything)
                assert service.breaker.state is BreakerState.CLOSED
                for name, page_no in pinned:
                    index.storage.pool.unpin(name, page_no)
                outcome = await service.window(*self.everything)
                assert outcome.status == "ok" and not outcome.cached
                assert outcome.eids == tuple(range(600))

        asyncio.run(scenario())

    def test_rpc_answers_an_error_and_the_connection_lives(self):
        dataset = make_squares(600, 0.01, seed=37)
        storage = StorageConfig(buffer_pages=4)
        xlo, ylo, xhi, yhi = self.everything
        window = {"op": "window", "xlo": xlo, "ylo": ylo, "xhi": xhi, "yhi": yhi}

        async def scenario():
            with PersistentIndex(dataset.entities, storage=storage) as index:
                server = ServiceServer(JoinService(index))
                host, port = await server.start()
                reader, writer = await asyncio.open_connection(host, port)

                async def ask(request):
                    writer.write(json.dumps(request).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                pinned = pin_every_frame(index)
                failed = await ask(window)
                assert failed["error"].startswith("BufferPoolExhausted: ")
                assert (await ask({"op": "stats"}))["entities"] == 600
                for name, page_no in pinned:
                    index.storage.pool.unpin(name, page_no)
                answered = await ask(window)
                assert answered["status"] == "ok"
                assert answered["eids"] == list(range(600))
                writer.close()
                await writer.wait_closed()
                await server.stop()

        asyncio.run(scenario())


class TestServiceServer:
    def test_json_lines_round_trip(self):
        dataset = make_squares(50, side=0.04, seed=23)

        async def scenario():
            with PersistentIndex(dataset.entities) as index:
                server = ServiceServer(JoinService(index))
                host, port = await server.start()
                reader, writer = await asyncio.open_connection(host, port)

                async def ask(request):
                    writer.write(json.dumps(request).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                join = await ask({"op": "join"})
                assert join["status"] == "ok"
                expected = sorted(
                    list(pair) for pair in oracle_pairs(index)
                )
                assert join["pairs"] == expected

                inserted = await ask(
                    {"op": "insert", "eid": 9000, "xlo": 0.4, "ylo": 0.4,
                     "xhi": 0.6, "yhi": 0.6}
                )
                assert inserted == {"ok": True, "epoch": 1}

                window = await ask(
                    {"op": "window", "xlo": 0.45, "ylo": 0.45,
                     "xhi": 0.55, "yhi": 0.55}
                )
                assert 9000 in window["eids"]

                deleted = await ask({"op": "delete", "eid": 9000})
                assert deleted["ok"] and deleted["epoch"] == 2

                stats = await ask({"op": "stats"})
                assert stats["entities"] == 50

                bad = await ask({"op": "frobnicate"})
                assert "unknown op" in bad["error"]

                malformed = await ask({"op": "delete"})  # missing eid
                assert "error" in malformed  # connection survives
                assert (await ask({"op": "stats"}))["entities"] == 50

                writer.close()
                await writer.wait_closed()
                await server.stop()

        asyncio.run(scenario())


    def test_oversized_request_line_gets_an_error_and_the_connection_lives(self):
        """A line over the cap used to raise out of the handler (no
        reply, connection reset); it must be answered with a typed
        error, dropped through its newline, and the next request on the
        same connection served."""
        from repro.service.server import MAX_LINE_BYTES

        dataset = make_squares(30, side=0.04, seed=29)

        async def scenario():
            with PersistentIndex(dataset.entities) as index:
                server = ServiceServer(JoinService(index))
                host, port = await server.start()
                reader, writer = await asyncio.open_connection(host, port)
                huge = b'{"op": "point", "x": "' + b"9" * 200_000 + b'"}\n'
                assert len(huge) > MAX_LINE_BYTES
                # One burst (the newline may already be buffered when
                # the cap trips) ...
                writer.write(huge + b'{"op": "stats"}\n')
                await writer.drain()
                too_large = json.loads(await reader.readline())
                assert too_large["error"].startswith("RequestTooLarge")
                assert json.loads(await reader.readline())["entities"] == 30
                # ... and in pieces (the cap trips before the newline
                # has arrived).
                writer.write(huge[:150_000])
                await writer.drain()
                await asyncio.sleep(0)
                writer.write(huge[150_000:] + b'{"op": "stats"}\n')
                await writer.drain()
                too_large = json.loads(await reader.readline())
                assert too_large["error"].startswith("RequestTooLarge")
                assert json.loads(await reader.readline())["entities"] == 30
                writer.close()
                await writer.wait_closed()
                await server.stop()

        asyncio.run(scenario())

    INSERT = {"op": "insert", "eid": 9000, "xlo": 0.4, "ylo": 0.4, "xhi": 0.6, "yhi": 0.6}

    @pytest.mark.parametrize(
        "request_, field",
        [
            pytest.param({"op": "delete", "eid": 1.9}, "eid", id="float-id"),
            pytest.param({"op": "delete", "eid": "7"}, "eid", id="string-id"),
            pytest.param({"op": "delete", "eid": True}, "eid", id="bool-id"),
            pytest.param({"op": "delete", "eid": 2**63}, "eid", id="id-past-int64"),
            pytest.param({**INSERT, "eid": -(2**63) - 1}, "eid", id="id-below-int64"),
            pytest.param({"op": "point", "x": "0.5", "y": 0.5}, "x", id="string-coordinate"),
            pytest.param({"op": "point", "x": True, "y": 0.5}, "x", id="bool-coordinate"),
            pytest.param({**INSERT, "xlo": "0.4"}, "xlo", id="string-corner"),
            pytest.param({**INSERT, "yhi": True}, "yhi", id="bool-corner"),
            pytest.param({**INSERT, "xhi": 10**400}, "xhi", id="corner-past-float"),
            pytest.param({"op": "delete", "eid": 7, "force": True}, "force", id="extra-key"),
            pytest.param({**INSERT, "note": None}, "note", id="extra-key-insert"),
            pytest.param({"op": "insert", "eid": 9000, "xlo": 0.4}, "ylo", id="missing-key"),
        ],
    )
    def test_a_request_off_the_schema_is_refused_and_changes_nothing(self, request_, field):
        """The parent cast ids with ``int()`` and corners with ``float()``:
        ``1.9`` and ``true`` deleted entity 1, ``"7"`` deleted entity 7,
        and an unknown key was ignored."""
        dataset = make_squares(30, side=0.04, seed=41)

        async def scenario():
            with PersistentIndex(dataset.entities) as index:
                async with connected(index) as ask:
                    refused = await ask(json.dumps(request_).encode())
                    assert refused["error"].startswith(f"BadRequest: {field} "), refused
                    assert index.epoch == 0
                    assert set(index.live_entities()) == set(dataset.entities)
                    assert (await ask(b'{"op": "stats"}'))["entities"] == 30

        asyncio.run(scenario())

    def test_a_request_that_suspends_is_answered_and_the_next_one_served(self):
        dataset = make_squares(30, side=0.04, seed=43)

        async def scenario():
            with PersistentIndex(dataset.entities) as index:
                service = JoinService(index)
                window = service.window

                async def suspending_window(*corners):
                    await asyncio.sleep(0)
                    return await window(*corners)

                service.window = suspending_window
                async with connected(index, service) as ask:
                    suspended = await ask(
                        b'{"op": "window", "xlo": 0, "ylo": 0, "xhi": 1, "yhi": 1}'
                        b'\n{"op": "point", "x": 0.5, "y": 0.5}',
                        replies=2,
                    )
                    assert suspended[0]["error"].startswith("RequestSuspended: ")
                    assert suspended[1]["status"] == "ok"
                    assert (await ask(b'{"op": "stats"}'))["entities"] == 30

        asyncio.run(scenario())

    def test_pipelined_requests_are_answered_in_order_under_back_pressure(
        self, monkeypatch
    ):
        """10,000 requests written before any reply is read: the replies
        (a few KiB each) outgrow the socket buffers, so the server must
        stop reading until the client drains them.  Every 100th request
        is an insert, so each reply's epoch says where it belongs."""
        from repro.service import server as server_module

        pauses = []
        pause = server_module._Connection.pause_writing

        def counted_pause(connection):
            pauses.append(1)
            pause(connection)

        monkeypatch.setattr(server_module._Connection, "pause_writing", counted_pause)
        dataset = make_squares(600, side=0.01, seed=47)
        everything = {"op": "window", "xlo": 0, "ylo": 0, "xhi": 1, "yhi": 1}
        requests = [
            {**self.INSERT, "eid": 10_000 + i} if i % 100 == 0 else everything
            for i in range(10_000)
        ]

        async def scenario():
            with PersistentIndex(dataset.entities, compaction_threshold=10**9) as index:
                server = ServiceServer(JoinService(index))
                reader, writer = await asyncio.open_connection(*await server.start())
                writer.write(b"".join(json.dumps(r).encode() + b"\n" for r in requests))
                replies = [json.loads(await reader.readline()) for _ in requests]
                writer.close()
                await writer.wait_closed()
                await server.stop()
                return replies

        replies = asyncio.run(scenario())
        assert pauses, "the server never stopped reading"
        for i, reply in enumerate(replies):
            inserted = i // 100 + 1
            assert reply["epoch"] == inserted, i
            if i % 100:
                assert len(reply["eids"]) == 600 + inserted, i
            else:
                assert reply["ok"], i

    def test_an_unterminated_last_line_is_answered_before_close(self):
        dataset = make_squares(30, side=0.04, seed=53)

        async def scenario():
            with PersistentIndex(dataset.entities) as index:
                server = ServiceServer(JoinService(index))
                reader, writer = await asyncio.open_connection(*await server.start())
                writer.write(b'{"op": "stats"}\n{"op": "delete", "eid": 3}')
                writer.write_eof()
                replies = [json.loads(line) async for line in reader]
                assert [reply.get("entities") for reply in replies] == [30, None]
                assert replies[1] == {"ok": True, "epoch": 1} and 3 not in index
                writer.close()
                await writer.wait_closed()
                await server.stop()

        asyncio.run(scenario())

    def test_concurrent_clients_get_only_ok_replies_while_folds_run(self):
        """Four clients on their own connections, each inserting and
        deleting in its own eid range and asking points and windows,
        while the background compactor folds the delta between their
        requests: every reply is ok, and the join after them is exact."""
        dataset = make_squares(300, side=0.02, seed=59)

        async def client(host, port, number):
            rng = random.Random(number)
            reader, writer = await asyncio.open_connection(host, port)
            owned, next_eid, replies = [], 10_000 * (number + 1), []

            async def ask(request):
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                replies.append(json.loads(await reader.readline()))

            for _ in range(100):
                roll = rng.random()
                x, y = rng.uniform(0.0, 0.9), rng.uniform(0.0, 0.9)
                if roll < 0.25:
                    box = {"xlo": x, "ylo": y, "xhi": x + 0.03, "yhi": y + 0.03}
                    await ask({"op": "insert", "eid": next_eid, **box})
                    owned.append(next_eid)
                    next_eid += 1
                elif roll < 0.4 and owned:
                    await ask({"op": "delete", "eid": owned.pop(rng.randrange(len(owned)))})
                elif roll < 0.7:
                    await ask({"op": "point", "x": x, "y": y})
                else:
                    await ask({"op": "window", "xlo": x, "ylo": y, "xhi": x + 0.1, "yhi": y + 0.1})
            writer.close()
            await writer.wait_closed()
            return replies

        async def scenario():
            with PersistentIndex(dataset.entities, compaction_threshold=8) as index:
                server = ServiceServer(JoinService(index))
                host, port = await server.start()
                fleet = await asyncio.gather(*(client(host, port, n) for n in range(4)))
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b'{"op": "join"}\n')
                join = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                await server.stop()
                for replies in fleet:
                    for reply in replies:
                        assert reply.get("ok") is True or reply.get("status") == "ok", reply
                assert sum(map(len, fleet)) == 400
                assert index.compactions >= 2  # folds ran among the requests
                assert join["status"] == "ok"
                assert join["pairs"] == sorted(list(pair) for pair in oracle_pairs(index))

        asyncio.run(scenario())


@contextlib.asynccontextmanager
async def connected(index, service=None):
    """A served ``index`` and an ``ask(line, replies=1)`` that sends one
    write and reads that many reply lines."""
    server = ServiceServer(service or JoinService(index))
    reader, writer = await asyncio.open_connection(*await server.start())

    async def ask(line: bytes, replies: int = 1):
        writer.write(line + b"\n")
        answers = [json.loads(await reader.readline()) for _ in range(replies)]
        return answers[0] if replies == 1 else answers

    try:
        yield ask
    finally:
        writer.close()
        await writer.wait_closed()
        await server.stop()


class TestServiceVerifyGate:
    def test_clean_replay_passes(self):
        report = run_service_verify(seed=2, ops=20, entities=60, faults=False)
        assert report.ok, report.summary()
        assert report.counts["epochs_checked"] == 21
        assert report.counts["ok_queries"] > 0
        assert report.counts["failed_queries"] == 0
        assert report.counts["partial_queries"] == 0

    def test_fault_replay_passes_and_exercises_breaker(self):
        report = run_service_verify(seed=0, ops=60, entities=100, faults=True)
        assert report.ok, report.summary()
        assert report.counts["failed_queries"] > 0
        assert report.counts["partial_queries"] > 0
        assert report.counts["breaker_opened"] > 0
        # 61 replay epochs plus the exact check after recovery.
        assert report.counts["epochs_checked"] == 62

    def test_verdict_is_a_pure_function_of_the_seed(self):
        """No wall clock anywhere: breaker counts included, two runs of
        one seed serialize identically."""
        first = run_service_verify(seed=3, ops=40, entities=80)
        second = run_service_verify(seed=3, ops=40, entities=80)
        assert first.to_dict() == second.to_dict()
        assert first.to_dict() != run_service_verify(seed=4, ops=40, entities=80).to_dict()

    def test_burst_that_never_lands_fails_the_recovery_assertions(self):
        """With too few ops the scheduled burst is never reached — the
        gate must say it proved nothing rather than pass."""
        report = run_service_verify(seed=0, ops=3, entities=20, faults=True)
        messages = [v.message for v in report.violations if v.check == "recovery"]
        assert "the burst injected no loud failure" in messages
        assert "the breaker never opened" in messages


class TestShardFailure:
    def test_wire_shape(self):
        # The service's declared-partial reply puts this dict on the wire.
        failure = ShardFailure(
            shard_id="service", kind="breaker", error_type="CircuitOpen",
            message="open", attempts=0,
        )
        assert failure.to_dict() == {
            "shard_id": "service", "kind": "breaker", "error_type": "CircuitOpen",
            "message": "open", "attempts": 0,
        }
        assert list(failure.to_dict()) == [
            "shard_id", "kind", "error_type", "message", "attempts",
        ]
