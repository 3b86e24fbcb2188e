"""Chaos tests for the long-lived join service.

Explicit replays of the scenario harness (repro.verify.scenario), one
per fault profile, plus targeted cases: the breaker trichotomy under a
burst of read errors at the file-I/O seam, loud compaction failures
leaving the base files intact, and cache invalidation across a
compaction epoch (the stale-cache bug class the epoch key exists to
kill).
"""

import asyncio
import errno

import pytest

from repro.obs import fileio
from repro.service import (
    BreakerState,
    JoinService,
    PersistentIndex,
    ServiceConfig,
)
from repro.storage.durable import DATA_FILE, LOG_FILE, DurableStoreError
from repro.verify.recorder import Fault, FaultyDisk
from repro.verify.scenario import Scenario, run_scenario

from tests.conftest import make_squares


def durable_index(entities, fault, **kwargs):
    """A durable index on a faulty disk, ``fault`` armed once it is up."""
    disk = FaultyDisk()
    with fileio.using(disk):
        index = PersistentIndex(entities, data_dir="/store", **kwargs)
    disk.arm(fault)
    return index, disk


def square_entity(eid, x, y, side=0.1):
    from repro.geometry.entity import Entity
    from repro.geometry.rect import Rect

    return Entity.from_geometry(eid, Rect(x, y, x + side, y + side))


class TestServiceChaosSweep:
    def test_sweep_passes(self):
        """One replay per fault profile the read-burst gate
        (``verify --service``) does not cover: a corrupt page read (the
        slot checksum makes it loud), a failed WAL write (the store
        refuses later writes; queries stay exact), and the quiet
        control, where every outcome must be ok."""
        profiles = [
            ("corrupt-read", Fault("corrupt", DATA_FILE, nth=20, landed=3)),
            ("write-failure", Fault("write", LOG_FILE, errno.ENOSPC, nth=8)),
            ("quiet", None),
        ]
        outcomes = []
        for index, (profile, fault) in enumerate(profiles):
            report = run_scenario(Scenario(index, 1, profile, fault, ops=25, entities=60))
            assert report.ok, report.summary()
            outcomes.append(report.counts)
        assert [o["faults"] for o in outcomes] == [True, True, False]
        assert all(o["failed_queries"] or o["loud_errors"] for o in outcomes[:2])
        quiet = outcomes[2]
        assert quiet["ok_queries"] > 0 and quiet["epochs_checked"] == 26
        assert not (
            quiet["failed_queries"] or quiet["partial_queries"] or quiet["loud_errors"]
        )

    def test_an_armed_fault_that_never_fires_fails(self):
        """A scenario whose fault cannot be reached proved nothing about
        it: the replay reports it ``unfired`` rather than passing."""
        never = Fault("write", LOG_FILE, errno.EIO, nth=10**6)
        report = run_scenario(Scenario(1, 0, "write-failure", never, ops=12, entities=40))
        assert [v.check for v in report.violations] == ["unfired"]
        assert "never fired" in report.violations[0].message


class TestFaultBurstTrichotomy:
    def test_burst_trips_breaker_then_partial(self):
        """A burst of EIO page reads: the first failures are loud, the
        tripped breaker then declares partial results, never a silent
        wrong set."""
        dataset = make_squares(80, side=0.04, seed=31)

        async def scenario():
            index, _ = durable_index(dataset.entities, Fault("read", DATA_FILE, last=10**9))
            try:
                config = ServiceConfig(breaker_threshold=2, breaker_reset_s=60.0)
                service = JoinService(index, config)
                first = await service.join()
                second = await service.join()
                assert first.status == second.status == "failed"
                assert first.error == "OSError: [Errno 5] Input/output error"
                assert service.breaker.state is BreakerState.OPEN
                third = await service.join()
                assert third.status == "partial"
                assert third.pairs == frozenset()  # declared, not fabricated
                (failure,) = third.failures
                assert failure.error_type == "CircuitOpen"
                assert failure.shard_id == "service"
            finally:
                index.close()

        asyncio.run(scenario())

    def test_compaction_fault_is_loud_and_base_survives(self):
        """A fold that dies mid-compaction raises a typed error and the
        pre-compaction answers remain exactly reachable."""
        dataset = make_squares(60, side=0.04, seed=37)
        # The compaction fold is the first read sequence we run, so page
        # reads 1-2 fail inside it, deterministically.

        async def scenario():
            index, disk = durable_index(
                dataset.entities,
                Fault("read", DATA_FILE, nth=1, last=2),
                compaction_threshold=10**9,
            )
            try:
                service = JoinService(index)
                await service.insert(square_entity(7000, 0.4, 0.4))
                live_before = [e.eid for e in index.live_entities()]
                epoch_before = index.epoch
                with pytest.raises((OSError, DurableStoreError)):
                    await service.compact()
                assert disk.fired >= 1
                assert index.compactions == 0
                assert index.epoch == epoch_before  # no phantom epoch bump
                assert [e.eid for e in index.live_entities()] == live_before
                # Past the fault window the index answers from the
                # untouched base + delta.
                outcome = await service.window(0.0, 0.0, 1.0, 1.0)
                while outcome.status != "ok":  # burn breaker probes
                    await asyncio.sleep(0.06)
                    outcome = await service.window(0.0, 0.0, 1.0, 1.0)
                assert set(outcome.eids) == set(live_before)
            finally:
                index.close()

        asyncio.run(scenario())


class TestCacheInvalidationAcrossCompaction:
    def test_compaction_epoch_orphans_cached_results(self):
        """Compaction changes no live entity, yet it must still advance
        the cache epoch: an entry computed against the dropped files may
        never be served against the new file set."""
        dataset = make_squares(70, side=0.04, seed=41)

        async def scenario():
            index = PersistentIndex(
                dataset.entities, compaction_threshold=10**9
            )
            try:
                service = JoinService(index)
                await service.insert(square_entity(8000, 0.3, 0.3, side=0.2))
                warm = await service.join()
                hit = await service.join()
                assert not warm.cached and hit.cached
                epoch_cached = warm.epoch

                assert await service.compact()
                assert index.epoch == epoch_cached + 1

                fresh = await service.join()
                assert not fresh.cached  # old-epoch entry was orphaned
                assert fresh.epoch == epoch_cached + 1
                assert fresh.pairs == warm.pairs  # same live set, same answer
                assert len(service.cache) == 1  # the old epoch's entry is gone
            finally:
                index.close()

        asyncio.run(scenario())

    def test_mutation_between_cache_and_read_recomputes(self):
        dataset = make_squares(40, side=0.05, seed=43)

        async def scenario():
            index = PersistentIndex(dataset.entities)
            try:
                service = JoinService(index)
                window_args = (0.2, 0.2, 0.7, 0.7)
                first = await service.window(*window_args)
                await service.insert(square_entity(9000, 0.4, 0.4))
                second = await service.window(*window_args)
                assert not second.cached
                assert 9000 in second.eids
                assert 9000 not in first.eids
            finally:
                index.close()

        asyncio.run(scenario())
