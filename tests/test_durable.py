"""The durable page store: WAL, crash recovery, ledger parity, and the
crash-and-reopen persistent index (DESIGN.md section 16).

Crashes are disk images from the recording disk
(:class:`repro.verify.recorder.Recorder`, installed through the file-I/O
seam): a test runs the store on it, takes the crash state at the fsync
boundary its case names — ``(sync)`` is a log commit, ``(_log)`` a
barrier's data fsync — and reopens a fresh store on that image, exactly
as a machine restarted after a power cut would.  ``repro verify
--crash`` enumerates every such state (tests in ``test_crash_verify.py``).
"""

import asyncio
import dataclasses
import errno
import io
import json
import os
import random
import shutil
import zlib
from hashlib import sha1
from pathlib import Path

import pytest

from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.obs import Observability, fileio
from repro.obs.events import EventLog
from repro.service.api import JoinService
from repro.service.index import PersistentIndex
from repro.storage import durable, wal
from repro.storage.backend import BackendClosedError, MemoryBackend
from repro.storage.durable import DATA_FILE, LOG_FILE, DurableBackend, DurableStoreError
from repro.storage.manager import StorageConfig
from repro.storage.records import EntityDescriptorCodec
from repro.verify.recorder import Fault, FaultyDisk, Recorder
from repro.verify.scenario import LiveModel, check_index

PAGE_SIZE = 512  # 10 descriptor records per page
STORE = "/store"  # a data directory on the recording disk
DATA = f"{STORE}/{DATA_FILE}"
LOG = f"{STORE}/{LOG_FILE}"


def record(i):
    return (i, 0.0, 0.0, 1.0, 1.0, i)


def page(start, count=3):
    return [record(start * 100 + i) for i in range(count)]


def make_store(directory, **kwargs):
    kwargs.setdefault("page_size", PAGE_SIZE)
    return DurableBackend(directory, **kwargs)


def recording(state=None):
    """A recording disk (empty, or holding ``state``) that keeps the
    crash states of every boundary it passes: ``[(site, {label: image})]``."""
    seen = []
    disk = Recorder(state, on_boundary=lambda d, site: seen.append((site, dict(d.crash_states()))))
    return disk, seen


def at(seen, function, nth=-1):
    """The crash states of the ``nth`` boundary passed inside ``function``."""
    return [states for site, states in seen if site.endswith(f"({function})")][nth]


def reopen(state):
    """A store reopened on a disk image, as a restarted machine would."""
    disk, seen = recording(state)
    with fileio.using(disk):
        return make_store(STORE), disk, seen


def data_size(disk):
    return len(disk.files[DATA].live)


class TestRoundTrip:
    def test_write_read_reopen(self, tmp_path):
        codec = EntityDescriptorCodec()
        store = make_store(tmp_path)
        store.create_file("f", codec, PAGE_SIZE)
        store.write_page("f", 0, page(0))
        store.write_page("f", 1, page(1))
        assert store.read_page("f", 0).tolist() == page(0)
        store.close()

        reopened = make_store(tmp_path)
        assert reopened.stored_files() == ["f"]
        assert reopened.attach_file("f", codec, PAGE_SIZE) == 2
        assert reopened.read_page("f", 1).tolist() == page(1)
        assert reopened.file_record_counts("f") == [3, 3]
        reopened.close()

    def test_reopen_without_page_size_uses_header(self, tmp_path):
        make_store(tmp_path).close()
        store = DurableBackend(tmp_path)
        assert store.page_size == PAGE_SIZE
        store.close()

    def test_page_size_mismatch_rejected(self, tmp_path):
        make_store(tmp_path).close()
        with pytest.raises(DurableStoreError, match="page size"):
            DurableBackend(tmp_path, page_size=4096)

    def test_fresh_store_needs_page_size(self, tmp_path):
        with pytest.raises(DurableStoreError, match="page size"):
            DurableBackend(tmp_path)

    def test_missing_page_and_missing_file(self, tmp_path):
        store = make_store(tmp_path)
        store.create_file("f", EntityDescriptorCodec(), PAGE_SIZE)
        with pytest.raises(ValueError, match="never written"):
            store.read_page("f", 0)
        with pytest.raises(FileNotFoundError):
            store.read_page("ghost", 0)
        store.close()

    def test_closed_store_rejects_operations(self, tmp_path):
        store = make_store(tmp_path)
        store.close()
        store.close()  # idempotent
        with pytest.raises(BackendClosedError):
            store.stored_files()

    def test_epoch_bumps_on_every_reopen(self, tmp_path):
        store = make_store(tmp_path)
        assert store.epoch == 1
        store.close()
        for expected in (2, 3):
            store = make_store(tmp_path)
            assert store.epoch == expected
            store.close()

    def test_delete_survives_reopen(self, tmp_path):
        codec = EntityDescriptorCodec()
        store = make_store(tmp_path)
        store.create_file("a", codec, PAGE_SIZE)
        store.create_file("b", codec, PAGE_SIZE)
        store.write_page("a", 0, page(0))
        store.delete_file("b")
        store.close()
        reopened = make_store(tmp_path)
        assert reopened.stored_files() == ["a"]
        reopened.attach_file("a", codec, PAGE_SIZE)
        assert reopened.read_page("a", 0).tolist() == page(0)
        reopened.close()

    def test_a_log_holding_op_4_is_refused(self):
        """Op 4 was a file rename, which stores no longer log.  A log
        that still holds one (a store that died before its checkpoint)
        must fail its reopen loudly, never replay past the record."""
        disk, _ = recording()
        with fileio.using(disk):
            store = make_store(STORE)
        store.create_file("a", EntityDescriptorCodec(), PAGE_SIZE)
        # The store dies here; its log holds the committed create.
        image = disk.durable_state()
        disk, _ = recording(image)
        with fileio.using(disk):
            records = []
            wal.scan_log(Path(LOG), records.append)
            log = wal.WriteAheadLog(LOG)
            log.append(wal.WalRecord(records[-1].lsn + 1, 4, wal.pack_delete(1) + b"b"))
            log.close()
            with pytest.raises(DurableStoreError, match="unknown WAL op 4"):
                make_store(STORE)

    def test_free_slots_reused_lowest_first(self, tmp_path):
        codec = EntityDescriptorCodec()
        store = make_store(tmp_path)
        store.create_file("a", codec, PAGE_SIZE)
        for page_no in range(8):
            store.write_page("a", page_no, page(page_no))
        size_before = os.path.getsize(tmp_path / DATA_FILE)
        store.delete_file("a")
        store.create_file("b", codec, PAGE_SIZE)
        for page_no in range(8):
            store.write_page("b", page_no, page(page_no + 10))
        # Churn reuses the freed slots: the data file did not grow.
        assert os.path.getsize(tmp_path / DATA_FILE) == size_before
        store.close()


    def test_every_record_may_tip_the_log_into_a_checkpoint(self, tmp_path):
        """With pages pending, too: a delete's checkpoint must not try
        to map the pages of the file it just deleted."""
        codec = EntityDescriptorCodec()
        store = make_store(tmp_path, checkpoint_bytes=1)
        store.create_file("gone", codec, PAGE_SIZE)
        store.create_file("kept", codec, PAGE_SIZE)
        store.write_page("gone", 0, page(0))
        store.write_page("kept", 0, page(1))
        store.delete_file("gone")  # checkpoints: commits kept's page on the way
        store._data.close()  # abandoned, not closed: what a kill leaves
        reopened = make_store(tmp_path)
        assert reopened.stored_files() == ["kept"]
        assert reopened.last_recovery.replayed_records == 0
        reopened.attach_file("kept", codec, PAGE_SIZE)
        assert reopened.read_page("kept", 0).tolist() == page(1)
        reopened.close()


    def test_a_barrier_after_a_delete_frees_the_slots_it_superseded(self, tmp_path):
        """A delete drops its file's pending pages, but the committed
        slots they superseded stay owed to the free list: the next
        barrier frees them though nothing is pending any more."""
        codec = EntityDescriptorCodec()
        store = make_store(tmp_path)
        store.create_file("a", codec, PAGE_SIZE)
        store.write_page("a", 0, page(0))  # slot 0
        store.sync()
        store.write_page("a", 0, page(1))  # slot 1; slot 0 is superseded
        store.delete_file("a")  # frees slot 1, pops a's pending page
        store.journal_append(b"barrier")  # nothing pending: frees slot 0
        size = os.path.getsize(tmp_path / DATA_FILE)
        store.create_file("b", codec, PAGE_SIZE)
        store.write_page("b", 0, page(2))
        store.write_page("b", 1, page(3))
        assert os.path.getsize(tmp_path / DATA_FILE) == size  # slots 0 and 1 again
        store.close()


class TestRecovery:
    """The barrier contract: a page survives a crash once a barrier
    (``sync``, ``journal_append``, ``checkpoint``, ``close``) issued
    after its ``write_page`` has returned — not before.  ``write_page``
    logs nothing; a barrier over pending pages fsyncs the data file
    (``_log``), then logs one map record per file under one log fsync
    (``sync``)."""

    def crashed_store(self):
        """Pages 0 and 1 committed by a returned barrier, then page 2
        written and committed by a second one; the store and the
        boundaries it passed."""
        codec = EntityDescriptorCodec()
        disk, seen = recording()
        with fileio.using(disk):
            store = make_store(STORE)
        store.create_file("f", codec, PAGE_SIZE)
        store.write_page("f", 0, page(0))
        store.write_page("f", 1, page(1))
        store.sync()
        store.write_page("f", 2, page(2))
        store.sync()
        return store, disk, seen

    def reopened(self, state):
        store, disk, _ = reopen(state)
        store.attach_file("f", EntityDescriptorCodec(), PAGE_SIZE)
        assert store.read_page("f", 0).tolist() == page(0)
        assert store.read_page("f", 1).tolist() == page(1)
        return store, disk

    def test_torn_wal_tail_truncated(self):
        """Power lost mid-way through a record that spans sectors: the
        first sectors persist, the record is torn, and recovery stops
        at it — nothing before it is lost — and the open's checkpoint
        truncates the log, torn tail and all."""
        store, _, seen = self.crashed_store()
        store.journal_append(b"n" * 1000)
        (torn,) = [
            state for label, state in at(seen, "sync").items()
            if label.startswith(LOG_FILE) and label.endswith("/torn")
        ]
        store, disk = self.reopened(torn)
        assert store.last_recovery.truncated_bytes > 0
        assert disk.files[LOG].live == b""
        assert store.journal() == []
        assert store.read_page("f", 2).tolist() == page(2)  # its barrier returned

    def test_committed_write_replayed_from_wal(self):
        # Power lost after the barrier's log fsync, before it returned:
        # the mapping is committed, and the page was durable before it.
        _, disk, _ = self.crashed_store()
        store, _ = self.reopened(disk.durable_state())
        assert store.last_recovery.replayed_records == 3  # create + two maps
        assert store.last_recovery.mapped_pages == 3
        assert store.read_page("f", 2).tolist() == page(2)

    @pytest.mark.parametrize("crash", ["data-write", "data-synced"])
    def test_uncommitted_page_is_never_named(self, crash):
        """Torn mid-slot-write (the data fsync not yet done), or whole
        and fsynced but lost before its map record: either way no
        committed mapping names the slot, and recovery never writes one
        — the page simply is not there."""
        _, _, seen = self.crashed_store()
        if crash == "data-write":
            state = at(seen, "_log")[f"{DATA_FILE}+1/torn"]
        else:
            state = at(seen, "sync")["durable"]
        store, disk = self.reopened(state)
        assert store.last_recovery.mapped_pages == 2
        with pytest.raises(ValueError, match="never written"):
            store.read_page("f", 2)
        # Its slot is free again: the next page lands there.
        store.write_page("f", 2, page(7))
        store.sync()
        assert data_size(disk) == durable.HEADER_SIZE + 3 * store._block_size

    def test_double_reopen_is_idempotent(self):
        _, disk, _ = self.crashed_store()
        first, disk, _ = reopen(disk.durable_state())
        first.close()
        second, _, _ = reopen(disk.durable_state())
        # The first recovery checkpointed: nothing left to replay.
        assert second.last_recovery.replayed_records == 0
        assert second.last_recovery.truncated_bytes == 0
        second.attach_file("f", EntityDescriptorCodec(), PAGE_SIZE)
        assert second.read_page("f", 2).tolist() == page(2)

    def test_every_open_empties_the_one_log(self, monkeypatch):
        """An open ends with the checkpoint a running store takes, so it
        empties the log: across a kill, a reopen, a second kill and a
        second reopen the directory holds one log file, empty right
        after each open, and the second reopen reads no record at all —
        none to replay, and none the checkpoint covers."""
        read = []
        scan_log = wal.scan_log

        def counting(path, apply, *args):
            return scan_log(path, lambda record: (read.append(record.lsn), apply(record)), *args)

        monkeypatch.setattr(wal, "scan_log", counting)
        disk = Recorder()
        with fileio.using(disk):
            store = make_store(STORE)
        store.create_file("f", EntityDescriptorCodec(), PAGE_SIZE)
        store.write_page("f", 0, page(0))
        store.journal_append(b"acked")
        for _ in range(2):
            killed = {path: bytes(node.live) for path, node in disk.files.items()}
            read.clear()
            store, disk, _ = reopen(killed)
            assert sorted(disk.listdir(STORE)) == [durable.CHECKPOINT_FILE, DATA_FILE, LOG_FILE]
            assert disk.files[LOG].live == b""
            assert store.journal() == [b"acked"]
        assert store.last_recovery.replayed_records == 0 and read == []

    def test_empty_wal_reopen(self, tmp_path):
        make_store(tmp_path).close()
        store = make_store(tmp_path)
        assert store.last_recovery.replayed_records == 0
        assert store.stored_files() == []
        store.close()

    def test_crash_during_checkpoint(self):
        """Every crash state inside the checkpoint after its barrier —
        the temp file's fsync, the directory fsync after the rename —
        and after it, the log's truncation on the medium or not,
        reopens with the page."""
        codec = EntityDescriptorCodec()
        disk, seen = recording()
        with fileio.using(disk):
            store = make_store(STORE)
        store.create_file("f", codec, PAGE_SIZE)
        store.write_page("f", 0, page(0))
        store.checkpoint()
        last_commit = max(n for n, (site, _) in enumerate(seen) if site.endswith("(sync)"))
        inside = seen[last_commit + 1 :]
        assert [site.split(" ")[1] for site, _ in inside] == ["(atomic_replace)"] * 2
        assert "wal.log+1" in (after := dict(disk.crash_states()))  # the truncation
        for _, states in [*inside, ("returned", after)]:
            for state in states.values():
                reopened, _, _ = reopen(state)
                reopened.attach_file("f", codec, PAGE_SIZE)
                assert reopened.read_page("f", 0).tolist() == page(0)

    def test_wal_rotation_and_checkpoint_trigger(self, tmp_path):
        """Page writes put nothing in the log any more; the notes (and
        the map record each one's barrier logs) are what trigger the
        checkpoints here, and each one empties the one log file."""
        codec = EntityDescriptorCodec()
        store = make_store(tmp_path, checkpoint_bytes=8192)
        store.create_file("f", codec, PAGE_SIZE)
        for page_no in range(64):
            store.write_page("f", page_no, page(page_no % 50))
            store.journal_append(b"n" * 100)
        assert sorted(os.listdir(tmp_path)) == [durable.CHECKPOINT_FILE, DATA_FILE, LOG_FILE]
        # A checkpoint emptied the log on the way: it holds far fewer
        # bytes than the notes alone came to.
        assert (tmp_path / LOG_FILE).stat().st_size == store._wal.bytes_appended < 64 * 100
        store.close()
        reopened = make_store(tmp_path)
        reopened.attach_file("f", codec, PAGE_SIZE)
        assert reopened.read_page("f", 63).tolist() == page(13)
        assert len(reopened.journal()) == 64
        reopened.close()

    def test_freed_slot_reused_by_a_pending_page(self):
        """Regression (a): a slot freed by a durable delete is handed to
        a pending page; power fails before the barrier's map record.  No
        committed file reads that slot's new bytes — and a delete that
        did *not* become durable frees nothing."""
        codec = EntityDescriptorCodec()
        disk, seen = recording()
        with fileio.using(disk):
            store = make_store(STORE)
        for name, start in (("a", 0), ("keep", 5)):
            store.create_file(name, codec, PAGE_SIZE)
            store.write_page(name, 0, page(start))
            store.sync()
        size = data_size(disk)
        store.delete_file("a")  # durable on return: its slot is free
        store.create_file("b", codec, PAGE_SIZE)
        store.write_page("b", 0, page(9))
        assert data_size(disk) == size  # reused a's slot
        store.sync()
        store, _, seen = reopen(at(seen, "sync")["durable"])  # data synced, map lost
        assert store.stored_files() == ["b", "keep"]
        assert store.attach_file("b", codec, PAGE_SIZE) == 0  # created, never mapped
        store.attach_file("keep", codec, PAGE_SIZE)
        assert store.read_page("keep", 0).tolist() == page(5)
        # A delete whose record never reached the medium: "keep" must
        # still own its slot afterwards.
        store.delete_file("keep")
        store, _, _ = reopen(at(seen, "sync")["durable"])
        store.attach_file("b", codec, PAGE_SIZE)
        store.attach_file("keep", codec, PAGE_SIZE)
        store.write_page("b", 0, page(3))  # takes a free slot, not keep's
        store.sync()
        assert store.read_page("keep", 0).tolist() == page(5)

    def test_rewrite_of_a_committed_page_is_shadowed(self):
        """Regression (b): a committed page is rewritten and power fails
        before the remap commits — the old content is intact, because
        the rewrite went to a fresh slot.  Once a barrier returns the
        new content is what survives, and the old slot is free."""
        codec = EntityDescriptorCodec()
        disk, seen = recording()
        with fileio.using(disk):
            store = make_store(STORE)
        store.create_file("f", codec, PAGE_SIZE)
        store.write_page("f", 0, page(0))
        store.sync()
        store.write_page("f", 0, page(7))
        store.write_page("f", 0, page(8))  # pending: overwritten in place
        assert store.read_page("f", 0).tolist() == page(8)
        size = data_size(disk)
        store.sync()
        store, disk, _ = reopen(at(seen, "sync")["durable"])  # data synced, remap lost
        store.attach_file("f", codec, PAGE_SIZE)
        assert store.read_page("f", 0).tolist() == page(0)
        store.write_page("f", 0, page(7))
        store.sync()
        store.write_page("f", 1, page(1))  # lands in the slot the remap freed
        store.close()
        assert data_size(disk) == size
        store, _, _ = reopen(disk.durable_state())
        store.attach_file("f", codec, PAGE_SIZE)
        assert store.read_page("f", 0).tolist() == page(7)
        assert store.read_page("f", 1).tolist() == page(1)

    def test_recovery_lands_on_acked_prefix(self):
        """Whatever instant the power fails at — every crash state at
        every fsync boundary, with a barrier every one to four writes —
        every page acknowledged by a returned barrier reads back
        exactly; a later write — rewrites of committed pages included —
        is absent or complete, never torn; and a second reopen replays
        nothing."""
        codec = EntityDescriptorCodec()
        writes = [(page_no % 4, page(step)) for step, page_no in enumerate(range(9))]
        for barrier_every in range(1, 5):
            committed = {}  # page no -> records, as of the last returned barrier
            later = {}  # page no -> every version written since
            cases = []

            def snapshot(disk, site):
                frozen = {no: list(versions) for no, versions in later.items()}
                cases.append((dict(committed), frozen, disk.crash_states()))

            disk = Recorder(on_boundary=snapshot)
            with fileio.using(disk):
                store = make_store(STORE)
            store.create_file("f", codec, PAGE_SIZE)
            for step, (page_no, records) in enumerate(writes):
                later.setdefault(page_no, []).append(records)
                store.write_page("f", page_no, records)
                if step % barrier_every == 0:
                    store.sync()
                    committed.update({no: versions[-1] for no, versions in later.items()})
                    later.clear()
            store.close()
            for committed_then, later_then, states in cases:
                for _, state in states:
                    self.check_acked_prefix(codec, state, committed_then, later_then)

    def check_acked_prefix(self, codec, state, committed, later):
        for attempt in range(2):
            reopened, disk, _ = reopen(state)
            assert attempt == 0 or reopened.last_recovery.replayed_records == 0
            if "f" in reopened.stored_files():
                reopened.attach_file("f", codec, PAGE_SIZE)
                for page_no in committed.keys() | later.keys():
                    try:
                        recovered = reopened.read_page("f", page_no).tolist()
                    except ValueError:
                        recovered = None
                    assert recovered in [committed.get(page_no), *later.get(page_no, [])]
            else:
                # Lost before the create committed: nothing was acked.
                assert committed == {}
            state = disk.durable_state()  # power lost again right after


class TestSyncContract:
    def test_memory_backend_sync_is_noop(self):
        backend = MemoryBackend()
        backend.sync()

    def test_durable_backend_sync(self, tmp_path):
        store = make_store(tmp_path)
        store.create_file("f", EntityDescriptorCodec(), PAGE_SIZE)
        store.write_page("f", 0, page(0))
        store.sync()
        store.close()


class TestLedgerParity:
    def test_memory_and_durable_byte_identical(self, tmp_path):
        """The simulated ledger is a pure function of the logical I/O:
        memory and durable runs of the same join produce byte-identical
        metrics and identical pairs."""
        from repro.datagen.uniform import uniform_squares
        from repro.experiments.runner import run_algorithm

        a = uniform_squares(250, 0.03, seed=5, name="A")
        b = uniform_squares(250, 0.03, seed=6, name="B")
        outcomes = {}
        for backend in ("memory", "durable"):
            run = run_algorithm(
                a,
                b,
                "s3j",
                scale=0.05,
                backend=backend,
                data_dir=str(tmp_path / backend) if backend == "durable" else None,
            )
            outcomes[backend] = (
                sorted(run.result.pairs),
                run.result.metrics.to_dict(),
            )
        assert outcomes["durable"] == outcomes["memory"]


def entity(eid, x, y, side=0.02):
    return Entity(eid, Rect(x, y, x + side, y + side))


class TestPersistentIndexReopen:
    def seeded(self, data_dir, threshold=8):
        return PersistentIndex.open(
            str(data_dir), compaction_threshold=threshold
        )

    def test_insert_close_reopen(self, tmp_path):
        index = self.seeded(tmp_path)
        for i in range(12):
            index.insert(entity(i, 0.05 * i, 0.05 * i))
        eids_before = sorted(e.eid for e in index.live_entities())
        join_before = index.self_join()
        index.close()

        reopened = self.seeded(tmp_path)
        assert reopened.recovered
        assert sorted(e.eid for e in reopened.live_entities()) == eids_before
        assert reopened.self_join() == join_before
        reopened.close()

    def test_reopen_rejects_fresh_seed(self, tmp_path):
        index = self.seeded(tmp_path)
        index.insert(entity(1, 0.1, 0.1))
        index.close()
        with pytest.raises(ValueError, match="already holds"):
            PersistentIndex([entity(2, 0.2, 0.2)], data_dir=str(tmp_path))

    def test_delete_and_reinsert_survive_reopen(self, tmp_path):
        index = self.seeded(tmp_path, threshold=4)
        for i in range(8):
            index.insert(entity(i, 0.1 * i, 0.1 * i))
        index.compact()  # fold everything into base levels
        index.delete(3)
        index.insert(entity(3, 0.9, 0.05))  # reinsert a tombstoned eid
        assert 3 in index
        window = index.window_query(Rect(0.85, 0.0, 1.0, 0.1))
        assert 3 in window
        index.close()

        reopened = self.seeded(tmp_path, threshold=4)
        assert 3 in reopened
        assert 3 in reopened.window_query(Rect(0.85, 0.0, 1.0, 0.1))
        assert 3 not in reopened.window_query(Rect(0.25, 0.25, 0.4, 0.4))
        reopened.close()

    def test_reinserted_tombstone_visible_in_queries(self):
        """Regression: tombstones must filter the base stream only — a
        re-inserted eid lives in the delta and must stay visible."""
        index = PersistentIndex(compaction_threshold=4)
        for i in range(4):
            index.insert(entity(i, 0.2 * i, 0.2 * i))
        index.compact()
        index.delete(2)
        index.insert(entity(2, 0.21, 0.21))  # now overlaps entity 1
        assert 2 in index.window_query(Rect(0.2, 0.2, 0.25, 0.25))
        pairs = index.self_join()
        assert any(2 in pair for pair in pairs)
        index.close()

    def test_unnamed_file_dropped_on_reopen(self, tmp_path):
        """The one debris rule: a stored file the manifest does not name
        is deleted on open, and the live set does not notice."""
        codec = EntityDescriptorCodec()
        index = self.seeded(tmp_path, threshold=4)
        for i in range(6):
            index.insert(entity(i, 0.1 * i, 0.1 * i))
        index.compact()
        named = index.storage.stored_files()
        assert named and all(name.startswith("idx-L") for name in named)
        live_before = sorted(e.eid for e in index.live_entities())
        # Plant what a compaction that died before its commit leaves.
        backend = index._backend()
        backend.create_file("idx-L0-7", codec, index.storage.config.page_size)
        backend.write_page("idx-L0-7", 0, [(999, 0.0, 0.0, 1.0, 1.0, 0)])
        index.close()

        reopened = self.seeded(tmp_path, threshold=4)
        assert reopened.storage.stored_files() == named
        assert reopened.debris_dropped == 1
        assert sorted(e.eid for e in reopened.live_entities()) == live_before
        assert 999 not in reopened
        reopened.close()

    def test_reopen_describes_itself(self, tmp_path):
        index = self.seeded(tmp_path, threshold=100)
        assert not index.recovered
        for i in range(5):
            index.insert(entity(i, 0.1 * i, 0.1 * i))
        index.delete(2)
        epoch = index.epoch
        index.close()
        reopened = self.seeded(tmp_path, threshold=100)
        assert reopened.recovered and reopened.epoch == epoch
        assert (reopened.notes_replayed, reopened.debris_dropped) == (6, 0)
        assert reopened._backend().last_recovery.journal_notes == 7  # + the manifest
        stats = JoinService(reopened).stats()
        assert (stats["notes_replayed"], stats["debris_dropped"]) == (6, 0)
        reopened.close()

    def test_insert_delete_churn_cannot_grow_the_journal(self, tmp_path):
        """An insert deleted again before its fold leaves no record in
        the delta but two notes in the journal.  Both count toward the
        fold trigger, so a fold resets the journal before it passes the
        trigger, and a reopen replays no more than that."""
        entities = [
            entity(i, (i % 50) * 0.0196, (i // 50) * 0.0245, side=0.01) for i in range(2000)
        ]
        index = PersistentIndex(entities, data_dir=str(tmp_path))
        longest = 0
        for step in range(1200):
            fresh = entity(10_000 + step, 0.5, 0.5, side=0.01)
            for op, payload in (("insert", fresh), ("delete", fresh.eid)):
                getattr(index, op)(payload)
                if index.needs_compaction:
                    assert index.compact()
                longest = max(longest, len(index._backend().journal()))
        index.close()
        with PersistentIndex.open(str(tmp_path)) as reopened:
            due = reopened.compaction_due_at
            assert reopened.notes_replayed == 2400 % due
            assert reopened.compactions == 2400 // due
            assert longest <= due + 1
            assert check_index(reopened, model_of(entities)) == []

    def test_killed_first_boot_is_bootstrapped_again(self):
        """A bulk load that died before its manifest committed never
        acknowledged anything: the restart drops its level files and
        loads the same bootstrap set (the parent raised FileExistsError
        here, and ``open`` served an empty index over the orphans)."""
        entities = [entity(i, (i % 10) * 0.09, (i // 10) * 0.09) for i in range(100)]
        config = StorageConfig(page_size=PAGE_SIZE)
        disk, seen = recording()
        with fileio.using(disk):
            PersistentIndex(entities, storage=config, data_dir=STORE)
        # Power lost in the bulk load's data fsync, its last page torn.
        states = at(seen, "_log", 0)
        torn = [label for label in states if label.startswith(DATA_FILE) and "/torn" in label]
        disk = Recorder(states[torn[-1]])
        with fileio.using(disk):
            restarted = PersistentIndex(entities, storage=config, data_dir=STORE)
        assert not restarted.recovered and restarted.debris_dropped >= 1
        assert restarted.live_entities() == entities
        assert check_index(restarted, model_of(entities)) == []
        restarted.close()
        for _ in range(2):  # and every later open is a plain reopen
            with fileio.using(disk), PersistentIndex.open(STORE, storage=config) as reopened:
                assert reopened.recovered and reopened.debris_dropped == 0
                assert reopened.live_entities() == entities

    def test_failed_compaction_changes_nothing(self):
        """A fold that dies before its commit (its third page write
        fails) raises a storage error and leaves the live set and the
        journal exactly as they were.  The failed store refuses to drop
        the fold's fresh files, so the reopen drops them as debris."""
        config = StorageConfig(page_size=PAGE_SIZE)
        disk = FaultyDisk()
        with fileio.using(disk):
            index = PersistentIndex.open(STORE, storage=config, compaction_threshold=10**9)
        entities = [entity(i, (i % 8) * 0.1, (i // 8) * 0.1) for i in range(40)]
        for item in entities:
            index.insert(item)
        stored, journal = index.storage.stored_files(), index._backend().journal()
        epoch = index.epoch
        disk.arm(Fault("write", DATA_FILE, errno.EIO, nth=3))
        with pytest.raises(OSError, match="Input/output"):
            index.compact()
        assert disk.fired == 1
        assert (index.epoch, index.compactions) == (epoch, 0)
        assert index._backend().journal() == journal
        assert check_index(index, model_of(entities)) == []
        index.close()
        with fileio.using(disk), PersistentIndex.open(STORE, storage=config) as reopened:
            assert reopened.debris_dropped >= 1
            assert reopened.storage.stored_files() == stored
            assert check_index(reopened, model_of(entities)) == []

    @pytest.mark.parametrize("nth", [5, 6])
    def test_failed_fold_releases_every_fresh_file(self, nth):
        """A fold that fails in its second or third level file: the
        failed store refuses to delete the first, and the cleanup still
        releases them all and re-raises the fault itself, not that
        refusal."""

        def deep(eid, level, k):  # inside one level-`level` cell, across the next level's lines
            if level == 0:
                return Entity(eid, Rect(0.45 + k / 1000, 0.45, 0.55, 0.55))
            cell = 1 / (1 << level)
            x, y = (k % 50) * cell + 0.3 * cell, (k // 50 + 1) * cell + 0.3 * cell
            return Entity(eid, Rect(x, y, x + 0.4 * cell, y + 0.4 * cell))

        config = StorageConfig(page_size=PAGE_SIZE)
        disk = FaultyDisk()
        with fileio.using(disk):
            index = PersistentIndex.open(STORE, storage=config, compaction_threshold=10**9)
        entities = [deep(i, 0, i) for i in range(30)] + [deep(100 + i, 8, i) for i in range(30)]
        for item in entities:
            index.insert(item)
        index.compact()
        for n, level in enumerate((0, 6, 8)):
            entities += [deep(1000 + 100 * n + k, level, 40 + k) for k in range(10)]
            for item in entities[-10:]:
                index.insert(item)
        assert sorted(index._delta) == [0, 6, 8]
        files = index.storage.list_files()
        disk.arm(Fault("write", DATA_FILE, errno.EIO, nth=nth))
        with pytest.raises(OSError, match="Input/output") as raised:
            index.compact()
        assert raised.value.errno == errno.EIO and disk.fired == 1
        assert index.storage.list_files() == files
        assert check_index(index, model_of(entities)) == []
        index.close()
        with fileio.using(disk), PersistentIndex.open(STORE, storage=config) as reopened:
            assert reopened.debris_dropped >= 2
            assert check_index(reopened, model_of(entities)) == []

    @pytest.mark.parametrize("call", ["write", "fsync", "read"])
    def test_a_second_fold_after_a_failed_one_names_the_failure(self, call):
        """A fold that fails on a data write or fsync fails the store, so
        the next fold is refused by the store's latch — not by the name
        of the fresh file the failed fold left in the catalog.  A failed
        read fails nothing: the next fold succeeds."""
        entities = [Entity(eid, Rect(eid / 20, 0.1, eid / 20 + 0.01, 0.11)) for eid in range(10)]
        disk = FaultyDisk()
        with fileio.using(disk):
            index = PersistentIndex(entities, compaction_threshold=10**9, data_dir=STORE)
        fresh = [Entity(100 + k, Rect(0.5 + k / 20, 0.5, 0.51 + k / 20, 0.51)) for k in range(4)]
        for item in fresh:
            index.insert(item)
        disk.arm(Fault(call, DATA_FILE, errno.EIO, nth=1))
        with pytest.raises(OSError):
            index.compact()
        assert disk.fired == 1
        if call == "read":
            assert index.compact()
        else:
            with pytest.raises(DurableStoreError, match="store failed on"):
                index.compact()
        assert check_index(index, model_of(entities + fresh)) == []
        index.close()

    def test_a_fold_logs_mappings_never_page_images(self, tmp_path):
        """Grep-level: after a bulk load and a compaction no stored
        page's payload occurs anywhere in the log, which the
        fold grew by a few bytes per page — and the fold says what it
        cost, on the event and in ``stats``."""
        config = StorageConfig(page_size=PAGE_SIZE)
        entities = [entity(i, (i % 20) * 0.045, (i // 20) * 0.045) for i in range(400)]
        log = EventLog()
        index = PersistentIndex(
            entities[:300], storage=config, obs=Observability(events=log),
            data_dir=str(tmp_path), compaction_threshold=10**9,
        )
        service = JoinService(index)
        for item in entities[300:]:
            index.insert(item)
        for eid in range(0, 300, 7):
            index.delete(eid)
        def logged_bytes():
            return (tmp_path / LOG_FILE).read_bytes()

        logged = len(logged_bytes())
        asyncio.run(service.compact())
        cost = index.last_fold
        assert cost["levels"] >= 1 and cost["records"] == len(index)
        assert cost["pages"] >= cost["records"] / 10
        # Pages once, as slots; the log adds mappings, not a second copy.
        block = index._backend()._block_size
        assert cost["pages"] * block <= cost["bytes"] < cost["pages"] * (block + 64)
        # One data fsync and one log fsync commit it; each fresh file's
        # create and each replaced file's delete is a log fsync of its own.
        assert cost["fsyncs"] == 2 + 2 * cost["levels"]
        (event,) = [e for e in log.events if e["type"] == "compaction_completed"]
        assert {key: event[key] for key in cost} == cost
        assert service.stats()["last_fold"] == cost

        codec = EntityDescriptorCodec()
        pages = 0
        for handle in index._base.values():
            for records in handle.scan_pages():
                assert codec.encode_page(records[:2]) not in logged_bytes()
                pages += 1
        assert pages == cost["pages"]
        assert len(logged_bytes()) - logged < pages * 64
        # What a kill right now leaves: the reopen maps every page of
        # both folds from the log, and says so.
        shutil.copytree(tmp_path, tmp_path.with_name("killed"))
        with PersistentIndex.open(str(tmp_path.with_name("killed")), storage=config) as reopened:
            assert reopened._backend().last_recovery.mapped_pages >= pages
            assert check_index(reopened, model_of(index.live_entities())) == []
        index.close()

    def test_old_format_directory_is_refused_not_swept(self, tmp_path, monkeypatch):
        """A directory written before the journal existed (format 1) has
        no manifest; treating that as "never booted" would delete its
        level files.  One of format 3 keeps its log in segments this
        store would never read.  The format bumps make the store refuse
        both first."""
        for version in (1, 3):
            directory = tmp_path / f"format-{version}"
            monkeypatch.setattr(durable, "FORMAT_VERSION", version)
            old = make_store(directory)
            old.create_file("idx-L3", EntityDescriptorCodec(), PAGE_SIZE)
            old.write_page("idx-L3", 0, page(0))
            old.close()
            monkeypatch.undo()
            before = (directory / DATA_FILE).read_bytes()
            with pytest.raises(DurableStoreError, match=f"^unsupported store format {version}$"):
                PersistentIndex.open(str(directory))
            assert (directory / DATA_FILE).read_bytes() == before


def model_of(entities):
    model = LiveModel()
    for item in entities:
        model.apply("insert", item)
    return model


class TestCrashNearARatioFold:
    """``repro verify --crash`` and the state machine never hold more
    than 12 pending records, so neither reaches a fold the size ratio
    made due.  Here 2,000 entities carry a delta of 1/8 of the live set
    (250 notes, with a floor of 12) when power fails inside the
    mutation that makes the fold due, or inside that fold."""

    FLOOR = 12

    @pytest.fixture(scope="class")
    def one_away(self):
        """The disk image of a closed store one mutation short of a due
        fold, its model, and the mutation that makes the fold due."""
        entities = [
            entity(i, (i % 50) * 0.0196, (i // 50) * 0.0245, side=0.01) for i in range(2000)
        ]
        model = model_of(entities)
        disk = Recorder()
        with fileio.using(disk):
            index = PersistentIndex(entities, data_dir=STORE, compaction_threshold=self.FLOOR)
        assert index.compaction_due_at == 250 > self.FLOOR
        step = 0
        while index.delta_records < index.compaction_due_at - 1:
            # A new entity, then a base one deleted: every note is a record.
            op, payload = (
                ("insert", entity(2000 + step, (step % 40) * 0.024, 0.97, side=0.01))
                if step % 2 == 0
                else ("delete", step // 2)
            )
            getattr(index, op)(payload)
            model.apply(op, payload)
            step += 1
        assert not index.needs_compaction
        index.close()
        return disk.durable_state(), model, entity(9999, 0.5, 0.5, side=0.01)

    @pytest.mark.parametrize(
        "during, point, at, folded",
        [
            # wal-append / commit: the record's log commit, the record not
            # on the medium; wal-synced: the record durable, never acked.
            ("mutation", "wal-append", "first", False),  # its note lost
            ("mutation", "wal-synced", "first", False),  # logged, never acked
            ("fold", "wal-append", "first", False),  # creating the first level file
            ("fold", "commit", "first", False),  # inside the manifest's journal reset
            ("fold", "wal-synced", "last", True),  # dropping the last replaced file
            ("fold", "wal-append", "last", True),  # the same record, lost
        ],
    )
    def test_reopen_lands_on_the_acked_prefix(self, one_away, during, point, at, folded):
        template, model, new = one_away
        disk, seen = recording(template)
        with fileio.using(disk):
            index = PersistentIndex.open(STORE, compaction_threshold=self.FLOOR)
        assert index.notes_replayed == index.compaction_due_at - 1 == 249
        landed = model_of(model.live.values())
        landed.apply("insert", new)
        if during == "fold":
            index.insert(new)  # acknowledged: the fold must keep it
            assert index.needs_compaction
            model = landed
        del seen[:]
        if during == "mutation":
            index.insert(new)
        else:
            index.compact()
        if point == "wal-synced":
            state = disk.durable_state()  # the op returned; its ack never did
        else:
            commits = [n for n, (site, _) in enumerate(seen) if site.endswith("(sync)")]
            if point == "commit":  # the first commit after the fold's data fsync
                data_sync = next(n for n, (site, _) in enumerate(seen) if site.endswith("(_log)"))
                commits = [n for n in commits if n > data_sync]
            state = seen[commits[0 if at == "first" else -1]][1]["durable"]
        # Abandoned without close(), as a power cut leaves it.
        with fileio.using(Recorder(state)), PersistentIndex.open(
            STORE, compaction_threshold=self.FLOOR
        ) as reopened:
            live = {item.eid: item for item in reopened.live_entities()}
            assert live in (model.live, landed.live)
            assert check_index(reopened, landed if live == landed.live else model) == []
            assert reopened.notes_replayed <= max(self.FLOOR, len(reopened) // 8)
            assert (reopened.compactions == 1) == folded
            assert reopened.notes_replayed == (0 if folded else 249 + (live == landed.live))


class TestFailedStore:
    """ROADMAP 4(c): a failed flush is not a crash — the process lives
    on, so the store must refuse to acknowledge anything after it.
    Errors are injected at the file-I/O seam, and the reopen runs on
    what the failed process left on the disk."""

    def open_index(self, disk, **kwargs):
        with fileio.using(disk):
            return PersistentIndex.open(STORE, **kwargs)

    def test_failed_insert_leaves_the_index_unchanged(self):
        disk = FaultyDisk()
        index = self.open_index(disk)
        index.insert(entity(1, 0.1, 0.1))
        epoch = index.epoch
        disk.arm(Fault("write", LOG_FILE, errno.ENOSPC))  # the note's WAL append
        with pytest.raises(OSError, match="No space left"):
            index.insert(entity(2, 0.11, 0.11))
        # The parent applied before it persisted: 2 stayed live in memory.
        assert 2 not in index and index.epoch == epoch
        assert index.window_query(Rect(0, 0, 1, 1)) == (1,)
        assert check_index(index, model_of([entity(1, 0.1, 0.1)])) == []
        with pytest.raises(DurableStoreError, match="No space left.*reopened"):
            index.insert(entity(3, 0.5, 0.5))
        index.close()
        with self.open_index(disk) as reopened:
            assert [e.eid for e in reopened.live_entities()] == [1]

    def test_failed_store_refuses_until_reopened(self):
        """Never retry-and-ack: the failed note may have reached the
        file, so anything acknowledged after it could be reordered
        under it by the next recovery."""
        disk = FaultyDisk()
        index = self.open_index(disk)
        index.insert(entity(1, 0.1, 0.1))
        disk.arm(Fault("fsync", LOG_FILE))  # the note's log commit
        with pytest.raises(OSError):
            index.insert(entity(2, 0.11, 0.11))
        for mutate in (
            lambda: index.insert(entity(3, 0.5, 0.5)),
            lambda: index.delete(1),
            index.compact,
            index._backend().checkpoint,
        ):
            with pytest.raises(DurableStoreError, match="Input/output error.*reopened"):
                mutate()
        assert index.window_query(Rect(0, 0, 1, 1)) == (1,)  # reads still work
        index.close()  # and so does close, without a checkpoint
        lives = []
        for _ in range(2):
            with self.open_index(disk) as reopened:
                lives.append([e.eid for e in reopened.live_entities()])
        assert lives[0] in ([1], [1, 2])  # k or k + 1, never 3
        assert lives[1] == lives[0]

    def test_store_level_failure_and_recovery(self):
        """A barrier whose data fsync fails: the pending page may or may
        not be on the medium, so no later barrier may commit a mapping
        to it — there is no later barrier until the reopen."""
        codec = EntityDescriptorCodec()
        disk = FaultyDisk()
        with fileio.using(disk):
            store = make_store(STORE)
        store.create_file("f", codec, PAGE_SIZE)
        store.write_page("f", 0, page(0))
        store.sync()
        store.write_page("f", 1, page(1))
        disk.arm(Fault("fsync", DATA_FILE))
        with pytest.raises(OSError, match="Input/output"):
            store.sync()
        for refused in (
            lambda: store.write_page("f", 2, page(2)),
            lambda: store.journal_append(b"note"),
            store.sync,
            store.checkpoint,
            lambda: store.delete_file("f"),
        ):
            with pytest.raises(DurableStoreError, match="Input/output error.*reopened"):
                refused()
        assert store.read_page("f", 0).tolist() == page(0)
        assert store.read_page("f", 1).tolist() == page(1)  # reads still work
        store.close()  # without a checkpoint: page 1 stays uncommitted
        with fileio.using(disk):
            reopened = make_store(STORE)
        reopened.attach_file("f", codec, PAGE_SIZE)
        assert reopened.read_page("f", 0).tolist() == page(0)
        with pytest.raises(ValueError, match="never written"):
            reopened.read_page("f", 1)
        reopened.journal_append(b"accepted again")
        assert reopened.journal() == [b"accepted again"]
        reopened.close()

    def test_failed_slot_write_fails_the_store(self):
        """A short slot write — half the block lands, then ENOSPC: the
        page may be half there, so the store refuses everything after it
        — a barrier that went on would commit a mapping to a slot nobody
        finished writing."""
        codec = EntityDescriptorCodec()
        disk = FaultyDisk()
        with fileio.using(disk):
            store = make_store(STORE)
        store.create_file("f", codec, PAGE_SIZE)
        store.write_page("f", 0, page(0))
        store.sync()
        disk.arm(Fault("write", DATA_FILE, errno.ENOSPC, nth=2, landed=store._block_size // 2))
        store.write_page("f", 1, page(1))
        with pytest.raises(OSError, match="No space left"):
            store.write_page("f", 0, page(7))  # a rewrite: page 0 keeps its slot
        with pytest.raises(DurableStoreError, match="No space left.*reopened"):
            store.write_page("f", 2, page(2))
        with pytest.raises(DurableStoreError, match="No space left.*reopened"):
            store.sync()
        assert store.read_page("f", 0).tolist() == page(0)
        store.close()
        with fileio.using(disk):
            reopened = make_store(STORE)
        assert reopened.attach_file("f", codec, PAGE_SIZE) == 1
        assert reopened.read_page("f", 0).tolist() == page(0)
        reopened.close()

    def test_fold_whose_data_fsync_fails_changes_nothing(self):
        """The index-level case: the compaction's one data fsync fails
        after every fresh page was written.  The live set, the journal
        and — once the reopen has swept the unnamed fresh files — the
        stored files are as they were."""
        config = StorageConfig(page_size=PAGE_SIZE)
        disk = FaultyDisk()
        index = self.open_index(disk, storage=config, compaction_threshold=10**9)
        entities = [entity(i, (i % 8) * 0.1, (i // 8) * 0.1) for i in range(60)]
        for item in entities[:40]:
            index.insert(item)
        index.compact()
        for item in entities[40:]:
            index.insert(item)
        index.delete(7)
        del entities[7]
        stored, journal = index.storage.stored_files(), index._backend().journal()
        epoch = index.epoch
        disk.arm(Fault("fsync", DATA_FILE))
        # The failed store refuses the fold's own clean-up (dropping its
        # fresh files) too, but the error that surfaces is the EIO itself.
        with pytest.raises(OSError, match="Input/output error"):
            index.compact()
        assert (index.epoch, index.compactions) == (epoch, 1)
        assert index._backend().journal() == journal
        assert check_index(index, model_of(entities)) == []  # base pages still read
        index.close()
        with self.open_index(disk, storage=config) as reopened:
            assert reopened.debris_dropped >= 1
            assert reopened.storage.stored_files() == stored
            assert check_index(reopened, model_of(entities)) == []


# Written by the WAL before the record became a named tuple: format 3.
LOG_SHA1 = "61a47378393abe6731e867f25d28ae67554ff990"
# Schema 4: the crc32 line, then the JSON that schema 3 wrote alone.
CHECKPOINT_SHA1 = "7be9cd3a5ac8c35d871c3195eb2adf1268d59450"


class HandleTrackingDisk(FaultyDisk):
    """The faulty disk, remembering every handle it opened."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handles = []

    def open(self, path, mode):
        handle = super().open(path, mode)
        self.handles.append(handle)
        return handle

    def open_files(self):
        return sorted(os.path.basename(h.path) for h in self.handles if not h.closed)


def open_fails_in_its_checkpoint(disk):
    disk.arm(Fault("write", durable.CHECKPOINT_FILE, errno.ENOSPC))
    with pytest.raises(OSError, match="No space left"):
        make_store(STORE)
    assert disk.fired == 1


def close_fails_in_its_checkpoint(disk):
    store = make_store(STORE)
    disk.arm(Fault("write", durable.CHECKPOINT_FILE, errno.ENOSPC))
    with pytest.raises(OSError, match="No space left"):
        store.close()
    assert disk.fired == 1


def index_opened_under_another_name(disk):
    PersistentIndex.open(STORE, name="a").close()
    with pytest.raises(ValueError, match="holds index 'a', asked to open 'b'"):
        PersistentIndex.open(STORE, name="b")


def bulk_load_with_a_duplicate_id(disk):
    twice = [entity(1, 0.1, 0.1), entity(1, 0.5, 0.5)]
    with pytest.raises(ValueError, match="duplicate entity id 1"):
        PersistentIndex(twice, data_dir=STORE)


@pytest.mark.parametrize(
    "fails",
    [
        open_fails_in_its_checkpoint,
        close_fails_in_its_checkpoint,
        index_opened_under_another_name,
        bulk_load_with_a_duplicate_id,
    ],
    ids=lambda fails: fails.__name__,
)
def test_a_failed_open_or_close_releases_both_handles(fails):
    """The data file and the log are closed on every exit path of an
    open or a close, whatever raised inside it."""
    disk = HandleTrackingDisk()
    with fileio.using(disk):
        fails(disk)
    assert disk.handles and disk.open_files() == []


class TestCorruptionAtReopen:
    """A reopen that reads a flipped byte of the log or the checkpoint
    ends loud — a typed :class:`DurableStoreError` that changes nothing
    on the disk — never with acked ops silently gone."""

    def open_index(self, disk):
        with fileio.using(disk):
            return PersistentIndex.open(STORE)

    def image(self, close=False):
        """The disk after 8 acked inserts: what a kill leaves, or a close
        (whose checkpoint holds the journal)."""
        disk = FaultyDisk()
        index = self.open_index(disk)
        for eid in range(1, 9):
            index.insert(entity(eid, eid / 16, 0.5))
        if close:
            index.close()
        return {path: bytes(node.live) for path, node in disk.files.items()}

    @pytest.mark.parametrize("landed", [200, 400])
    def test_a_flip_mid_log_is_loud_and_truncates_nothing(self, landed):
        state = self.image()
        disk = FaultyDisk(state, Fault("corrupt", LOG_FILE, landed=landed))
        with pytest.raises(DurableStoreError, match=r"corrupt log.*offset \d+ of wal\.log"):
            self.open_index(disk)
        assert disk.fired == 1
        assert {path: bytes(node.live) for path, node in disk.files.items()} == state
        with self.open_index(FaultyDisk(state)) as reopened:
            assert [e.eid for e in reopened.live_entities()] == list(range(1, 9))

    def test_a_flipped_checkpoint_byte_is_loud(self):
        state = self.image(close=True)
        size = len(state[f"{STORE}/{durable.CHECKPOINT_FILE}"])
        offsets = random.Random(0).sample(range(size), 120)
        for landed in offsets:
            disk = FaultyDisk(state, Fault("corrupt", durable.CHECKPOINT_FILE, landed=landed))
            with pytest.raises(DurableStoreError, match="checkpoint"):
                self.open_index(disk)
            assert disk.fired == 1

    def test_failed_checkpoint_after_a_commit_fails_the_store(self):
        """The checkpoint the log's size triggers after a note commits
        fails: the insert raises for a note already durable, so no later
        op may be acked, and the reopen restores every acked insert and
        that one too."""
        disk = FaultyDisk()
        index = self.open_index(disk)
        index._backend().checkpoint_bytes = 1024
        disk.arm(Fault("write", durable.CHECKPOINT_FILE, errno.ENOSPC))
        acked = []
        with pytest.raises(OSError, match="No space left"):
            for eid in range(1, 100):
                index.insert(entity(eid, eid % 32 / 32, eid // 32 / 32))
                acked.append(eid)
        assert disk.fired == 1 and acked
        with pytest.raises(DurableStoreError, match="No space left.*reopened"):
            index.insert(entity(500, 0.5, 0.5))
        index.close()
        with self.open_index(disk) as reopened:
            assert [e.eid for e in reopened.live_entities()] == acked + [len(acked) + 1]


class TestWalUnit:
    def test_record_round_trip(self, tmp_path):
        log = wal.WriteAheadLog(tmp_path / LOG_FILE)
        bodies = [os.urandom(40) for _ in range(20)]
        for lsn, body in enumerate(bodies, start=1):
            log.append(wal.WalRecord(lsn, wal.OP_NOTE, body))
        log.sync()
        log.close()
        seen = []
        assert wal.scan_log(tmp_path / LOG_FILE, seen.append) == 0
        assert [r.body for r in seen] == bodies
        assert [r.lsn for r in seen] == list(range(1, 21))

    def test_torn_tail_detected_and_truncated(self, tmp_path):
        """The scan stops at the torn tail and only reads the file; the
        reset that ends every open's checkpoint truncates it."""
        path = tmp_path / LOG_FILE
        log = wal.WriteAheadLog(path)
        log.append(wal.WalRecord(1, wal.OP_NOTE, b"x" * 32))
        log.append(wal.WalRecord(2, wal.OP_NOTE, b"y" * 32))
        log.sync()
        log.close()
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])  # tear the last record
        seen = []
        assert wal.scan_log(path, seen.append) == len(blob) // 2 - 10
        assert [r.lsn for r in seen] == [1]
        assert path.read_bytes() == blob[:-10]
        log = wal.WriteAheadLog(path)
        log.reset()
        log.close()
        assert path.read_bytes() == b""

    def test_record_bytes_and_scan_are_pinned(self, tmp_path):
        """``WalRecord`` is a named tuple now; its bytes, the log's
        bytes and what the scanner yields are those of the dataclass it
        replaced (format 3, whose first segment held the same bytes)."""
        record = wal.WalRecord(7, wal.OP_NOTE, wal.pack_note(b"abc", True))
        assert record.encode().hex() == "314c41570700000000000000051f303ec80400000001616263"
        log = wal.WriteAheadLog(tmp_path / LOG_FILE)
        written = [
            wal.WalRecord(1, wal.OP_CREATE, wal.pack_create(1, 48, 10, "f")),
            wal.WalRecord(2, wal.OP_MAP, wal.pack_map(1, [(0, 3), (1, 0)])),
            wal.WalRecord(3, wal.OP_NOTE, wal.pack_note(b"I" * 49, False)),
            wal.WalRecord(4, wal.OP_DELETE, wal.pack_delete(1)),
        ]
        for entry in written:
            log.append(entry)
        log.close()
        assert sha1((tmp_path / LOG_FILE).read_bytes()).hexdigest() == LOG_SHA1
        seen = []
        wal.scan_log(tmp_path / LOG_FILE, seen.append)
        assert seen == written
        assert all(type(entry) is wal.WalRecord for entry in seen)

    def test_a_bad_record_with_valid_ones_behind_it_is_refused(self, tmp_path):
        path = tmp_path / LOG_FILE
        log = wal.WriteAheadLog(path)
        for lsn in range(1, 11):
            log.append(wal.WalRecord(lsn, wal.OP_NOTE, bytes([lsn]) * 40))
        log.close()
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF  # in the first record's body
        path.write_bytes(bytes(blob))
        with pytest.raises(wal.CorruptLog, match=f"offset 0 of {LOG_FILE}.*offset 61$"):
            wal.scan_log(path, lambda record: None)
        assert path.read_bytes() == blob
        # Records a checkpoint covers are not needed: with none past
        # LSN 10 behind it, the bad record is the torn tail.
        assert wal.scan_log(path, lambda record: None, first_lsn=11) == len(blob)
        assert path.read_bytes() == blob


class TestCheckpointBytes:
    def test_checkpoint_is_the_asdict_form(self, tmp_path):
        """The checkpoint serialises the catalog rows in place, no
        ``dataclasses.asdict`` deep copy; the JSON bytes are the same,
        behind the line holding their crc32."""
        codec = EntityDescriptorCodec()
        store = make_store(tmp_path)
        for n, name in enumerate(["runs", "alpha", "zeta", "gone"]):
            store.create_file(name, codec, PAGE_SIZE)
            for page_no in (3, 0, 11, 1)[: n + 1]:
                store.write_page(name, page_no, page(page_no + n))
        store.sync()
        store.write_page("alpha", 0, page(9))  # a remap of a committed page
        store.delete_file("gone")
        store.journal_append(b"first")
        store.journal_append(b"\x00second", reset=True)
        store.checkpoint()
        text = (tmp_path / durable.CHECKPOINT_FILE).read_bytes()
        entries = [dataclasses.asdict(store._entries[i]) for i in sorted(store._entries)]
        assert [entry["name"] for entry in entries] == ["runs", "alpha", "zeta"]
        payload = {
            "schema": durable.CHECKPOINT_SCHEMA,
            "lsn": store._next_lsn - 1,
            "next_file_id": store._next_file_id,
            "journal": [note.hex() for note in store.journal()],
            "files": entries,
        }
        body = json.dumps(payload, sort_keys=True).encode()
        assert text == b"%08x\n" % zlib.crc32(body) + body
        assert sha1(text).hexdigest() == CHECKPOINT_SHA1
        store.close()
        reopened = make_store(tmp_path)
        assert reopened.journal() == [b"\x00second"]
        reopened.attach_file("alpha", codec, PAGE_SIZE)
        assert reopened.read_page("alpha", 0).tolist() == page(9)
        reopened.close()


STREAM_SHA1 = {
    DATA_FILE: "27352e735a27d91cd7a1ca93938dea930e631b95",
    LOG_FILE: "efb459f21b37aa78b58a10f1b983b116d733d3b8",
    durable.CHECKPOINT_FILE: "f9495d1dafaab1ad9ac3008b53e894a176a785bc",
}
"""The store's three files after :func:`ack_stream`, recorded from the
code before the ack path was made lean: that change moved no byte."""


def ack_stream(index, steps=300, seed=0):
    """A fixed mutation stream: a third inserts, a third deletes of an
    entity still in the delta, a third deletes of a bulk-loaded one (a
    tombstone); a fold whenever one is due and a checkpoint half-way.
    Yields around every ack: once before it, once after."""
    rng = random.Random(seed)
    fresh, base = [], sorted(e.eid for e in index.live_entities())
    for step in range(steps):
        if step == steps // 2:
            index._backend().checkpoint()
        kind = step % 3
        yield
        if kind == 0 or (kind == 1 and not fresh):
            eid = 1000 + step
            index.insert(entity(eid, rng.random() * 0.9, rng.random() * 0.9, rng.random() / 20))
            fresh.append(eid)
        else:
            index.delete(fresh.pop(0) if kind == 1 else base.pop(rng.randrange(len(base))))
        yield
        if index.needs_compaction:
            index.compact()


class TestLeanAck:
    """An ack is one log record and one fsync, and the files it leaves
    are byte for byte what they were before the ack path was slimmed."""

    def open_index(self, disk):
        rng = random.Random(1)
        seed = [entity(eid, rng.random() * 0.9, rng.random() * 0.9, rng.random() / 20) for eid in range(1, 121)]
        with fileio.using(disk):
            return PersistentIndex(seed, compaction_threshold=64, data_dir=STORE)

    def test_a_stream_moves_no_byte_and_each_ack_is_one_record_and_one_fsync(self):
        disk = FaultyDisk()
        index = self.open_index(disk)
        folds = index.compactions

        def counts():
            fsyncs = sum(n for (call, _), n in disk.calls.items() if call == "fsync")
            return disk.calls["write", LOG_FILE], fsyncs

        stream = ack_stream(index)
        for _ in stream:
            before = counts()
            next(stream)
            after = counts()
            assert (after[0] - before[0], after[1] - before[1]) == (1, 1)
        assert index.compactions - folds >= 3
        digests = {name: sha1(bytes(disk.files[f"{STORE}/{name}"].live)).hexdigest() for name in STREAM_SHA1}
        assert digests == STREAM_SHA1
        index.close()

    def test_a_log_write_that_fails_in_append_fails_the_ack_and_latches(self):
        disk = FaultyDisk()
        index = self.open_index(disk)
        disk.arm(Fault("write", LOG_FILE, errno.ENOSPC))
        with pytest.raises(OSError, match="No space left"):
            index.insert(entity(500, 0.5, 0.5))
        assert 500 not in index and disk.fired == 1
        with pytest.raises(DurableStoreError, match="No space left"):
            index.delete(1)
        index.close()

    def test_a_log_write_that_fails_in_the_commits_flush_fails_the_ack_and_latches(self, tmp_path):
        """On a real file the record waits in the handle's buffer until
        ``sync`` flushes it ahead of the fsync: a write error raised
        there fails the ack and the store just the same."""

        class Raw(io.FileIO):
            armed = False

            def write(self, data):
                if Raw.armed:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(data)

        class BufferedLog(fileio.OsFiles):
            def open(self, path, mode):
                if os.path.basename(path) != LOG_FILE:
                    return super().open(path, mode)
                return io.BufferedWriter(Raw(path, mode.replace("b", "")))

        with fileio.using(BufferedLog()):
            index = PersistentIndex([entity(1, 0.1, 0.1)], data_dir=str(tmp_path))
        index.insert(entity(2, 0.2, 0.2))
        Raw.armed = True
        with pytest.raises(OSError, match="No space left"):
            index.insert(entity(3, 0.3, 0.3))
        assert 3 not in index and len(index) == 2
        with pytest.raises(DurableStoreError, match="No space left"):
            index.insert(entity(4, 0.4, 0.4))
        Raw.armed = False
        index.close()
        with PersistentIndex.open(str(tmp_path)) as reopened:
            assert {e.eid for e in reopened.live_entities()} in ({1, 2}, {1, 2, 3})
