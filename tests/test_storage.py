"""Tests for the storage manager: records, backends, buffer pool,
paged files, ledger, and cost models."""

import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.obs import fileio
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.service.index import PersistentIndex
from repro.storage.backend import BackendClosedError, MemoryBackend
from repro.storage.buffer import BufferPool, BufferPoolExhausted
from repro.storage.costs import CostModel, CpuModel, DiskModel
from repro.storage.durable import DATA_FILE, SLOT_COVERED, DurableBackend, DurableStoreError
from repro.storage.iostats import IOStats, PhaseStats
from repro.storage.manager import StorageConfig, StorageManager
from repro.storage.records import (
    DESCRIPTOR,
    PAIR,
    CandidatePairCodec,
    EntityDescriptorCodec,
    RecordCodec,
)
from repro.verify.recorder import Fault, FaultyDisk, Recorder

RECORD = (1, 0.1, 0.1, 0.2, 0.2, 0)
DESCRIPTORS = EntityDescriptorCodec()


class TestCodecs:
    def test_descriptor_size_and_capacity(self):
        codec = EntityDescriptorCodec()
        assert codec.record_size == 48
        assert codec.records_per_page(4096) == 85  # the paper's E

    def test_descriptor_roundtrip(self):
        codec = EntityDescriptorCodec()
        record = (42, 0.1, 0.2, 0.3, 0.4, 123456789)
        assert codec.decode(codec.encode(record)) == record

    def test_pair_roundtrip(self):
        codec = CandidatePairCodec()
        assert codec.decode(codec.encode((7, -3))) == (7, -3)

    def test_page_too_small_raises(self):
        with pytest.raises(ValueError):
            EntityDescriptorCodec().records_per_page(32)

    def test_struct_codec_generic(self):
        codec = RecordCodec("<i4,<f8")
        assert codec.record_size == 12
        assert codec.decode(codec.encode((1, 2.5))) == (1, 2.5)
        assert codec.decode_page(codec.encode_page([(1, 2.5)]), 1).tolist() == [(1, 2.5)]

    @staticmethod
    def check_page(codec, records):
        """The page codec is the record codec, a page at a time: the
        same bytes (so no page format changes) and the same records
        back, whatever padding follows them."""
        data = codec.encode_page(records)
        assert data == b"".join(map(codec.encode, records))
        page = codec.decode_page(data, len(records))
        assert page.dtype == codec.dtype and not page.flags.writeable
        assert page.tolist() == records
        assert codec.decode_page(data + b"\x00" * 17, len(records)).tolist() == records
        assert [codec.encode(r) for r in page.tolist()] == [
            codec.encode(r) for r in records
        ]  # bit-exact, the sign of a zero included

    INT64 = st.integers(-(2**63), 2**63 - 1)
    FLOAT = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308])
    DESCRIPTOR = st.tuples(INT64, FLOAT, FLOAT, FLOAT, FLOAT, INT64)
    EXTREME = (-(2**63), -0.0, 5e-324, float("inf"), 1.7976931348623157e308, 2**63 - 1)
    # Curve keys are non-negative: where the field was uint64 they are
    # the same 8 bytes.
    KEYED = st.tuples(INT64, FLOAT, FLOAT, FLOAT, FLOAT, st.integers(0, 2**63 - 1))

    @given(st.lists(DESCRIPTOR, max_size=85))
    @example([])
    @example([EXTREME])
    @example([EXTREME, (2**63 - 1, 0.0, -5e-324, 2.2e-308, -float("inf"), 0)] * 42 + [EXTREME])
    def test_descriptor_page_round_trip(self, records):
        self.check_page(EntityDescriptorCodec(), records)

    @given(st.lists(st.tuples(INT64, INT64), max_size=256))
    @example([])
    @example([(-(2**63), 2**63 - 1)])
    @example([(2**63 - 1, -(2**63))] * 256)
    def test_pair_page_round_trip(self, records):
        self.check_page(CandidatePairCodec(), records)

    def test_short_page_raises_like_a_short_record(self):
        codec = CandidatePairCodec()
        data = codec.encode_page([(1, 2), (3, 4)])
        with pytest.raises(ValueError):
            codec.decode_page(data[:16], 2)
        with pytest.raises(ValueError):
            codec.decode_page(data[:20], 2)
        with pytest.raises(struct.error):
            codec.decode(data[:12])

    @given(st.lists(KEYED, max_size=85), st.lists(st.tuples(INT64, INT64), max_size=256))
    @example([EXTREME[:5] + (2**63 - 1,)], [(-(2**63), 2**63 - 1)])
    def test_page_bytes_are_the_struct_layout(self, descriptors, pairs):
        """A page's bytes are those the ``<qddddQ`` / ``<qq`` record
        formats give, back to back — what a durable store written before
        pages were arrays holds, so such a store still decodes."""
        for dtype, fmt, records in ((DESCRIPTOR, "<qddddQ", descriptors), (PAIR, "<qq", pairs)):
            expected = b"".join(struct.pack(fmt, *record) for record in records)
            page = np.array(records, dtype=dtype)
            assert page.tobytes() == expected
            assert RecordCodec(dtype).decode_page(expected, len(records)).tolist() == records

    def test_journal_notes_keep_their_bytes(self, tmp_path):
        """``I`` + the 48 ``<qddddQ`` bytes, ``D`` + the ``<q`` id: the
        notes a journal written before pages were arrays holds."""
        box = Rect(0.25, 0.5, 0.375, 0.625)
        with PersistentIndex([Entity.from_geometry(1, box)], data_dir=str(tmp_path)) as index:
            index.insert(Entity.from_geometry(2, box))
            index.delete(1)
            key = index.curve.key_of_normalized(*box.center)
            assert index._backend().journal()[1:] == [
                b"I" + struct.pack("<qddddQ", 2, *box.as_tuple(), key),
                b"D" + struct.pack("<q", 1),
            ]


STACKS = ("memory", "durable")
"""Every page store a :class:`StorageManager` builds."""


IN_FLIGHT = b"in flight" * 60  # spans a sector boundary of the log


class TestBackends:
    """One contract, every stack (SNIPPETS.md snippet 2's
    ``ALL_BACKENDS`` idiom); the journal and closed-backend cases ride in
    the same suite."""

    @pytest.fixture(params=STACKS)
    def manager(self, request):
        manager = StorageManager(StorageConfig(backend=request.param))
        yield manager
        manager.close()

    @pytest.fixture
    def backend(self, manager):
        return manager.backend

    def test_roundtrip(self, backend):
        codec = EntityDescriptorCodec()
        backend.create_file("f", codec, 4096)
        records = [(i, 0.1, 0.2, 0.3, 0.4, i * 7) for i in range(10)]
        backend.write_page("f", 0, codec.page(records))
        page = backend.read_page("f", 0)
        assert page.dtype == DESCRIPTOR and page.tolist() == records

    def test_read_page_is_not_writeable(self, backend):
        codec = CandidatePairCodec()
        backend.create_file("f", codec, 4096)
        backend.write_page("f", 0, codec.page([(1, 2), (3, 4)]))
        page = backend.read_page("f", 0)
        assert not page.flags.writeable
        with pytest.raises(ValueError):
            page["a"][0] = 9
        assert backend.read_page("f", 0).tolist() == [(1, 2), (3, 4)]

    def test_written_array_is_not_aliased(self, backend):
        codec = CandidatePairCodec()
        backend.create_file("f", codec, 4096)
        written = np.array([(1, 2), (3, 4)], dtype=PAIR)
        backend.write_page("f", 0, written)
        written["a"] = 99  # the caller's array, after the write returned
        assert backend.read_page("f", 0).tolist() == [(1, 2), (3, 4)]

    def test_overwrite_page(self, backend):
        codec = CandidatePairCodec()
        backend.create_file("f", codec, 4096)
        backend.write_page("f", 0, codec.page([(1, 2)]))
        backend.write_page("f", 0, codec.page([(3, 4), (5, 6)]))
        assert backend.read_page("f", 0).tolist() == [(3, 4), (5, 6)]

    def test_out_of_order_page_writes(self, backend):
        codec = CandidatePairCodec()
        backend.create_file("f", codec, 4096)
        backend.write_page("f", 3, codec.page([(3, 3)]))
        backend.write_page("f", 1, codec.page([(1, 1)]))
        assert backend.read_page("f", 3).tolist() == [(3, 3)]
        assert backend.read_page("f", 1).tolist() == [(1, 1)]

    def test_missing_page_raises(self, backend):
        backend.create_file("f", EntityDescriptorCodec(), 4096)
        with pytest.raises(ValueError):
            backend.read_page("f", 5)

    def test_duplicate_create_raises(self, backend):
        backend.create_file("f", EntityDescriptorCodec(), 4096)
        with pytest.raises(FileExistsError):
            backend.create_file("f", EntityDescriptorCodec(), 4096)

    def test_delete_then_recreate(self, backend):
        codec = CandidatePairCodec()
        backend.create_file("f", codec, 4096)
        backend.write_page("f", 0, codec.page([(1, 2)]))
        backend.delete_file("f")
        backend.create_file("f", codec, 4096)
        with pytest.raises(ValueError):
            backend.read_page("f", 0)

    def test_page_overflow_raises(self, backend):
        codec = CandidatePairCodec()
        backend.create_file("f", codec, 4096)
        full = [(i, i) for i in range(codec.records_per_page(4096))]
        backend.write_page("f", 0, codec.page(full))
        with pytest.raises(ValueError):
            backend.write_page("f", 1, codec.page(full + [(0, 0)]))
        assert backend.read_page("f", 0).tolist() == full

    def test_close_is_idempotent(self, backend):
        backend.create_file("f", EntityDescriptorCodec(), 4096)
        backend.write_page("f", 0, DESCRIPTORS.page([RECORD]))
        backend.close()
        backend.close()  # must not raise

    def test_operations_on_closed_backend_raise(self, backend):
        backend.create_file("f", EntityDescriptorCodec(), 4096)
        backend.write_page("f", 0, DESCRIPTORS.page([RECORD]))
        backend.close()
        with pytest.raises(BackendClosedError):
            backend.read_page("f", 0)
        with pytest.raises(BackendClosedError):
            backend.write_page("f", 0, DESCRIPTORS.page([RECORD]))
        with pytest.raises(BackendClosedError):
            backend.create_file("g", EntityDescriptorCodec(), 4096)
        with pytest.raises(BackendClosedError):
            backend.delete_file("f")

    def slot_store(self):
        """A durable store on a faulty disk, two identical committed
        pages in ``f`` and one in ``g``."""
        codec = CandidatePairCodec()
        disk = FaultyDisk()
        with fileio.using(disk):
            store = DurableBackend("/store", page_size=4096)
        for name, pages in (("f", 2), ("g", 1)):
            store.create_file(name, codec, 4096)
            for page_no in range(pages):
                store.write_page(name, page_no, codec.page([(1, 2), (3, 4)]))
        store.sync()
        return store, disk

    def test_a_corrupt_slot_is_loud_on_read(self):
        """A read that returns with any one byte flipped — slot header,
        record count or record — fails the slot checksum: a page never
        reads back as other data."""
        store, disk = self.slot_store()
        covered = SLOT_COVERED + 2 * PAIR.itemsize  # header, count, two records
        for byte in range(covered):
            disk.arm(Fault("corrupt", DATA_FILE, landed=byte))
            with pytest.raises(DurableStoreError, match="checksum mismatch"):
                store.read_page("f", 0)
            assert disk.fired == 1
        disk.arm(None)
        assert store.read_page("f", 0).tolist() == [(1, 2), (3, 4)]

    @pytest.mark.parametrize("source", [("f", 1), ("g", 0)], ids=["same-file", "other-file"])
    def test_a_slot_holding_another_page_is_loud(self, source):
        """A misdirected write: page 0 of ``f``'s slot holds the block of
        another page of the same bytes (same file, or another file's page
        0), checksummed as that page.  The identity test catches it."""
        store, disk = self.slot_store()
        name, page_no = source
        block = store._block_size
        moved = store._slot_offset(store._entry(name).pages[page_no])
        target = store._slot_offset(store._entry("f").pages[0])
        live = disk.files[f"/store/{DATA_FILE}"].live
        live[target : target + block] = live[moved : moved + block]
        with pytest.raises(DurableStoreError, match="checksum mismatch"):
            store.read_page("f", 0)
        assert store.read_page(name, page_no).tolist() == [(1, 2), (3, 4)]

    def test_journal_order_and_reset(self, manager, backend):
        """Only a medium that outlives the process keeps notes: memory
        accepts them as no-ops and hands back nothing."""
        keeps = isinstance(backend, DurableBackend)
        assert backend.journal() == []
        backend.journal_append(b"a")
        backend.journal_append(b"b")
        assert backend.journal() == ([b"a", b"b"] if keeps else [])
        backend.journal_append(b"c", reset=True)
        backend.journal_append(b"")
        assert backend.journal() == ([b"c", b""] if keeps else [])

    def test_journal_survives_close_checkpoints_and_double_reopen(self, tmp_path):
        """Pending notes ride in the checkpoint, so the store's own log
        reset (automatic here: ``checkpoint_bytes`` is tiny) cannot drop
        them; a reset note drops its predecessors and nothing else."""
        store = DurableBackend(tmp_path, page_size=4096, checkpoint_bytes=256)
        pairs = CandidatePairCodec()
        store.create_file("f", pairs, 4096)
        store.journal_append(b"dropped by the reset")
        store.write_page("f", 0, pairs.page([(1, 2)]))  # > 256 bytes of log: checkpoint
        store.journal_append(b"manifest", reset=True)
        for i in range(5):
            store.journal_append(b"note %d" % i)
            store.write_page("f", i, pairs.page([(i, i)]))
        expected = [b"manifest"] + [b"note %d" % i for i in range(5)]
        assert store.journal() == expected
        store.close()
        for _ in range(2):
            store = DurableBackend(tmp_path)
            assert store.journal() == expected
            assert store.last_recovery.journal_notes == len(expected)
            assert store.last_recovery.replayed_records == 0
            store.close()

    @pytest.mark.parametrize(
        "point, reset, recovered",
        [
            ("wal-append", False, [b"old", b"acked"]),  # torn: never happened
            ("wal-synced", False, [b"old", b"acked", IN_FLIGHT]),
            ("commit", True, [b"old", b"acked"]),
            ("wal-append", True, [b"old", b"acked"]),  # a torn reset resets nothing
            ("wal-synced", True, [IN_FLIGHT]),
        ],
    )
    def test_journal_note_in_flight_is_all_or_nothing(self, point, reset, recovered):
        """Power fails inside the in-flight note's log commit: torn
        across a sector boundary (``wal-append``), not on the medium at
        all (``commit``, entering a reset), or whole (``wal-synced``)."""
        states = []
        disk = Recorder(on_boundary=lambda d, site: states.append(dict(d.crash_states())))
        with fileio.using(disk):
            store = DurableBackend("/store", page_size=4096)
        store.journal_append(b"old")
        store.journal_append(b"acked")
        store.journal_append(IN_FLIGHT, reset=reset)
        commit = states[-1]
        if point == "wal-append":
            (state,) = [image for label, image in commit.items() if label.endswith("/torn")]
        else:
            state = disk.durable_state() if point == "wal-synced" else commit["durable"]
        for _ in range(2):
            disk = Recorder(state)
            with fileio.using(disk):
                store = DurableBackend("/store")
            assert store.journal() == recovered
            store.close()
            state = disk.durable_state()



class TestBufferPool:
    def make_pool(self, capacity=3):
        backend = MemoryBackend()
        backend.create_file("f", EntityDescriptorCodec(), 4096)
        stats = IOStats()
        return BufferPool(backend, capacity, stats), backend, stats

    def test_miss_then_hit(self):
        pool, backend, stats = self.make_pool()
        backend.write_page("f", 0, DESCRIPTORS.page([(1, 0.0, 0.0, 0.0, 0.0, 0)]))
        pool.fetch("f", 0)
        pool.unpin("f", 0)
        pool.fetch("f", 0)
        pool.unpin("f", 0)
        assert stats.total.page_reads == 1
        assert stats.total.buffer_hits == 1

    def test_eviction_writes_dirty(self):
        pool, backend, stats = self.make_pool(capacity=2)
        frame = pool.create("f", 0)
        frame.records = DESCRIPTORS.page([(1, 0.0, 0.0, 0.0, 0.0, 0)])
        pool.unpin("f", 0, dirty=True)
        pool.create("f", 1)
        pool.unpin("f", 1, dirty=True)
        pool.create("f", 2)  # evicts page 0
        pool.unpin("f", 2, dirty=True)
        assert stats.total.page_writes == 1
        assert backend.read_page("f", 0).tolist() == [(1, 0.0, 0.0, 0.0, 0.0, 0)]

    def test_pinned_pages_not_evicted(self):
        pool, _, _ = self.make_pool(capacity=2)
        pool.create("f", 0)
        pool.create("f", 1)
        with pytest.raises(BufferPoolExhausted):
            pool.create("f", 2)

    def test_unpin_unpinned_raises(self):
        pool, _, _ = self.make_pool()
        pool.create("f", 0)
        pool.unpin("f", 0, dirty=True)
        with pytest.raises(RuntimeError):
            pool.unpin("f", 0)

    def test_flush_clears_dirty_without_evicting(self):
        pool, backend, stats = self.make_pool()
        frame = pool.create("f", 0)
        frame.records = DESCRIPTORS.page([(9, 0.0, 0.0, 0.0, 0.0, 0)])
        pool.unpin("f", 0, dirty=True)
        pool.flush()
        assert len(backend.read_page("f", 0)) == 1
        assert len(pool) == 1
        pool.flush()  # second flush writes nothing
        assert stats.total.page_writes == 1

    def test_invalidate_drops_frames(self):
        pool, _, _ = self.make_pool()
        pool.create("f", 0)
        pool.unpin("f", 0, dirty=True)
        pool.invalidate()
        assert len(pool) == 0

    def test_invalidate_pinned_raises(self):
        pool, _, _ = self.make_pool()
        pool.create("f", 0)
        with pytest.raises(RuntimeError):
            pool.invalidate()

    def test_write_behind_flushes_and_drops(self):
        pool, backend, stats = self.make_pool()
        frame = pool.create("f", 0)
        frame.records = DESCRIPTORS.page([(1, 0.0, 0.0, 0.0, 0.0, 0)])
        pool.unpin("f", 0, dirty=True)
        pool.write_behind("f", 0)
        assert len(pool) == 0
        assert stats.total.page_writes == 1
        pool.write_behind("f", 0)  # absent: no-op
        assert stats.total.page_writes == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferPool(MemoryBackend(), 0, IOStats())


class TestPagedFile:
    def test_append_and_scan(self, storage):
        handle = storage.create_file("data")
        records = [(i, 0.0, 0.0, 1.0, 1.0, i) for i in range(200)]
        handle.extend(records)
        assert list(handle.scan()) == records
        assert handle.num_records == 200
        assert handle.num_pages == 3  # 85 per page

    def test_read_page_bounds(self, storage):
        handle = storage.create_file("data")
        handle.append((0, 0.0, 0.0, 0.0, 0.0, 0))
        with pytest.raises(IndexError):
            handle.read_page(1)

    def test_scan_pages_shape(self, storage):
        handle = storage.create_file("data")
        handle.extend((i, 0.0, 0.0, 0.0, 0.0, 0) for i in range(90))
        pages = list(handle.scan_pages())
        assert [len(p) for p in pages] == [85, 5]

    def test_survives_eviction_pressure(self, tiny_storage):
        handle = tiny_storage.create_file("data")
        others = [tiny_storage.create_file(f"other-{i}") for i in range(3)]
        for i in range(300):
            handle.append((i, 0.0, 0.0, 0.0, 0.0, 0))
            others[i % 3].append((i, 0.0, 0.0, 0.0, 0.0, 1))
        assert [r[0] for r in handle.scan()] == list(range(300))


class TestStorageManager:
    def test_create_open_drop(self, storage):
        handle = storage.create_file("x")
        assert storage.open_file("x") is handle
        storage.drop_file("x")
        with pytest.raises(FileNotFoundError):
            storage.open_file("x")

    def test_drop_missing_raises(self, storage):
        with pytest.raises(FileNotFoundError):
            storage.drop_file("nope")

    def test_duplicate_create_raises(self, storage):
        storage.create_file("x")
        with pytest.raises(FileExistsError):
            storage.create_file("x")

    def test_list_files(self, storage):
        storage.create_file("b")
        storage.create_file("a")
        assert storage.list_files() == ["a", "b"]

    def test_phase_boundary_forces_reread(self, storage):
        handle = storage.create_file("x")
        handle.append((1, 0.0, 0.0, 0.0, 0.0, 0))
        storage.phase_boundary()
        before = storage.stats.total.page_reads
        list(handle.scan())
        assert storage.stats.total.page_reads == before + 1

    def test_unknown_backend_raises(self):
        for backend in ("tape", "disk"):
            with pytest.raises(ValueError, match="'memory' or 'durable'"):
                StorageManager(StorageConfig(backend=backend))

    def test_descriptors_per_page(self, storage):
        assert storage.descriptors_per_page() == 85


class TestIOStats:
    def test_sequential_vs_random_reads(self):
        stats = IOStats()
        stats.record_read("f", 0)  # first touch: random
        stats.record_read("f", 1)  # sequential
        stats.record_read("f", 5)  # jump: random
        stats.record_read("g", 0)  # other file: random
        stats.record_read("f", 6)  # continues f: sequential
        assert stats.total.page_reads == 5
        assert stats.total.random_reads == 3
        assert stats.total.sequential_reads == 2

    def test_per_file_write_tracking(self):
        stats = IOStats()
        stats.record_write("a", 0)
        stats.record_write("b", 0)
        stats.record_write("a", 1)
        stats.record_write("b", 1)
        assert stats.total.random_writes == 2  # only the two first touches

    def test_phase_attribution_innermost(self):
        stats = IOStats()
        with stats.phase("outer"):
            stats.record_read("f", 0)
            with stats.phase("inner"):
                stats.record_read("f", 1)
        assert stats.phases["outer"].page_reads == 1
        assert stats.phases["inner"].page_reads == 1
        assert stats.total.page_reads == 2

    def test_phase_reentry_accumulates(self):
        stats = IOStats()
        with stats.phase("p"):
            stats.record_read("f", 0)
        with stats.phase("p"):
            stats.record_read("f", 1)
        assert stats.phases["p"].page_reads == 2

    def test_cpu_charging(self):
        stats = IOStats()
        with stats.phase("p"):
            stats.charge_cpu("hilbert", 10)
            stats.charge_cpu("hilbert", 5)
        assert stats.phases["p"].cpu_ops["hilbert"] == 15
        assert stats.total.cpu_ops["hilbert"] == 15

    def test_reset(self):
        stats = IOStats()
        stats.record_read("f", 0)
        stats.reset()
        assert stats.total.page_reads == 0
        assert stats.phases == {}

    def test_reset_inside_phase_raises(self):
        stats = IOStats()
        with stats.phase("p"):
            with pytest.raises(RuntimeError):
                stats.reset()


class TestCostModels:
    def test_disk_model_charges_random_premium(self):
        stats = PhaseStats(page_reads=10, random_reads=2)
        model = DiskModel(random_access_time=0.018, sequential_transfer_time=0.001)
        assert model.time(stats) == pytest.approx(2 * 0.018 + 8 * 0.001)

    def test_cpu_model_known_ops(self):
        model = CpuModel(op_costs={"hilbert": 10e-6, "compare": 1e-6})
        stats = PhaseStats(cpu_ops={"hilbert": 1000})
        assert model.time(stats) == pytest.approx(0.01)

    def test_cpu_model_unknown_op_costs_nonzero(self):
        model = CpuModel(op_costs={"compare": 1e-6})
        stats = PhaseStats(cpu_ops={"mystery": 100})
        assert model.time(stats) > 0

    def test_response_time_sums(self):
        model = CostModel()
        stats = PhaseStats(page_reads=10, cpu_ops={"hilbert": 100})
        assert model.response_time(stats) == pytest.approx(
            model.disk.time(stats) + model.cpu.time(stats)
        )

    def test_hilbert_default_matches_paper(self):
        assert CpuModel().op_costs["hilbert"] == pytest.approx(10e-6)


class TestRelease:
    def make_pool(self, capacity=3):
        backend = MemoryBackend()
        backend.create_file("f", EntityDescriptorCodec(), 4096)
        backend.write_page("f", 0, DESCRIPTORS.page([(1, 0.0, 0.0, 0.0, 0.0, 0)]))
        stats = IOStats()
        return BufferPool(backend, capacity, stats), backend, stats

    def test_release_drops_clean_frame_without_io(self):
        pool, _, stats = self.make_pool()
        pool.fetch("f", 0)
        pool.unpin("f", 0)
        pool.release("f", 0)
        assert len(pool) == 0
        assert stats.total.page_writes == 0

    def test_release_keeps_dirty_and_pinned_frames(self):
        pool, _, _ = self.make_pool()
        frame = pool.fetch("f", 0)  # pinned
        pool.release("f", 0)
        assert len(pool) == 1
        frame.records = DESCRIPTORS.page([(1, 0.0, 0.0, 0.0, 0.0, 0), (2, 0.0, 0.0, 0.0, 0.0, 0)])
        pool.unpin("f", 0, dirty=True)
        pool.release("f", 0)  # dirty: must not be lost
        assert len(pool) == 1
        pool.release("g", 5)  # absent: no-op
        assert len(pool) == 1


class TestExtendLedgerParity:
    """``PagedFile.extend`` must leave the exact ledger a loop of
    ``append`` calls would."""

    def run_writes(self, bulk, count, prefill=0):
        with StorageManager(StorageConfig(buffer_pages=8)) as manager:
            handle = manager.create_file("out")
            for i in range(prefill):
                handle.append((i, 0.0, 0.0, 0.0, 0.0, 0))
            records = [(i, 0.5, 0.5, 1.0, 1.0, i) for i in range(count)]
            if bulk:
                handle.extend(records)
            else:
                for record in records:
                    handle.append(record)
            manager.phase_boundary()
            contents = list(handle.scan())
            snapshot = manager.stats.snapshot()
            return contents, snapshot

    @pytest.mark.parametrize("prefill", [0, 1, 85])
    @pytest.mark.parametrize("count", [0, 1, 84, 85, 86, 400])
    def test_extend_matches_append_loop(self, count, prefill):
        bulk_contents, bulk_stats = self.run_writes(True, count, prefill)
        loop_contents, loop_stats = self.run_writes(False, count, prefill)
        assert bulk_contents == loop_contents
        assert bulk_stats == loop_stats

    def test_extend_streams_lazy_iterables(self):
        with StorageManager(StorageConfig(buffer_pages=8)) as manager:
            handle = manager.create_file("out")
            handle.extend((i, 0.0, 0.0, 1.0, 1.0, i) for i in range(300))
            assert handle.num_records == 300
            assert [r[0] for r in handle.scan()] == list(range(300))


class TestManagerLifecycle:
    """close() is idempotent and releases every buffer-pool frame —
    the long-lived service opens one manager across many query cycles
    and must not leak pages."""

    def test_close_idempotent(self):
        manager = StorageManager(StorageConfig(buffer_pages=8))
        manager.create_file("f").append((1, 0.0, 0.0, 1.0, 1.0, 0))
        manager.close()
        assert manager.closed
        manager.close()  # second close is a no-op, not an error
        assert manager.closed

    def test_no_leaked_frames_after_query_cycles(self):
        with StorageManager(StorageConfig(buffer_pages=16)) as manager:
            handle = manager.create_file("base")
            handle.extend((i, 0.1, 0.1, 0.2, 0.2, i) for i in range(500))
            manager.phase_boundary()
            baseline = len(manager.pool)
            assert baseline == 0  # phase boundary drains the pool
            for _ in range(25):  # N query cycles over the same file
                assert sum(1 for _ in handle.scan()) == 500
                manager.phase_boundary()
                assert len(manager.pool) == baseline
            assert len(manager.pool) <= 16  # never exceeds capacity

    def test_close_releases_everything_when_the_flush_fails(self):
        """A failed store refuses the closing flush of a dirty page; the
        error surfaces, but the pool, the backend and the temporary
        directory are released first, not left to garbage collection."""
        manager = StorageManager(StorageConfig(backend="durable", buffer_pages=8))
        manager.create_file("f").append((1, 0.0, 0.0, 1.0, 1.0, 0))
        directory = manager.backend.directory
        manager.backend._failed = OSError(5, "Input/output error")
        with pytest.raises(DurableStoreError, match="Input/output error"):
            manager.close()
        assert manager.backend._closed
        assert len(manager.pool) == 0 and manager.list_files() == []
        assert not directory.exists()

    def test_close_empties_pool(self):
        manager = StorageManager(StorageConfig(buffer_pages=8))
        handle = manager.create_file("f")
        handle.extend((i, 0.0, 0.0, 1.0, 1.0, i) for i in range(100))
        list(handle.scan())
        assert len(manager.pool) > 0
        manager.close()
        assert len(manager.pool) == 0

    def test_next_sequence_scoped_per_manager(self):
        a = StorageManager(StorageConfig(buffer_pages=4))
        b = StorageManager(StorageConfig(buffer_pages=4))
        try:
            assert [a.next_sequence("input") for _ in range(3)] == [0, 1, 2]
            # A fresh manager starts at zero: warm processes name files
            # exactly like fresh ones.
            assert b.next_sequence("input") == 0
            assert a.next_sequence("run") == 0  # kinds are independent
        finally:
            a.close()
            b.close()
