"""Failure injection: the storage stack must fail loudly and stay
consistent when the backend misbehaves or inputs are malformed.

Write faults are injected at the file-I/O seam, under the durable
store (:class:`repro.verify.recorder.FaultyDisk`)."""

import errno

import pytest

from repro.obs import fileio
from repro.storage.backend import MemoryBackend
from repro.storage.buffer import BufferPool
from repro.storage.durable import DATA_FILE, DurableBackend
from repro.storage.iostats import IOStats
from repro.storage.manager import StorageConfig, StorageManager
from repro.storage.pagedfile import PagedFile
from repro.storage.records import EntityDescriptorCodec
from repro.verify.recorder import Fault, FaultyDisk


class TestBackendFailures:
    def make(self, fail_after):
        """A 2-frame pool over a durable store whose page write number
        ``fail_after + 1`` fails with EIO."""
        disk = FaultyDisk()
        with fileio.using(disk):
            backend = DurableBackend("/store", page_size=4096)
        disk.arm(Fault("write", DATA_FILE, errno.EIO, nth=fail_after + 1))
        backend.create_file("f", EntityDescriptorCodec(), 4096)
        stats = IOStats()
        pool = BufferPool(backend, 2, stats)
        handle = PagedFile("f", EntityDescriptorCodec(), 4096, pool)
        return backend, pool, handle

    def test_write_failure_propagates_from_eviction(self):
        backend, pool, handle = self.make(fail_after=0)
        with pytest.raises(OSError, match="Input/output error"):
            # Fill pages until an eviction forces the failing write.
            for i in range(400):
                handle.append((i, 0.0, 0.0, 0.0, 0.0, 0))

    def test_write_failure_propagates_from_flush(self):
        backend, pool, handle = self.make(fail_after=0)
        handle.append((1, 0.0, 0.0, 0.0, 0.0, 0))
        with pytest.raises(OSError, match="Input/output error"):
            pool.flush()

    def test_reads_keep_working_after_failed_flush(self):
        backend, pool, handle = self.make(fail_after=1)
        handle.append((1, 0.0, 0.0, 0.0, 0.0, 0))
        pool.flush()  # first write succeeds
        handle.append((2, 0.0, 0.0, 0.0, 0.0, 0))
        with pytest.raises(OSError, match="Input/output error"):
            pool.flush()  # the rewrite fails, and fails the store
        assert backend.read_page("f", 0).tolist() == [(1, 0.0, 0.0, 0.0, 0.0, 0)]

    def test_missing_page_read_is_loud(self):
        backend = MemoryBackend()
        backend.create_file("f", EntityDescriptorCodec(), 4096)
        pool = BufferPool(backend, 2, IOStats())
        with pytest.raises(ValueError, match="never written"):
            pool.fetch("f", 7)


class TestMalformedInput:
    def test_bad_record_rejected_by_codec(self):
        codec = EntityDescriptorCodec()
        with pytest.raises(Exception):
            codec.encode(("not-an-int", 0.0, 0.0, 0.0, 0.0, 0))

    def test_coordinates_outside_unit_square_rejected(self, storage):
        from repro.core.s3j import SizeSeparationSpatialJoin

        handle = storage.create_file("bad")
        handle.append((1, -0.5, 0.0, 0.5, 0.5, 0))  # xlo < 0
        other = storage.create_file("ok")
        other.append((2, 0.1, 0.1, 0.2, 0.2, 0))
        algo = SizeSeparationSpatialJoin(storage)
        with pytest.raises(ValueError):
            algo.join(handle, other)

    def test_nan_coordinates_rejected(self):
        from repro.geometry.rect import Rect

        nan = float("nan")
        # NaN violates xlo <= xhi in every comparison direction.
        rect = Rect(nan, 0.0, nan, 1.0)  # constructor can't catch NaN order
        from repro.filtertree.levels import LevelAssigner

        with pytest.raises(ValueError):
            LevelAssigner().level(rect)


class TestResourceLifecycle:
    def test_manager_close_idempotent(self):
        manager = StorageManager(StorageConfig(buffer_pages=4))
        manager.create_file("x").append((1, 0.0, 0.0, 0.0, 0.0, 0))
        manager.close()
        manager.close()  # second close must not raise

    def test_context_manager_flushes(self, tmp_path):
        config = StorageConfig(
            backend="durable", directory=str(tmp_path), buffer_pages=4
        )
        with StorageManager(config) as manager:
            manager.create_file("x").append((1, 0.0, 0.0, 0.0, 0.0, 0))
        # The page reached the store even though it was never explicitly
        # flushed: a reopen of the directory reads it back.
        with StorageManager(config) as manager:
            handle = manager.attach_file("x")
            assert list(handle.scan()) == [(1, 0.0, 0.0, 0.0, 0.0, 0)]
