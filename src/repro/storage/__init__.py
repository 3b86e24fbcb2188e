"""Storage manager: paged files, buffer pool, and I/O accounting.

The paper's three algorithms were implemented "on top of a common
storage manager that provides efficient I/O" (section 5).  This
subpackage is that storage manager:

- :class:`~repro.storage.manager.StorageManager` — creates and drops
  named paged files, owns the buffer pool and the I/O ledger.
- :class:`~repro.storage.pagedfile.PagedFile` — an append/scan record
  file organized in fixed-size pages.
- :class:`~repro.storage.buffer.BufferPool` — LRU page cache with
  pin/unpin and write-back, the component that turns logical page
  accesses into counted physical I/Os.
- :class:`~repro.storage.iostats.IOStats` — the ledger: page reads and
  writes (sequential vs. random), per-phase breakdown, CPU operation
  counts.
- :class:`~repro.storage.costs.DiskModel` /
  :class:`~repro.storage.costs.CpuModel` — convert ledger counts into
  simulated seconds, calibrated to the paper's testbed (Seagate Hawk,
  18.1 ms average random access; 10 microseconds per Hilbert value).
"""

from repro.storage.buffer import BufferPool
from repro.storage.costs import CostModel, CpuModel, DiskModel
from repro.storage.durable import DurableBackend
from repro.storage.iostats import IOStats, PhaseStats
from repro.storage.manager import StorageConfig, StorageManager
from repro.storage.pagedfile import PagedFile
from repro.storage.records import EntityDescriptorCodec, RecordCodec
from repro.storage.wal import WalRecord, WriteAheadLog

__all__ = [
    "BufferPool",
    "CostModel",
    "CpuModel",
    "DiskModel",
    "DurableBackend",
    "EntityDescriptorCodec",
    "IOStats",
    "PagedFile",
    "PhaseStats",
    "RecordCodec",
    "StorageConfig",
    "StorageManager",
    "WalRecord",
    "WriteAheadLog",
]
