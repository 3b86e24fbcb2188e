"""The storage manager: named files, buffer pool, ledger, cost models."""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field

from repro.obs import NULL_OBS, Observability
from repro.storage.backend import MemoryBackend, StorageBackend
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostModel
from repro.storage.iostats import IOStats
from repro.storage.pagedfile import PagedFile
from repro.storage.records import EntityDescriptorCodec, RecordCodec

DEFAULT_PAGE_SIZE = 4096
"""4 KB pages, as in the paper's bitmap sizing example (section 3.2)."""


@dataclass(frozen=True)
class StorageConfig:
    """Configuration of one storage manager instance.

    ``buffer_pages`` is the paper's ``M``: the number of main-memory
    page frames available to an operator.  Experiments set it to 10% of
    the combined input size (section 5) unless stated otherwise.

    ``backend`` selects the physical page store: ``memory`` (counted,
    not performed) or ``durable`` (real files, write-ahead logged,
    crash-consistent; DESIGN.md section 16).  The simulated ledger is
    backend-independent: the same run produces byte-identical I/O
    counts on both.
    """

    page_size: int = DEFAULT_PAGE_SIZE
    buffer_pages: int = 128
    backend: str = "memory"
    directory: str | None = None
    cost_model: CostModel = field(default_factory=CostModel)


class StorageManager:
    """Creates, opens, and drops paged files over one buffer pool.

    Use as a context manager so file handles and temporary directories
    are released::

        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            f = storage.create_file("level-0")
            ...
    """

    def __init__(
        self,
        config: StorageConfig | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.config = config or StorageConfig()
        # Observability is opt-in: NULL_OBS (the default) is a no-op
        # tracer plus registry, and the low-level hooks are handed None
        # so instrumentation costs nothing when disabled.  Enabled or
        # not, the simulated ledger records the same counts.
        self.obs = obs if obs is not None else NULL_OBS
        metrics = self.obs.active_metrics
        self.stats = IOStats(metrics=metrics)
        self.cost_model = self.config.cost_model
        self._tempdir: tempfile.TemporaryDirectory[str] | None = None
        self.backend = self._make_backend()
        self.pool = BufferPool(
            self.backend, self.config.buffer_pages, self.stats, metrics=metrics
        )
        self._files: dict[str, PagedFile] = {}
        self._sequences: dict[str, int] = {}
        self.closed = False

    def _make_backend(self) -> StorageBackend:
        if self.config.backend == "memory":
            return MemoryBackend()
        if self.config.backend == "durable":
            from repro.storage.durable import DurableBackend

            directory = self.config.directory
            if directory is None:
                self._tempdir = tempfile.TemporaryDirectory(prefix="repro-storage-")
                directory = self._tempdir.name
            return DurableBackend(directory, page_size=self.config.page_size)
        raise ValueError(
            f"unknown backend {self.config.backend!r}; choose 'memory' "
            "or 'durable'"
        )

    # -- file lifecycle -------------------------------------------------

    def create_file(self, name: str, codec: RecordCodec | None = None) -> PagedFile:
        """Create a new empty paged file (entity descriptors by default)."""
        if name in self._files:
            raise FileExistsError(f"storage file {name!r} already exists")
        codec = codec or EntityDescriptorCodec()
        self.backend.create_file(name, codec, self.config.page_size)
        handle = PagedFile(name, codec, self.config.page_size, self.pool)
        self._files[name] = handle
        return handle

    def open_file(self, name: str) -> PagedFile:
        """Return the handle of an existing file (KeyError-safe)."""
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(f"no storage file named {name!r}") from None

    def attach_file(self, name: str, codec: RecordCodec | None = None) -> PagedFile:
        """Adopt a file recovered from disk by a durable backend.

        The reopen counterpart of :meth:`create_file`: the file already
        exists in the backend's recovered catalog (a previous process
        wrote it), so no ``create_file`` call is issued — the codec is
        re-bound and a :class:`PagedFile` handle is rebuilt from the
        per-page record counts.  Counts are read directly from the
        backend, never through the buffer pool, so attaching leaves the
        simulated ledger untouched.  Only backends with a persistent
        catalog (``durable``) support this.
        """
        if name in self._files:
            raise FileExistsError(f"storage file {name!r} already open")
        codec = codec or EntityDescriptorCodec()
        backend = self.backend
        if not hasattr(backend, "attach_file"):
            raise ValueError(
                f"backend {self.config.backend!r} has no persistent "
                "catalog to attach files from"
            )
        backend.attach_file(name, codec, self.config.page_size)
        counts = backend.file_record_counts(name)
        handle = PagedFile(name, codec, self.config.page_size, self.pool)
        handle.num_pages = len(counts)
        handle.num_records = sum(counts)
        handle._tail_count = counts[-1] if counts else 0
        self._files[name] = handle
        return handle

    def stored_files(self) -> list[str]:
        """Names in the backend's persistent catalog (durable only)."""
        backend = self.backend
        return backend.stored_files() if hasattr(backend, "stored_files") else []

    def drop_file(self, name: str) -> None:
        """Delete a file: its buffered pages are discarded, not flushed."""
        handle = self._files.pop(name, None)
        if handle is None:
            raise FileNotFoundError(f"no storage file named {name!r}")
        self.pool.drop_file(name)
        self.backend.delete_file(name)

    def list_files(self) -> list[str]:
        """Names of all live files, sorted."""
        return sorted(self._files)

    def next_sequence(self, kind: str) -> int:
        """The next value of a per-manager named counter (0, 1, 2, ...).

        Internal file naming (join inputs, per-run prefixes, sort-run
        temp files) draws from these instead of module-level counters,
        so names depend only on what *this* manager has done — the Nth
        join in a warm process gets the same labels as a fresh process,
        which is what makes run reports byte-identical across both.
        """
        value = self._sequences.get(kind, 0)
        self._sequences[kind] = value + 1
        return value

    # -- accounting helpers ---------------------------------------------

    @property
    def page_size(self) -> int:
        return self.config.page_size

    @property
    def memory_pages(self) -> int:
        """The paper's ``M``."""
        return self.config.buffer_pages

    def descriptors_per_page(self) -> int:
        """The paper's ``E`` for the default entity descriptor codec."""
        return EntityDescriptorCodec().records_per_page(self.config.page_size)

    def phase_boundary(self) -> None:
        """Flush and drop all cached pages.

        Called between operator phases (partition -> sort -> join) so
        each phase pays its own input reads, matching the phase-by-phase
        page-I/O accounting of the paper's section 4.
        """
        self.pool.invalidate()

    def response_time(self) -> float:
        """Simulated response time of all work recorded so far."""
        return self.cost_model.response_time(self.stats.total)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Flush dirty pages and release backend resources (idempotent).

        After the first close every buffered frame is dropped and the
        file table cleared, so a long-lived process cycling through
        managers (the service's open-query-close loop) cannot leak pool
        frames or dangling handles; further calls are no-ops.
        """
        if self.closed:
            return
        self.closed = True
        try:
            self.pool.flush()
        finally:  # a failed flush still releases everything, then raises
            self.pool.clear()
            self._files.clear()
            self.backend.close()
            if self._tempdir is not None:
                self._tempdir.cleanup()
                self._tempdir = None

    def __enter__(self) -> StorageManager:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
