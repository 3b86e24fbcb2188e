"""LRU buffer pool with pin/unpin and write-back.

All logical page accesses in the library go through this pool; only
misses and dirty evictions reach the backend, and each backend transfer
is recorded in the :class:`~repro.storage.iostats.IOStats` ledger.
This is how the library measures the quantity the paper's entire
section 4 is written in: physical page reads and writes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.storage.backend import Page, StorageBackend
from repro.storage.iostats import IOStats, file_label

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry


class BufferPoolExhausted(RuntimeError):
    """Raised when every frame is pinned and a new page is needed."""


class Frame:
    """One buffer frame: cached page contents plus bookkeeping.  A writer
    replaces the read-only ``records`` page, never changes it."""

    __slots__ = ("records", "dirty", "pins")

    def __init__(self, records: Page | list, dirty: bool) -> None:
        self.records = records
        self.dirty = dirty
        self.pins = 0


class BufferPool:
    """A fixed-capacity LRU page cache.

    ``capacity`` is the paper's ``M`` (memory size in pages).  Pages are
    pinned with :meth:`fetch` or :meth:`create` and released with
    :meth:`unpin`; eviction writes dirty frames back to the backend.
    """

    def __init__(
        self,
        backend: StorageBackend,
        capacity: int,
        stats: IOStats,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.backend = backend
        self.capacity = capacity
        self.stats = stats
        # Observability only (hit/miss/eviction/write-back series);
        # None skips the hooks. The simulated ledger lives in `stats`.
        self.metrics = metrics
        self._frames: OrderedDict[tuple[str, int], Frame] = OrderedDict()

    def __len__(self) -> int:
        return len(self._frames)

    def fetch(self, file_name: str, page_no: int) -> Frame:
        """Pin and return the frame holding the given page, reading it
        from the backend on a miss."""
        key = (file_name, page_no)
        frame = self._frames.get(key)
        if frame is not None:
            self._frames.move_to_end(key)
            self.stats.record_hit()
            if self.metrics is not None:
                self.metrics.count("buffer.hits")
        else:
            self._make_room()
            records = self.backend.read_page(file_name, page_no)
            self.stats.record_read(file_name, page_no)
            if self.metrics is not None:
                self.metrics.count("buffer.misses")
            frame = Frame(records, dirty=False)
            self._frames[key] = frame
        frame.pins += 1
        return frame

    def create(self, file_name: str, page_no: int) -> Frame:
        """Pin and return a frame for a brand-new page (no read I/O)."""
        key = (file_name, page_no)
        if key in self._frames:
            raise ValueError(f"page {key} already buffered")
        self._make_room()
        frame = Frame([], dirty=True)
        self._frames[key] = frame
        frame.pins += 1
        return frame

    def unpin(self, file_name: str, page_no: int, dirty: bool = False) -> None:
        """Release one pin; ``dirty=True`` marks the page for write-back."""
        frame = self._frames[(file_name, page_no)]
        if frame.pins <= 0:
            raise RuntimeError(f"unpin of unpinned page ({file_name}, {page_no})")
        frame.pins -= 1
        if dirty:
            frame.dirty = True

    def _make_room(self) -> None:
        """Evict the least recently used unpinned frame if full."""
        if len(self._frames) < self.capacity:
            return
        for key, frame in self._frames.items():
            if frame.pins == 0:
                self._evict(key, frame)
                return
        raise BufferPoolExhausted(
            f"all {self.capacity} frames pinned; cannot fetch another page"
        )

    def _evict(self, key: tuple[str, int], frame: Frame) -> None:
        if frame.dirty:
            self.backend.write_page(key[0], key[1], frame.records)
            self.stats.record_write(key[0], key[1])
            if self.metrics is not None:
                self.metrics.count("buffer.writebacks", file=file_label(key[0]))
        if self.metrics is not None:
            self.metrics.count("buffer.evictions", file=file_label(key[0]))
        del self._frames[key]

    def flush(self, file_name: str | None = None) -> None:
        """Write back dirty frames (of one file, or all) without evicting."""
        for (name, page_no), frame in self._frames.items():
            if file_name is not None and name != file_name:
                continue
            if frame.dirty:
                self.backend.write_page(name, page_no, frame.records)
                self.stats.record_write(name, page_no)
                if self.metrics is not None:
                    self.metrics.count("buffer.writebacks", file=file_label(name))
                frame.dirty = False

    def invalidate(self, file_name: str | None = None) -> None:
        """Flush then drop frames — used at operator phase boundaries so
        that page I/O counts match the paper's phase-by-phase analysis
        (each phase re-reads its input from disk)."""
        self.flush(file_name)
        keys = [
            key
            for key, frame in self._frames.items()
            if file_name is None or key[0] == file_name
        ]
        for key in keys:
            if self._frames[key].pins > 0:
                raise RuntimeError(f"cannot invalidate pinned page {key}")
            del self._frames[key]

    def write_behind(self, file_name: str, page_no: int) -> None:
        """Flush one page and drop its frame (no-op if absent/pinned).

        Called by :class:`~repro.storage.pagedfile.PagedFile` the moment
        an output page fills: full output pages go straight to disk
        sequentially instead of lingering and forcing the LRU to evict
        some *partial* output buffer (which would have to be read back
        — the classic partitioning thrash).
        """
        key = (file_name, page_no)
        frame = self._frames.get(key)
        if frame is None or frame.pins > 0:
            return
        self._evict(key, frame)

    def release(self, file_name: str, page_no: int) -> None:
        """Drop one clean, unpinned frame without any I/O (no-op when
        the frame is absent, pinned, or dirty).

        Block scans call this after copying a page out, so a bulk
        reader pulling many input pages per batch does not push the
        partial output tails of other files out of the LRU — keeping
        the eviction (and therefore ledger) behavior of the batched
        partition pipeline identical to the record-at-a-time path.
        """
        key = (file_name, page_no)
        frame = self._frames.get(key)
        if frame is None or frame.pins > 0 or frame.dirty:
            return
        del self._frames[key]

    def drop_file(self, file_name: str) -> None:
        """Discard frames of a deleted file without writing them back."""
        for key in [k for k in self._frames if k[0] == file_name]:
            del self._frames[key]

    def clear(self) -> None:
        """Drop every frame, pinned or not, without any I/O.

        Manager close only: unlike :meth:`invalidate` this never raises
        on a pinned frame, so a close running during exception
        unwinding (e.g. a fault aborted a scan mid-pin) cannot mask the
        original error — and a long-lived process cycling managers
        cannot accumulate frames across open-query-close cycles.
        """
        self._frames.clear()
