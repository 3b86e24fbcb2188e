"""Append/scan record files organized in fixed-size pages."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.storage.backend import Record
from repro.storage.iostats import file_label
from repro.storage.records import RecordCodec

if TYPE_CHECKING:
    from repro.storage.buffer import BufferPool


class PagedFile:
    """A named sequence of pages, each holding up to ``E`` records.

    The level files, partition files, run files, and result files of all
    three join algorithms are ``PagedFile`` instances; every access goes
    through the shared buffer pool so the I/O ledger sees it.
    """

    def __init__(
        self, name: str, codec: RecordCodec, page_size: int, pool: BufferPool
    ) -> None:
        self.name = name
        self.codec = codec
        self.page_size = page_size
        self.pool = pool
        self.records_per_page = codec.records_per_page(page_size)
        self.num_pages = 0
        self.num_records = 0
        self._tail_count = 0  # records in the last page
        # Observability only; None disables the per-file hooks.
        self._metrics = pool.metrics
        self._metric_label = file_label(name)

    def __repr__(self) -> str:
        return (
            f"PagedFile({self.name!r}, pages={self.num_pages}, "
            f"records={self.num_records})"
        )

    def append(self, record: Record) -> None:
        """Add one record at the end of the file.

        When the tail page fills, it is written behind immediately so
        only one (partial) buffer page per open output file occupies
        the pool.
        """
        if self.num_pages == 0 or self._tail_count == self.records_per_page:
            if self.num_pages > 0:
                self.pool.write_behind(self.name, self.num_pages - 1)
            frame = self.pool.create(self.name, self.num_pages)
            self.num_pages += 1
            self._tail_count = 0
        else:
            frame = self.pool.fetch(self.name, self.num_pages - 1)
        frame.records.append(record)
        self._tail_count += 1
        self.num_records += 1
        if self._metrics is not None:
            self._metrics.count("file.records_appended", file=self._metric_label)
        self.pool.unpin(self.name, self.num_pages - 1, dirty=True)

    def extend(self, records: Iterable[Record]) -> None:
        """Append an iterable of records, filling whole pages per buffer
        pool interaction instead of one fetch/unpin round-trip each.

        The simulated ledger is kept *identical* to an equivalent loop
        of :meth:`append`: the same pages are created, written behind
        and flushed in the same per-file order, and the buffer-hit count
        matches what the per-record tail-page fetches would have
        recorded (one pool event per record: a create for the first
        record of a fresh page, a hit for every other record landing on
        a buffered tail).  Only the Python-level overhead — ``O(1)``
        pool interactions per *page* instead of per *record* — differs.

        Lazy iterables are consumed one page-chunk at a time, so runs
        larger than memory can still be streamed through.
        """
        source = iter(records)
        hits = 0
        while True:
            fresh = self.num_pages == 0 or self._tail_count == self.records_per_page
            room = self.records_per_page - (0 if fresh else self._tail_count)
            chunk = list(itertools.islice(source, room))
            if not chunk:
                break
            if fresh:
                if self.num_pages > 0:
                    self.pool.write_behind(self.name, self.num_pages - 1)
                frame = self.pool.create(self.name, self.num_pages)
                self.num_pages += 1
                self._tail_count = 0
            else:
                # One fetch for the whole chunk; it records the hit (or
                # the re-read, under pool pressure) the first record's
                # scalar append would have caused.
                frame = self.pool.fetch(self.name, self.num_pages - 1)
            frame.records.extend(chunk)
            self._tail_count += len(chunk)
            self.num_records += len(chunk)
            hits += len(chunk) - 1
            if self._metrics is not None:
                self._metrics.count(
                    "file.records_appended", len(chunk), file=self._metric_label
                )
                self._metrics.observe(
                    "file.extend_chunk_records", len(chunk), file=self._metric_label
                )
            self.pool.unpin(self.name, self.num_pages - 1, dirty=True)
        self.pool.stats.record_hits(hits)

    def append_many(self, records: Iterator[Record] | list[Record]) -> None:
        """Append an iterable of records in order (bulk path; the
        ledger matches a record-at-a-time append loop exactly)."""
        self.extend(records)

    def read_page(self, page_no: int) -> list[Record]:
        """A copy of one page's records."""
        if not 0 <= page_no < self.num_pages:
            raise IndexError(f"page {page_no} outside [0, {self.num_pages})")
        frame = self.pool.fetch(self.name, page_no)
        try:
            return list(frame.records)
        finally:
            self.pool.unpin(self.name, page_no)

    def scan(self) -> Iterator[Record]:
        """Yield every record in file order (page at a time)."""
        for page_no in range(self.num_pages):
            yield from self.read_page(page_no)

    def scan_pages(self) -> Iterator[list[Record]]:
        """Yield page record-lists in file order."""
        for page_no in range(self.num_pages):
            yield self.read_page(page_no)

    def flush(self) -> None:
        """Force dirty pages of this file to the backend."""
        self.pool.flush(self.name)

    # -- metadata adoption ------------------------------------------------

    def adopt_name(self, new_name: str) -> None:
        """Take on a new file name (metric label included).

        This updates only this handle's identity; moving the backend
        pages and buffered frames is the storage manager's job — use
        :meth:`~repro.storage.manager.StorageManager.rename_file`
        rather than calling this directly.
        """
        self.name = new_name
        self._metric_label = file_label(new_name)
