"""Append/scan record files organized in fixed-size pages."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.storage.backend import Page, Record
from repro.storage.iostats import file_label
from repro.storage.records import RecordCodec, concat_pages

if TYPE_CHECKING:
    from repro.storage.buffer import BufferPool


class PagedFile:
    """A named sequence of pages, each a read-only array of up to ``E``
    records of the file's codec dtype.

    The level files, partition files, run files, and result files of all
    three join algorithms are ``PagedFile`` instances; every access goes
    through the shared buffer pool so the I/O ledger sees it.  A file
    keeps the name it was created under (a sort names its output when
    it creates it; nothing is renamed).
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
        """Add one record at the end of the file: :meth:`extend` by one."""
        self.extend([record])

    def extend(self, records: Page | Iterable[Record]) -> None:
        """Append a page array (or records, as tuples), one buffer pool
        interaction per page touched.  A tail page that fills is written
        behind at once, so one partial page per open output file stays in
        the pool.  The ledger is that of appending the records one at a
        time: the same pages created, written behind and flushed in the
        same per-file order, and one pool event per record (a create for
        a fresh page's first record, a hit for every other)."""
        rows = self.codec.page(records)
        hits = done = 0
        while done < len(rows):
            fresh = self.num_pages == 0 or self._tail_count == self.records_per_page
            room = self.records_per_page - (0 if fresh else self._tail_count)
            chunk = rows[done : done + room]
            done += len(chunk)
            if fresh:
                if self.num_pages > 0:
                    self.pool.write_behind(self.name, self.num_pages - 1)
                frame = self.pool.create(self.name, self.num_pages)
                frame.records = chunk
                self.num_pages += 1
                self._tail_count = 0
            else:
                # One fetch for the whole chunk; it records the hit (or
                # the re-read, under pool pressure) the first record's
                # scalar append would have caused.
                frame = self.pool.fetch(self.name, self.num_pages - 1)
                frame.records = concat_pages((frame.records, chunk))
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

    def read_page(self, page_no: int) -> Page:
        """One page's records: the buffered page itself (read-only)."""
        if not 0 <= page_no < self.num_pages:
            raise IndexError(f"page {page_no} outside [0, {self.num_pages})")
        frame = self.pool.fetch(self.name, page_no)
        self.pool.unpin(self.name, page_no)
        return frame.records

    def scan(self) -> Iterator[Record]:
        """Yield every record in file order, as a tuple (page at a time)."""
        for page in self.scan_pages():
            yield from page.tolist()

    def scan_pages(self) -> Iterator[Page]:
        """Yield the pages in file order."""
        for page_no in range(self.num_pages):
            yield self.read_page(page_no)

    def read_all(self) -> Page:
        """Every record as one array, read a page at a time."""
        return concat_pages(list(self.scan_pages()), self.codec.dtype)

    def flush(self) -> None:
        """Force dirty pages of this file to the backend."""
        self.pool.flush(self.name)
