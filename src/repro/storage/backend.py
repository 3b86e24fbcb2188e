"""Physical storage backends.

The buffer pool talks to a backend through two operations: read a page,
write a page.  This module holds the contract and
:class:`MemoryBackend`, whose pages live in a dictionary.  That is the
default for experiments: I/O is *counted* (that is what the paper's
analysis is about) without paying milliseconds of real disk latency per
simulated page.  The one file-backed store is
:class:`~repro.storage.durable.DurableBackend`; it proves that the whole
stack round-trips through genuine files and survives a kill.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from repro.storage.records import RecordCodec

Record = tuple[Any, ...]
"""One record as Python values: a page row's ``tolist()`` item."""

Page = np.ndarray
"""A page: a read-only array of its file's codec dtype, at most ``E`` rows."""


class BackendClosedError(RuntimeError):
    """An operation was issued to a backend after ``close()``.

    ``close()`` itself is idempotent on every backend; any *other*
    operation on a closed backend raises this instead of whatever
    arbitrary failure the stale internal state would have produced.
    """


class StorageBackend(ABC):
    """Physical page store keyed by (file name, page number).  A file is
    created under its final name and keeps it: there is no rename.

    Lifecycle contract: ``close()`` flushes/releases resources and may
    be called any number of times; every other operation on a closed
    backend raises :class:`BackendClosedError`.
    """

    bytes_written = fsyncs = 0  # physical counts, where a backend keeps them (durable)

    @abstractmethod
    def create_file(self, name: str, codec: RecordCodec, page_size: int) -> None:
        """Register a new (empty) file."""

    @abstractmethod
    def delete_file(self, name: str) -> None:
        """Remove a file and its pages."""

    @abstractmethod
    def read_page(self, name: str, page_no: int) -> Page:
        """Return the records stored in one page, as a read-only page."""

    @abstractmethod
    def write_page(self, name: str, page_no: int, records: Page | Sequence[Record]) -> None:
        """Persist the records of one page (``ValueError`` if they
        exceed the file's page capacity).  Changing ``records`` once
        this returns does not change the stored page."""

    def sync(self) -> None:
        """Flush every buffered write through to the medium.

        The durability contract: after ``sync()`` returns, every page
        acknowledged by ``write_page`` survives a process kill (to the
        extent the medium allows).  The default is a no-op — correct
        for :class:`MemoryBackend`, whose medium *is* process memory.
        """

    def journal_append(self, note: bytes, reset: bool = False) -> None:
        """Append one opaque client note to the store's journal, first
        discarding every earlier note if ``reset`` — one atomic, durable
        step.  A no-op by default, like ``sync()``: a medium that dies
        with the process has nothing to recover notes into."""

    def journal(self) -> list[bytes]:
        """The notes since the last reset, oldest first (none by default)."""
        return []

    @abstractmethod
    def close(self) -> None:
        """Release any held resources (idempotent).  Implies ``sync()``
        on backends with a durable medium."""


class MemoryBackend(StorageBackend):
    """Pages held in process memory (I/O is counted, not performed)."""

    def __init__(self) -> None:
        # name -> (codec, capacity, page number -> page): deleting a
        # file touches that file's pages only.
        self._files: dict[str, tuple[RecordCodec, int, dict[int, Page]]] = {}
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise BackendClosedError("operation on a closed MemoryBackend")

    def create_file(self, name: str, codec: RecordCodec, page_size: int) -> None:
        self._check_open()
        if name in self._files:
            raise FileExistsError(f"storage file {name!r} already exists")
        self._files[name] = (codec, codec.records_per_page(page_size), {})

    def delete_file(self, name: str) -> None:
        self._check_open()
        self._files.pop(name, None)

    def read_page(self, name: str, page_no: int) -> Page:
        self._check_open()
        try:
            return self._files[name][2][page_no]
        except KeyError:
            raise ValueError(f"page {page_no} of {name!r} was never written") from None

    def write_page(self, name: str, page_no: int, records: Page | Sequence[Record]) -> None:
        self._check_open()
        codec, capacity, pages = self._files[name]
        if len(records) > capacity:
            raise ValueError(f"{len(records)} records exceed page capacity {capacity}")
        # A read-only copy of its own, so read_page hands it out as is.
        pages[page_no] = codec.decode_page(codec.encode_page(records), len(records))

    def close(self) -> None:
        self._closed = True
        self._files.clear()
