"""Physical storage backends.

The buffer pool talks to a backend through two operations: read a page,
write a page.  Two backends are provided:

- :class:`MemoryBackend` — pages live in a dictionary.  This is the
  default for experiments: I/O is *counted* (that is what the paper's
  analysis is about) without paying milliseconds of real disk latency
  per simulated page.
- :class:`FileBackend` — pages are real fixed-size blocks in real files
  on disk, serialized with the file's record codec.  Used to validate
  that the whole stack round-trips through genuine I/O.
"""

from __future__ import annotations

import os
import struct
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any

from repro.storage.records import RecordCodec

Record = tuple[Any, ...]


class BackendClosedError(RuntimeError):
    """An operation was issued to a backend after ``close()``.

    ``close()`` itself is idempotent on every backend; any *other*
    operation on a closed backend raises this instead of whatever
    arbitrary failure the stale internal state would have produced.
    """


class StorageBackend(ABC):
    """Physical page store keyed by (file name, page number).

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
    def rename_file(self, old: str, new: str) -> None:
        """Move a file's pages under a new name (metadata only; the new
        name must not already exist at the backend)."""

    @abstractmethod
    def read_page(self, name: str, page_no: int) -> list[Record]:
        """Return the records stored in one page."""

    @abstractmethod
    def write_page(self, name: str, page_no: int, records: list[Record]) -> None:
        """Persist the records of one page."""

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
        self._pages: dict[tuple[str, int], list[Record]] = {}
        self._files: set[str] = set()
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise BackendClosedError("operation on a closed MemoryBackend")

    def create_file(self, name: str, codec: RecordCodec, page_size: int) -> None:
        self._check_open()
        if name in self._files:
            raise FileExistsError(f"storage file {name!r} already exists")
        self._files.add(name)

    def delete_file(self, name: str) -> None:
        self._check_open()
        self._files.discard(name)
        for key in [k for k in self._pages if k[0] == name]:
            del self._pages[key]

    def rename_file(self, old: str, new: str) -> None:
        self._check_open()
        if old not in self._files:
            raise FileNotFoundError(f"no storage file named {old!r}")
        if new in self._files:
            raise FileExistsError(f"storage file {new!r} already exists")
        self._files.discard(old)
        self._files.add(new)
        for key in [k for k in self._pages if k[0] == old]:
            self._pages[(new, key[1])] = self._pages.pop(key)

    def read_page(self, name: str, page_no: int) -> list[Record]:
        self._check_open()
        try:
            return list(self._pages[(name, page_no)])
        except KeyError:
            raise ValueError(f"page {page_no} of {name!r} was never written") from None

    def write_page(self, name: str, page_no: int, records: list[Record]) -> None:
        self._check_open()
        self._pages[(name, page_no)] = list(records)

    def close(self) -> None:
        self._closed = True
        self._pages.clear()
        self._files.clear()


_PAGE_HEADER = struct.Struct("<I")


class FileBackend(StorageBackend):
    """Pages as fixed-size blocks in real files.

    Block layout: a 4-byte record count followed by ``E`` fixed-size
    record slots (``E = page_size // record_size``), zero-padded.
    """

    def __init__(self, directory: str | os.PathLike[str]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._codecs: dict[str, RecordCodec] = {}
        self._page_sizes: dict[str, int] = {}
        self._handles: dict[str, Any] = {}
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise BackendClosedError("operation on a closed FileBackend")

    def _path(self, name: str) -> Path:
        safe = name.replace(os.sep, "_").replace("/", "_")
        return self.directory / f"{safe}.pages"

    def _block_size(self, name: str) -> int:
        codec = self._codecs[name]
        capacity = codec.records_per_page(self._page_sizes[name])
        return _PAGE_HEADER.size + capacity * codec.record_size

    def _handle(self, name: str):
        if name not in self._handles:
            self._handles[name] = open(self._path(name), "r+b")
        return self._handles[name]

    def create_file(self, name: str, codec: RecordCodec, page_size: int) -> None:
        self._check_open()
        if name in self._codecs:
            raise FileExistsError(f"storage file {name!r} already exists")
        self._codecs[name] = codec
        self._page_sizes[name] = page_size
        self._path(name).write_bytes(b"")

    def delete_file(self, name: str) -> None:
        self._check_open()
        handle = self._handles.pop(name, None)
        if handle is not None:
            handle.close()
        self._codecs.pop(name, None)
        self._page_sizes.pop(name, None)
        path = self._path(name)
        if path.exists():
            path.unlink()

    def rename_file(self, old: str, new: str) -> None:
        self._check_open()
        if old not in self._codecs:
            raise FileNotFoundError(f"no storage file named {old!r}")
        if new in self._codecs:
            raise FileExistsError(f"storage file {new!r} already exists")
        handle = self._handles.pop(old, None)
        if handle is not None:
            handle.close()
        self._codecs[new] = self._codecs.pop(old)
        self._page_sizes[new] = self._page_sizes.pop(old)
        os.replace(self._path(old), self._path(new))

    def read_page(self, name: str, page_no: int) -> list[Record]:
        self._check_open()
        codec = self._codecs[name]
        block_size = self._block_size(name)
        handle = self._handle(name)
        handle.seek(page_no * block_size)
        block = handle.read(block_size)
        if len(block) < _PAGE_HEADER.size:
            raise ValueError(f"page {page_no} of {name!r} was never written")
        (count,) = _PAGE_HEADER.unpack_from(block, 0)
        return codec.decode_page(block[_PAGE_HEADER.size :], count)

    def write_page(self, name: str, page_no: int, records: list[Record]) -> None:
        self._check_open()
        codec = self._codecs[name]
        capacity = codec.records_per_page(self._page_sizes[name])
        if len(records) > capacity:
            raise ValueError(
                f"{len(records)} records exceed page capacity {capacity}"
            )
        block_size = self._block_size(name)
        block = _PAGE_HEADER.pack(len(records)) + codec.encode_page(records)
        block += b"\x00" * (block_size - len(block))
        handle = self._handle(name)
        end = handle.seek(0, os.SEEK_END)
        target = page_no * block_size
        if target > end:
            # Fill any gap so seeks past EOF stay well-defined.
            handle.write(b"\x00" * (target - end))
        handle.seek(target)
        handle.write(block)

    def sync(self) -> None:
        """Flush and ``fsync`` every open file: the explicit durability
        point of the non-WAL backend.  ``write_page`` alone only hands
        bytes to the OS; only after ``sync()`` (or ``close()``) are they
        on the medium."""
        self._check_open()
        for handle in self._handles.values():
            handle.flush()
            os.fsync(handle.fileno())

    def close(self) -> None:
        self._closed = True
        for handle in self._handles.values():
            handle.flush()
            os.fsync(handle.fileno())
            handle.close()
        self._handles.clear()
