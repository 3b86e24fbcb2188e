"""The file-I/O seam, and atomic writes through it.

Every ``open``, ``fsync``, ``replace`` and ``unlink`` of the durable
store, its write-ahead log and the artifact writers goes through one
small file-system object: :class:`OsFiles` is the real one, and
:func:`using` installs another — the crash gate's recording disk
(:mod:`repro.verify.recorder`) — for code run inside it.  A store binds
the current one when it is constructed and keeps it for life.

:meth:`OsFiles.atomic_replace` is the one atomic write — temp sibling,
``fsync``, ``os.replace``, then an ``fsync`` of the directory so the
rename is durable too: an interrupted write leaves the previous file or
the new one complete, never a truncated document.  The temp sibling's
name is fixed, so a path has one writer at a time.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, BinaryIO, Iterator

PathArg = str | os.PathLike[str]


class OsFiles:
    """The real file system.  ``os`` functions are looked up per call,
    so a process that swaps ``os.fsync`` (the layered benchmark counts
    flushes that way) sees every call."""

    def open(self, path: PathArg, mode: str) -> BinaryIO:
        return open(path, mode)

    def fsync(self, handle: BinaryIO) -> None:
        handle.flush()
        os.fsync(handle.fileno())

    def fsync_dir(self, directory: PathArg) -> None:
        """Make the creates, renames and unlinks in ``directory`` durable."""
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def replace(self, src: PathArg, dst: PathArg) -> None:
        os.replace(src, dst)

    def unlink(self, path: PathArg) -> None:
        os.unlink(path)

    def exists(self, path: PathArg) -> bool:
        return os.path.exists(path)

    def listdir(self, directory: PathArg) -> list[str]:
        return os.listdir(directory)

    def makedirs(self, directory: PathArg) -> None:
        os.makedirs(directory, exist_ok=True)

    def read_bytes(self, path: PathArg) -> bytes:
        with self.open(path, "rb") as handle:
            return handle.read()

    def atomic_replace(self, path: PathArg, data: bytes) -> None:
        """Write ``data`` to ``path`` atomically and durably; a failure
        removes the temp file, leaving neither a torn file nor litter."""
        path = os.fspath(path)
        tmp = path + ".tmp"
        try:
            with self.open(tmp, "wb") as handle:
                handle.write(data)
                self.fsync(handle)
            self.replace(tmp, path)
        except BaseException:
            try:
                self.unlink(tmp)
            except OSError:
                pass
            raise
        self.fsync_dir(os.path.dirname(path) or ".")


_current: ContextVar[OsFiles] = ContextVar("files", default=OsFiles())


def current() -> OsFiles:
    """The file system new stores and writes bind to, in this thread or task."""
    return _current.get()


@contextmanager
def using(files: OsFiles) -> Iterator[OsFiles]:
    """Route the file I/O of code run inside the block through ``files``."""
    token = _current.set(files)
    try:
        yield files
    finally:
        _current.reset(token)


def atomic_write_text(path: PathArg, text: str) -> None:
    """Write ``text`` to ``path`` atomically (:meth:`OsFiles.atomic_replace`)."""
    current().atomic_replace(path, text.encode("utf-8"))


def atomic_write_json(
    path: PathArg, payload: Any, indent: int | None = 2, sort_keys: bool = True
) -> None:
    """Serialize ``payload`` and write it atomically.

    Serialization happens *before* the temporary file is created, so a
    payload that fails to encode never disturbs the existing artifact.
    """
    atomic_write_text(path, json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n")
