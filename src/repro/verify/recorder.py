"""A recording disk: what a power cut may leave, at every fsync boundary.

:class:`Recorder` is an in-memory file system behind the file-I/O seam
(:class:`repro.obs.fileio.OsFiles`).  Per file it keeps the bytes
durable as of its last ``fsync`` and the writes since; per directory,
the names as of its last directory ``fsync`` and the creates, renames
and unlinks since.  :meth:`Recorder.crash_states` lists the disk images
a power cut right now may leave (the crash-state model of ALICE, Pillai
et al., OSDI 2014, and CrashMonkey, Mohan et al., OSDI 2018):
``durable`` (fsynced bytes under fsynced names); ``<file>+<n>`` (plus
the first ``n`` later writes to one file) and ``<file>+<n>/torn`` (the
``n``-th cut at a 512-byte sector boundary it spans); ``<dir>:ns+<n>``
and ``<dir>:ns-<i>`` (a directory's first ``n`` name changes, or all but
the ``i``-th: they reach the disk in any order); and ``live`` (what a
``SIGKILL`` leaves).

A *boundary* is the instant before an ``fsync`` takes effect:
``on_boundary(recorder, site)`` is called there, ``site`` being the
caller's code location (``storage/wal.py:208 (sync)``).  A site in
``noop_sites`` makes nothing durable — the mutation check removes one
fsync that way, with no source edit.
"""

from __future__ import annotations

import errno
import io
import os
import sys
from pathlib import Path
from typing import Callable

from repro.obs.fileio import OsFiles

SECTOR = 512

State = dict[str, bytes]
"""A disk image: path -> file contents."""

Change = tuple[str, str, "_File | None"]
"""A name change: (directory, path, the inode it now names or None)."""


class _File:
    """One inode: durable bytes, live bytes, and the writes between
    (``(offset, data)``, or ``(size, None)`` for a truncate)."""

    def __init__(self, data: bytes = b"") -> None:
        self.durable, self.live = data, bytearray(data)
        self.writes: list[tuple[int, bytes | None]] = []


def _apply(content: bytearray, offset: int, data: bytes | None) -> None:
    if data is None:
        del content[offset:]
    content.extend(bytes(max(0, offset - len(content))))
    if data is not None:
        content[offset : offset + len(data)] = data


class _Handle(io.IOBase):
    """An open file: a position over one inode."""

    def __init__(self, disk: Recorder, path: str, node: _File, append: bool) -> None:
        self.disk, self.path, self.node, self.append = disk, path, node, append
        self.pos = len(node.live) if append else 0

    def write(self, data: bytes) -> int:
        if self.append:
            self.pos = len(self.node.live)
        self.disk.write(self, bytes(data))
        return len(data)

    def read(self, size: int = -1) -> bytes:
        end = len(self.node.live) if size < 0 else self.pos + size
        data = bytes(self.node.live[self.pos : end])
        self.pos += len(data)
        return data

    def seek(self, offset: int, whence: int = 0) -> int:
        self.pos = offset + (self.pos if whence == 1 else 0)
        return self.pos

    def truncate(self, size: int | None = None) -> int:
        self.disk.record(self.node, self.pos if size is None else size, None)
        return self.pos if size is None else size


class Recorder(OsFiles):
    """The recording disk; see the module docstring."""

    def __init__(
        self,
        state: State | None = None,
        on_boundary: Callable[[Recorder, str], None] | None = None,
        noop_sites: frozenset[str] = frozenset(),
    ) -> None:
        self.files = {path: _File(data) for path, data in (state or {}).items()}
        self.durable_names = dict(self.files)
        self.changes: list[Change] = []
        self.on_boundary, self.noop_sites = on_boundary, noop_sites

    def open(self, path: str | os.PathLike[str], mode: str) -> _Handle:  # type: ignore[override]
        path = os.fspath(path)
        node = self.files.get(path)
        if node is None:
            if "r" in mode:
                raise FileNotFoundError(errno.ENOENT, "No such file", path)
            node = self._link(path, _File())
        elif "w" in mode:
            self.record(node, 0, None)
        return _Handle(self, path, node, "a" in mode)

    def write(self, handle: _Handle, data: bytes) -> None:
        """Every write of every handle (tests inject errors here)."""
        self.record(handle.node, handle.pos, data)
        handle.pos += len(data)

    def record(self, node: _File, offset: int, data: bytes | None) -> None:
        node.writes.append((offset, data))
        _apply(node.live, offset, data)

    def fsync(self, handle: _Handle) -> None:  # type: ignore[override]
        if self._boundary():
            handle.node.durable, handle.node.writes = bytes(handle.node.live), []

    def fsync_dir(self, directory: str | os.PathLike[str]) -> None:
        if self._boundary():
            directory = os.fspath(directory)
            mine = [change for change in self.changes if change[0] == directory]
            self.durable_names = _renamed(self.durable_names, mine)
            self.changes = [change for change in self.changes if change[0] != directory]

    def replace(self, src: str | os.PathLike[str], dst: str | os.PathLike[str]) -> None:
        self._link(os.fspath(dst), self._unlink(os.fspath(src)))

    def unlink(self, path: str | os.PathLike[str]) -> None:
        self._unlink(os.fspath(path))

    def exists(self, path: str | os.PathLike[str]) -> bool:
        return os.fspath(path) in self.files

    def listdir(self, directory: str | os.PathLike[str]) -> list[str]:
        return [Path(p).name for p in self.files if os.path.dirname(p) == os.fspath(directory)]

    def makedirs(self, directory: str | os.PathLike[str]) -> None:
        pass  # a directory is implicit in its files' paths

    def _link(self, path: str, node: _File) -> _File:
        self.files[path] = node
        self.changes.append((os.path.dirname(path), path, node))
        return node

    def _unlink(self, path: str) -> _File:
        if path not in self.files:
            raise FileNotFoundError(errno.ENOENT, "No such file", path)
        self.changes.append((os.path.dirname(path), path, None))
        return self.files.pop(path)

    def _boundary(self) -> bool:
        """Tell ``on_boundary`` where the fsync was called from; whether
        it is to take effect."""
        frame = sys._getframe(1)
        while frame.f_code.co_name in ("fsync", "fsync_dir") and frame.f_locals.get("self") is self:
            frame = frame.f_back  # the seam method, or a test's override of it
        source = Path(frame.f_code.co_filename)
        site = f"{source.parent.name}/{source.name}:{frame.f_lineno} ({frame.f_code.co_name})"
        if self.on_boundary is not None:
            self.on_boundary(self, site)
        return site not in self.noop_sites

    def durable_state(self) -> State:
        return {path: node.durable for path, node in self.durable_names.items()}

    def crash_states(self) -> list[tuple[str, State]]:
        """Every disk image a power cut right now may leave, labelled."""
        base = self.durable_state()
        states = [("durable", base)]
        for path, node in self.durable_names.items():
            content = bytearray(node.durable)
            for n, (offset, data) in enumerate(node.writes, start=1):
                cuts = range((offset // SECTOR + 1) * SECTOR, offset + len(data or b""), SECTOR)
                if data is not None and cuts:
                    torn = bytearray(content)
                    _apply(torn, offset, data[: cuts[len(cuts) // 2] - offset])
                    states.append((f"{Path(path).name}+{n}/torn", {**base, path: bytes(torn)}))
                _apply(content, offset, data)
                states.append((f"{Path(path).name}+{n}", {**base, path: bytes(content)}))
        for directory in dict.fromkeys(change[0] for change in self.changes):
            mine = [change for change in self.changes if change[0] == directory]
            subsets = [(f"ns+{n}", mine[:n]) for n in range(1, len(mine) + 1)]
            if len(mine) > 1:
                subsets += [(f"ns-{i + 1}", mine[:i] + mine[i + 1 :]) for i in range(len(mine))]
            for label, chosen in subsets:
                names = _renamed(self.durable_names, chosen)
                states.append((f"{Path(directory).name}:{label}", {p: f.durable for p, f in names.items()}))
        states.append(("live", {path: bytes(node.live) for path, node in self.files.items()}))
        return states


def _renamed(names: dict[str, _File], changes: list[Change]) -> dict[str, _File]:
    """``names`` after ``changes`` reached the disk."""
    names = dict(names)
    for _, path, node in changes:
        if node is None:
            names.pop(path, None)
        else:
            names[path] = node
    return names
