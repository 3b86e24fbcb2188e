"""The write-ahead log of the durable page store.

The log carries **metadata, never page images** (DESIGN.md section 16):
a file create or delete, a client journal note, and — at every
barrier of the store — one ``map`` record per file naming the slots its
freshly written pages went to.  Pages are fsynced in the data file
*before* their ``map`` record is appended, so recovery replays mappings
onto the catalog and never writes a data slot.  A torn log tail (the one
record a power cut interrupted) is identified by its checksum and
truncated away; a bad record with a valid later one behind it is
corruption, refused loudly.

The log is **segmented**: records append to ``wal-<seq>.log`` until the
segment exceeds ``segment_bytes``, then a fresh segment (with the next
sequence number, never reused) is started.  A checkpoint makes every
record redundant — the full catalog is persisted — after which all
segments are deleted and a new one begins.  Starting a segment fsyncs
the directory, so the segment a record is committed into — and the
unlinks of a reset before it — are durable before any record in it is.
All file I/O goes through the seam of :mod:`repro.obs.fileio`.

Record layout (little-endian)::

    magic   u32   0x57414C31 ("1LAW" on disk)
    lsn     u64   monotonically increasing, 1-based
    op      u8    1=map  2=create  3=delete  5=note  (4 reserved)
    crc     u32   crc32 over (lsn, op, body)
    length  u32   body length in bytes
    body    ...   op-specific (see the pack_* helpers)

A map (op 1) is a file id followed by ``(page no, slot)`` pairs.  A
note (op 5) is one entry of the store's client journal: a ``reset``
byte — 1 discards every earlier note in the same atomic step — then
opaque client bytes (``DurableBackend.journal_append``).

A record is **committed** once an ``fsync`` covering it returned; map
records ride under the fsync of the barrier that logged them, every
other record is fsynced on its own.  The scanner accepts a record only
if the magic matches, the declared body is fully present, the checksum
agrees and, past the checkpoint, the LSN is the expected successor;
scanning stops at the first record that fails.  That is the torn tail
only if no valid record the replay still needs comes after it: a
segment is fsynced before the next one starts, so a valid record behind
a bad one means the bad one was corrupted after its commit.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from itertools import starmap
from pathlib import Path
from typing import Callable, NamedTuple

from repro.obs import fileio

WAL_MAGIC = 0x57414C31
WAL_HEADER = struct.Struct("<IQBII")  # magic, lsn, op, crc, body length
_MAGIC_BYTES = struct.pack("<I", WAL_MAGIC)
_CRC_PREFIX = struct.Struct("<QB")  # lsn, op: what the crc covers ahead of the body

OP_MAP = 1
OP_CREATE = 2
OP_DELETE = 3
OP_NOTE = 5  # 4 was a rename; a log holding one is refused on reopen

_FILE_ID = struct.Struct("<Q")  # the whole delete body; a map leads with it
_MAP_PAIR = struct.Struct("<QQ")  # page no, slot
_CREATE_BODY = struct.Struct("<QII")  # file id, record size, capacity

DEFAULT_SEGMENT_BYTES = 256 * 1024
"""Segment rotation threshold: a segment exceeding this is closed and
the next record starts ``wal-<seq+1>.log``."""

MAX_BODY_BYTES = 64 * 1024 * 1024
"""Sanity bound on a declared body length; a corrupt length field must
not make the scanner allocate gigabytes before the checksum rejects it."""


class WalRecord(NamedTuple):
    """One log record: what ``append`` takes and the scanner yields."""

    lsn: int
    op: int
    body: bytes

    def encode(self) -> bytes:
        lsn, op, body = self
        return WAL_HEADER.pack(WAL_MAGIC, lsn, op, record_crc(lsn, op, body), len(body)) + body


def record_crc(lsn: int, op: int, body: bytes) -> int:
    return zlib.crc32(body, zlib.crc32(_CRC_PREFIX.pack(lsn, op)))


# -- op bodies ---------------------------------------------------------


def pack_map(file_id: int, pages: list[tuple[int, int]]) -> bytes:
    return _FILE_ID.pack(file_id) + b"".join(starmap(_MAP_PAIR.pack, pages))


def unpack_map(body: bytes) -> tuple[int, list[tuple[int, int]]]:
    (file_id,) = _FILE_ID.unpack_from(body, 0)
    return file_id, list(_MAP_PAIR.iter_unpack(body[_FILE_ID.size :]))


def pack_create(file_id: int, record_size: int, capacity: int, name: str) -> bytes:
    return _CREATE_BODY.pack(file_id, record_size, capacity) + name.encode()


def unpack_create(body: bytes) -> tuple[int, int, int, str]:
    file_id, record_size, capacity = _CREATE_BODY.unpack_from(body, 0)
    return file_id, record_size, capacity, body[_CREATE_BODY.size :].decode()


def pack_delete(file_id: int) -> bytes:
    return _FILE_ID.pack(file_id)


def unpack_delete(body: bytes) -> int:
    return _FILE_ID.unpack(body)[0]


def pack_note(note: bytes, reset: bool) -> bytes:
    return bytes([reset]) + note


def unpack_note(body: bytes) -> tuple[bytes, bool]:
    return body[1:], bool(body[0])


# -- the segmented log -------------------------------------------------


def segment_name(sequence: int) -> str:
    return f"wal-{sequence:08d}.log"


def segment_sequence(path: Path) -> int:
    return int(path.name[len("wal-") : -len(".log")])


def list_segments(directory: Path, files: fileio.OsFiles | None = None) -> list[Path]:
    """Existing segment files in sequence order."""
    names = (files or fileio.current()).listdir(directory)
    segments = [Path(directory) / n for n in names if n.startswith("wal-") and n.endswith(".log")]
    return sorted(segments, key=segment_sequence)


class WriteAheadLog:
    """The append side of the segmented log.

    ``append`` buffers into the current segment and flushes to the OS;
    ``sync`` fsyncs, which is the commit point.  Every segment is a file
    the log has just created, so it counts the segment's bytes from 0.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        start_sequence: int = 1,
        files: fileio.OsFiles | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.segment_bytes = segment_bytes
        self._files = files or fileio.current()
        self.bytes_appended = 0  # across segments since construction/reset
        self.syncs = 0  # fsyncs issued, of segments and of the directory
        self._start(start_sequence)

    @property
    def segment_path(self) -> Path:
        return self.directory / segment_name(self.sequence)

    def _start(self, sequence: int) -> None:
        """Create segment ``sequence`` and make its directory entry durable."""
        self.sequence = sequence
        self._handle = self._files.open(self.segment_path, "ab")
        self._offset = 0  # bytes in this segment
        self._files.fsync_dir(self.directory)
        self.syncs += 1

    def append(self, record: WalRecord) -> None:
        """Append one record (rotating first if the segment is full)."""
        data = record.encode()
        if self._offset and self._offset + len(data) > self.segment_bytes:
            self._rotate()
        self._handle.write(data)
        self._handle.flush()
        self._offset += len(data)
        self.bytes_appended += len(data)

    def sync(self) -> None:
        """The commit point: everything appended so far is now durable."""
        self._files.fsync(self._handle)
        self.syncs += 1

    def _rotate(self) -> None:
        self.sync()
        self._handle.close()
        self._start(self.sequence + 1)

    def reset(self, next_sequence: int) -> None:
        """Checkpoint aftermath: delete every segment, start a fresh one
        with a sequence number that has never been used (the one
        directory fsync covers the unlinks and the create)."""
        self._handle.close()
        for path in list_segments(self.directory, self._files):
            self._files.unlink(path)
        self._start(next_sequence)
        self.bytes_appended = 0

    def close(self) -> None:
        if not self._handle.closed:
            self.sync()
            self._handle.close()


@dataclass
class WalScan:
    """What recovery learned from reading the log."""

    truncated_bytes: int = 0
    dropped_segments: int = 0


class CorruptLog(Exception):
    """A record the scan cannot read has a valid record it needs behind it."""


def scan_segments(
    directory: Path,
    apply: Callable[[WalRecord], None],
    files: fileio.OsFiles | None = None,
    first_lsn: int = 1,
) -> WalScan:
    """Read every committed record in LSN order and feed it to ``apply``.

    ``first_lsn`` is the first LSN the checkpoint does not cover: the
    records the replay needs run on from it, one LSN after another.
    Ahead of them, a covered record is read whatever its LSN (segments a
    checkpoint made redundant linger until the next one resets the log).
    The first record that is structurally invalid — bad magic, short
    body, checksum mismatch — or out of that order ends the scan.  If a
    valid record with the LSN due or a later one lies behind it, in
    its segment or a later one, the log is corrupt: :class:`CorruptLog`
    names the segment and offset, and nothing is truncated.  Otherwise
    it is the torn tail: the segment is truncated at that offset, and
    any *later* segment is deleted outright (it can only exist if the
    tail segment tore mid-rotation, or hold records the checkpoint
    covers).
    """
    files = files or fileio.current()
    scan = WalScan()
    due = first_lsn
    segments = list_segments(directory, files)
    for index, path in enumerate(segments):
        data = files.read_bytes(path)
        offset = 0
        while offset < len(data):
            record = _decode_at(data, offset)
            in_order = record is not None and (
                record.lsn == due or due == first_lsn > record.lsn  # covered, ahead of the needed
            )
            if not in_order:
                later = segments[index + 1 :]
                behind = _record_behind(path, data, offset + 1, later, due, files)
                if behind is not None:
                    raise CorruptLog(
                        f"unreadable record at offset {offset} of {path.name}, "
                        f"but a valid record (LSN >= {due}) follows at {behind}"
                    )
                scan.truncated_bytes = len(data) - offset
                with files.open(path, "r+b") as handle:
                    handle.truncate(offset)
                    files.fsync(handle)
                for stale in later:
                    files.unlink(stale)
                    scan.dropped_segments += 1
                return scan
            apply(record)
            if record.lsn == due:
                due += 1
            offset += WAL_HEADER.size + len(record.body)
    return scan


def _record_behind(
    path: Path, data: bytes, start: int, later: list[Path], floor: int, files: fileio.OsFiles
) -> str | None:
    """Where the first valid record with an LSN of at least ``floor``
    lies from ``start`` of ``path`` on, or in a ``later`` segment."""
    for where in (path, *later):
        blob, start = (data, start) if where is path else (files.read_bytes(where), 0)
        offset = blob.find(_MAGIC_BYTES, start)
        while offset >= 0:
            record = _decode_at(blob, offset)
            if record is not None and record.lsn >= floor:
                return f"offset {offset} of {where.name}"
            offset = blob.find(_MAGIC_BYTES, offset + 1)
    return None


def _decode_at(data: bytes, offset: int) -> WalRecord | None:
    if offset + WAL_HEADER.size > len(data):
        return None
    magic, lsn, op, crc, length = WAL_HEADER.unpack_from(data, offset)
    if magic != WAL_MAGIC or length > MAX_BODY_BYTES:
        return None
    body_start = offset + WAL_HEADER.size
    if body_start + length > len(data):
        return None
    body = data[body_start : body_start + length]
    if record_crc(lsn, op, body) != crc:
        return None
    return WalRecord(lsn, op, body)
