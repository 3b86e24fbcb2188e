"""The write-ahead log of the durable page store.

The log carries **metadata, never page images** (DESIGN.md section 16):
a file create/delete/rename, a client journal note, and — at every
barrier of the store — one ``map`` record per file naming the slots its
freshly written pages went to.  Pages are fsynced in the data file
*before* their ``map`` record is appended, so recovery replays mappings
onto the catalog and never writes a data slot.  A torn log tail (the one
record a power cut interrupted) is identified by its checksum and
truncated away.

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
    op      u8    1=map  2=create  3=delete  4=rename  5=note
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
if the magic matches, the LSN is the expected successor, the declared
body is fully present, and the checksum agrees — anything else is the
torn tail and scanning stops there.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from itertools import starmap
from pathlib import Path
from typing import Callable

from repro.obs import fileio

WAL_MAGIC = 0x57414C31
WAL_HEADER = struct.Struct("<IQBII")  # magic, lsn, op, crc, body length

OP_MAP = 1
OP_CREATE = 2
OP_DELETE = 3
OP_RENAME = 4
OP_NOTE = 5

_FILE_ID = struct.Struct("<Q")  # the whole delete body; rename and map lead with it
_MAP_PAIR = struct.Struct("<QQ")  # page no, slot
_CREATE_BODY = struct.Struct("<QII")  # file id, record size, capacity

DEFAULT_SEGMENT_BYTES = 256 * 1024
"""Segment rotation threshold: a segment exceeding this is closed and
the next record starts ``wal-<seq+1>.log``."""

MAX_BODY_BYTES = 64 * 1024 * 1024
"""Sanity bound on a declared body length; a corrupt length field must
not make the scanner allocate gigabytes before the checksum rejects it."""


@dataclass(frozen=True)
class WalRecord:
    """One committed log record."""

    lsn: int
    op: int
    body: bytes

    def encode(self) -> bytes:
        crc = record_crc(self.lsn, self.op, self.body)
        return (
            WAL_HEADER.pack(WAL_MAGIC, self.lsn, self.op, crc, len(self.body))
            + self.body
        )


def record_crc(lsn: int, op: int, body: bytes) -> int:
    return zlib.crc32(body, zlib.crc32(struct.pack("<QB", lsn, op)))


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


def pack_rename(file_id: int, new_name: str) -> bytes:
    return _FILE_ID.pack(file_id) + new_name.encode()


def unpack_rename(body: bytes) -> tuple[int, str]:
    (file_id,) = _FILE_ID.unpack_from(body, 0)
    return file_id, body[_FILE_ID.size :].decode()


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
    ``sync`` fsyncs, which is the commit point.
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
        self._files.fsync_dir(self.directory)
        self.syncs += 1

    def append(self, record: WalRecord) -> None:
        """Append one record (rotating first if the segment is full)."""
        data = record.encode()
        if self._handle.tell() and self._handle.tell() + len(data) > self.segment_bytes:
            self._rotate()
        self._handle.write(data)
        self._handle.flush()
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


def scan_segments(
    directory: Path,
    apply: Callable[[WalRecord], None],
    files: fileio.OsFiles | None = None,
) -> WalScan:
    """Read every committed record in LSN order and feed it to ``apply``.

    The first structurally invalid record — bad magic, non-successor
    LSN, short body, checksum mismatch — is the torn tail: scanning
    stops, the segment is truncated at that offset,
    and any *later* segment is deleted outright (it can only exist if
    the tail segment tore mid-rotation; its records were never
    acknowledged).
    """
    files = files or fileio.current()
    scan = WalScan()
    expected_lsn: int | None = None
    torn = False
    for path in list_segments(directory, files):
        if torn:
            files.unlink(path)
            scan.dropped_segments += 1
            continue
        data = files.read_bytes(path)
        offset = 0
        while offset < len(data):
            good, record = _decode_at(data, offset, expected_lsn)
            if not good:
                torn = True
                scan.truncated_bytes = len(data) - offset
                with files.open(path, "r+b") as handle:
                    handle.truncate(offset)
                    files.fsync(handle)
                break
            assert record is not None
            apply(record)
            expected_lsn = record.lsn + 1
            offset += WAL_HEADER.size + len(record.body)
    return scan


def _decode_at(
    data: bytes, offset: int, expected_lsn: int | None
) -> tuple[bool, WalRecord | None]:
    if offset + WAL_HEADER.size > len(data):
        return False, None
    magic, lsn, op, crc, length = WAL_HEADER.unpack_from(data, offset)
    if magic != WAL_MAGIC or length > MAX_BODY_BYTES:
        return False, None
    if expected_lsn is not None and lsn != expected_lsn:
        return False, None
    body_start = offset + WAL_HEADER.size
    if body_start + length > len(data):
        return False, None
    body = data[body_start : body_start + length]
    if record_crc(lsn, op, body) != crc:
        return False, None
    return True, WalRecord(lsn, op, body)
