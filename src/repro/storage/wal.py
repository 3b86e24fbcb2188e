"""The write-ahead log of the durable page store.

The log carries **metadata, never page images** (DESIGN.md section 16):
a file create or delete, a client journal note, and — at every
barrier of the store — one ``map`` record per file naming the slots its
freshly written pages went to.  Pages are fsynced in the data file
*before* their ``map`` record is appended, so recovery replays mappings
onto the catalog and never writes a data slot.  A torn log tail (the one
record a power cut interrupted) is identified by its checksum and
skipped; a bad record with a valid later one behind it is
corruption, refused loudly.

The log is **one file**, ``wal.log``.  Records append to it until a
checkpoint makes every one of them redundant — the full catalog is
persisted — and then empties it in place, truncating it to zero.  No
fsync of its own follows the truncation: the next commit's fsync makes
it durable with the records appended behind it, and until then a power
cut may leave the covered records, which a reopen reads and skips.
Recovery only reads the log; the open's own checkpoint empties it, torn
tail and all.  All file I/O goes through the seam of
:mod:`repro.obs.fileio`.

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
agrees and its LSN follows the one before it (the first may be any one
the checkpoint covers); scanning stops at the first record that fails.  That is the torn tail
only if no valid record the replay still needs comes after it: records
reach the file in order and every commit fsyncs it, so a valid record
behind a bad one means the bad one was corrupted after its commit.
"""

from __future__ import annotations

import os
import struct
import zlib
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
    return (b"\x01" if reset else b"\x00") + note


# -- the log ----------------------------------------------------------


class WriteAheadLog:
    """The append side of the log.

    ``append`` writes one record; ``sync`` flushes the records to the OS
    (one write syscall) and fsyncs, the commit point; ``reset`` empties
    the file.
    """

    def __init__(self, path: str | os.PathLike[str], files: fileio.OsFiles | None = None) -> None:
        self.path = Path(path)
        self._files = files or fileio.current()
        self._handle = self._files.open(self.path, "ab")
        self.bytes_appended = 0  # since construction or the last reset
        self.syncs = 0  # fsyncs of the log issued

    def append(self, record: WalRecord) -> None:
        data = record.encode()
        self._handle.write(data)
        self.bytes_appended += len(data)

    def sync(self) -> None:
        """The commit point: everything appended so far is now durable."""
        self._files.fsync(self._handle)
        self.syncs += 1

    def reset(self) -> None:
        """Checkpoint aftermath: truncate the log to zero in place.  The
        next commit's fsync makes the truncation durable with the records
        behind it; until then a power cut may leave the records the
        checkpoint covers, which a reopen reads and skips."""
        self._handle.truncate(0)
        self.bytes_appended = 0

    def close(self) -> None:
        self._handle.close()


class CorruptLog(Exception):
    """A record the scan cannot read has a valid record it needs behind it."""


def scan_log(
    path: Path,
    apply: Callable[[WalRecord], None],
    files: fileio.OsFiles | None = None,
    first_lsn: int = 1,
) -> int:
    """Feed every committed record of the log at ``path`` to ``apply``,
    in order; returns the byte count of the torn tail it stopped at.

    ``first_lsn`` is the first LSN the checkpoint does not cover.  The
    records run on one LSN after another from the first, which may be
    one the checkpoint covers (a checkpoint's truncation that never
    became durable leaves its records ahead of the needed ones).  The
    first record that is structurally invalid — bad magic, short body,
    checksum mismatch — or out of that order ends the scan.  If a valid
    record with the LSN due or a later one lies behind it, the log is
    corrupt: :class:`CorruptLog` names the offsets.  Otherwise it is
    the torn tail.  The file is only read: the open's checkpoint empties
    it.
    """
    files = files or fileio.current()
    if not files.exists(path):
        return 0  # lost before the store's first checkpoint made its name durable
    data = files.read_bytes(path)
    offset, due = 0, None
    while offset < len(data):
        record = _decode_at(data, offset)
        in_order = record is not None and (
            record.lsn == due if due else record.lsn <= first_lsn  # the first: any covered one
        )
        if not in_order:
            floor = max(due or 0, first_lsn)
            behind = data.find(_MAGIC_BYTES, offset + 1)
            while behind >= 0:
                later = _decode_at(data, behind)
                if later is not None and later.lsn >= floor:
                    raise CorruptLog(
                        f"unreadable record at offset {offset} of {path.name}, but a "
                        f"valid record (LSN >= {floor}) follows at offset {behind}"
                    )
                behind = data.find(_MAGIC_BYTES, behind + 1)
            return len(data) - offset
        apply(record)
        due = record.lsn + 1
        offset += WAL_HEADER.size + len(record.body)
    return 0


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
