"""The durable page store: a crash-consistent file-backed backend.

:class:`DurableBackend` is the one file-backed storage backend
(DESIGN.md section 16).  It survives a power cut at any instant and
reopens to exactly the state its last returned *barrier* left behind.
Every page is written once:

- **data file** (``pages.data``) — a persistent header (magic, format
  version, page size, epoch) followed by fixed-size page slots, each
  carrying a crc32 checksum over (file id, page no, payload);
- **shadow slots** — ``write_page`` writes the slot and nothing else,
  always to a slot no *committed* mapping names: a page not yet made
  durable is overwritten in place, a rewrite of a committed page goes
  to a fresh slot.  Until a barrier such pages are *pending*: readable
  here, unknown to a reopen;
- **barriers** — ``journal_append``, ``sync``, ``checkpoint``,
  ``close``.  One that finds pages pending fsyncs the data file once,
  then logs one ``map`` record per file (page -> slot, no payload)
  ahead of its own record under one log fsync; one that finds none
  costs its one log fsync;
- **write-ahead log** (:mod:`repro.storage.wal`) — mappings, file
  creates, file deletes and client notes, never page images.
  Recovery replays committed records onto the catalog — it never writes
  a data slot, so a torn or lost page write can only sit in a slot
  nothing names — truncates the torn tail, bumps the epoch, checkpoints;
- **free list** — every slot no committed mapping names, reused
  lowest-first, and freed only once the record that frees it is
  durable: a file's delete record, or the barrier that logged a remap;
- **checkpoint** (``checkpoint.json``, written atomically) — the
  catalog (name -> file id -> page -> slot) and the journal as JSON
  behind a line holding its crc32; the log is reset after every
  checkpoint;
- **journal** — ``journal_append`` logs an opaque client note
  (``reset`` discards all earlier ones in the same atomic step) and
  ``journal()`` hands the survivors back after a reopen.  The resident
  index keeps its mutable state here; its manifest note is the barrier
  that commits a compaction's level files.

An ``OSError`` from a slot write, a data fsync, a log write or a
checkpoint marks the store **failed**: the bytes may or may not be on
the medium, so no later barrier may commit a mapping to them, nor an
ack be reordered under them.  Every later write or barrier raises
:class:`DurableStoreError` naming the original error until the
directory is reopened; reads work and ``close()`` skips its checkpoint.  The simulated I/O ledger sees
none of this: it is byte-identical across ``memory`` and ``durable``.

Every file operation goes through the seam of :mod:`repro.obs.fileio`,
bound at construction.  Durability order: a barrier fsyncs the data
file before it logs the ``map`` records naming its slots; a checkpoint
fsyncs its temp file, renames it over ``checkpoint.json``, fsyncs the
directory, and only then unlinks the old log segments and creates the
new one, whose directory fsync makes both durable.  ``repro verify
--crash`` replays the store on a recording file system and reopens it
from every disk image a power cut could leave at every fsync boundary
(DESIGN.md section 16); each must recover to the last returned barrier.
"""

from __future__ import annotations

import heapq
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Sequence

from repro.obs import fileio
from repro.storage import wal
from repro.storage.backend import BackendClosedError, Page, Record, StorageBackend
from repro.storage.records import RecordCodec

MAGIC = b"S3JPAGES"
FORMAT_VERSION = 3  # 3: the log carries page mappings (OP_MAP), not page images
HEADER_SIZE = 64
_HEADER = struct.Struct("<8sIIQI")  # magic, version, page size, epoch, crc
_SLOT_HEADER = struct.Struct("<IIQQ")  # crc, payload length, file id, page no
_COUNT = struct.Struct("<I")  # record count, first field of a payload
SLOT_COVERED = _SLOT_HEADER.size + _COUNT.size
"""A slot's leading bytes — header and record count — that the checksum
or the identity test covers whatever the page holds."""

DATA_FILE = "pages.data"
CHECKPOINT_FILE = "checkpoint.json"
CHECKPOINT_SCHEMA = 4  # 4: a crc32 line ahead of the JSON

DEFAULT_CHECKPOINT_BYTES = 64 * 1024
"""WAL bytes that trigger an automatic checkpoint (and log reset): about
a thousand records, now that none holds a page, so that is all a reopen
replays."""


class DurableStoreError(RuntimeError):
    """A structural store problem — bad header, checksum, catalog, an
    older on-disk format — or a write to a store that has failed."""


@dataclass
class RecoveryReport:
    """What one open-with-recovery did (surfaced by the crash harness)."""

    replayed_records: int = 0
    mapped_pages: int = 0  # page -> slot mappings the log added to the checkpoint's
    truncated_bytes: int = 0
    dropped_segments: int = 0
    journal_notes: int = 0  # client notes handed back by journal()
    epoch: int = 0


@dataclass
class _FileEntry:
    """Catalog row: one logical paged file."""

    file_id: int
    name: str
    record_size: int
    capacity: int
    pages: dict[int, int] = field(default_factory=dict)  # page no -> slot


class DurableBackend(StorageBackend):
    """Crash-consistent page store; see the module docstring."""

    def __init__(
        self,
        directory: str | os.PathLike[str],
        page_size: int | None = None,
        segment_bytes: int = wal.DEFAULT_SEGMENT_BYTES,
        checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
    ) -> None:
        self.directory = Path(directory)
        self._files = fileio.current()
        self._files.makedirs(self.directory)
        self.checkpoint_bytes = checkpoint_bytes
        self._entries: dict[int, _FileEntry] = {}  # file id -> entry
        self._names: dict[str, int] = {}  # name -> file id
        self._codecs: dict[int, RecordCodec] = {}  # file id -> codec, bound by create/attach
        self._free: list[int] = []  # heap of free slots
        self._next_slot = 0
        self._pending: dict[int, set[int]] = {}  # file id -> pages written since the last barrier
        self._superseded: list[int] = []  # committed slots those rewrote: free after the next one
        self._next_file_id = 1
        self._next_lsn = 1
        self._journal: list[bytes] = []
        self._failed: OSError | None = None
        self.bytes_written = 0  # slot, log and checkpoint bytes handed to the OS
        self._fsyncs = 0  # data-file, checkpoint and its directory's; the log counts its own
        self.epoch = 0
        self.last_recovery: RecoveryReport | None = None
        self._closed = False

        data_path = self.directory / DATA_FILE
        if self._files.exists(data_path):
            self._data: BinaryIO = self._files.open(data_path, "r+b")
            self.page_size = self._read_header()
            if page_size is not None and page_size != self.page_size:
                self._data.close()
                raise DurableStoreError(
                    f"store at {self.directory} uses page size "
                    f"{self.page_size}, configuration asked for {page_size}"
                )
            try:
                self._recover()
            except BaseException:
                self._data.close()
                raise
            # Opening is itself a recovery point: bump the epoch, persist
            # the catalog, start a fresh log segment, so a second open
            # replays nothing.  The header is one write in one sector that
            # recovery never needs, so the next data fsync carries it.
            self.epoch += 1
            self._data.seek(0)
            self._data.write(self._header())
        elif page_size is None:
            raise DurableStoreError("creating a durable store needs an explicit page size")
        else:
            # Created whole or not at all, so no power cut leaves a data
            # file without its header behind.
            self.page_size, self.epoch = page_size, 1
            self._files.atomic_replace(data_path, self._header())
            self._fsyncs += 2
            self._data = self._files.open(data_path, "r+b")
        segments = wal.list_segments(self.directory, self._files)
        start = max(map(wal.segment_sequence, segments), default=0) + 1
        self._wal = wal.WriteAheadLog(self.directory, segment_bytes, start, self._files)
        self._write_checkpoint()

    # -- layout ----------------------------------------------------------

    @property
    def _block_size(self) -> int:
        # Worst-case payload: the 4-byte record count plus a full page
        # of record bytes, whatever the codec.
        return _SLOT_HEADER.size + _COUNT.size + self.page_size

    def _slot_offset(self, slot: int) -> int:
        return HEADER_SIZE + slot * self._block_size

    def _header(self) -> bytes:
        fields = (FORMAT_VERSION, self.page_size, self.epoch)
        packed = _HEADER.pack(MAGIC, *fields, zlib.crc32(struct.pack("<IIQ", *fields)))
        return packed.ljust(HEADER_SIZE, b"\x00")

    def _read_header(self) -> int:
        self._data.seek(0)
        blob = self._data.read(HEADER_SIZE)
        if len(blob) < _HEADER.size:
            raise DurableStoreError("data file too short to hold a header")
        magic, version, page_size, epoch, crc = _HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise DurableStoreError(f"bad store magic {magic!r}")
        if version != FORMAT_VERSION:
            raise DurableStoreError(f"unsupported store format {version}")
        if crc != zlib.crc32(struct.pack("<IIQ", version, page_size, epoch)):
            raise DurableStoreError("store header checksum mismatch")
        self.epoch = epoch
        return page_size

    # -- recovery ---------------------------------------------------------

    def _recover(self) -> None:
        report = RecoveryReport()
        self._load_checkpoint()

        def apply(record: wal.WalRecord) -> None:
            if record.lsn < self._next_lsn:
                return  # already reflected by the checkpoint
            try:
                self._apply(record.op, record.body)
            except KeyError as error:
                raise DurableStoreError(
                    f"WAL record {record.lsn} names unknown file id {error}"
                ) from None
            report.replayed_records += 1
            if record.op == wal.OP_MAP:
                report.mapped_pages += len(wal.unpack_map(record.body)[1])
            self._next_lsn = record.lsn + 1

        try:
            scan = wal.scan_segments(self.directory, apply, self._files, self._next_lsn)
        except wal.CorruptLog as error:
            raise DurableStoreError(f"corrupt log in {self.directory}: {error}") from None
        report.truncated_bytes = scan.truncated_bytes
        report.dropped_segments = scan.dropped_segments
        report.journal_notes = len(self._journal)
        # Free: whatever no committed mapping names (uncommitted writes too).
        used = {slot for entry in self._entries.values() for slot in entry.pages.values()}
        self._next_slot = max(used, default=-1) + 1
        self._free = sorted(set(range(self._next_slot)) - used)
        report.epoch = self.epoch + 1  # __init__ bumps it next
        self.last_recovery = report

    def _load_checkpoint(self) -> None:
        path = self.directory / CHECKPOINT_FILE
        if not self._files.exists(path):
            # A store that died before its very first checkpoint: the
            # WAL (possibly empty) is the entire history.
            return
        crc, _, text = self._files.read_bytes(path).partition(b"\n")
        try:
            if int(crc, 16) != zlib.crc32(text):
                raise ValueError("checksum mismatch")
            data = json.loads(text)
        except ValueError as error:  # a bad crc line, utf-8 or JSON too
            raise DurableStoreError(f"unreadable checkpoint {path}: {error}") from None
        if data.get("schema") != CHECKPOINT_SCHEMA:
            raise DurableStoreError(
                f"unsupported checkpoint schema {data.get('schema')!r}"
            )
        self._next_file_id = int(data["next_file_id"])
        for row in data["files"]:
            pages = {int(page_no): slot for page_no, slot in row.pop("pages").items()}
            entry = _FileEntry(**row, pages=pages)
            self._entries[entry.file_id] = entry
            self._names[entry.name] = entry.file_id
        self._journal = [bytes.fromhex(note) for note in data["journal"]]
        self._next_lsn = int(data["lsn"]) + 1

    def _apply(self, op: int, body: bytes) -> None:
        """A committed record takes effect on the catalog, live or replayed."""
        if op == wal.OP_NOTE:  # first: every insert/delete ack is one
            self._apply_note(body)
        elif op == wal.OP_MAP:
            file_id, pages = wal.unpack_map(body)
            self._entries[file_id].pages.update(pages)
        elif op == wal.OP_CREATE:
            file_id, record_size, capacity, name = wal.unpack_create(body)
            self._entries[file_id] = _FileEntry(file_id, name, record_size, capacity)
            self._names[name] = file_id
            self._next_file_id = max(self._next_file_id, file_id + 1)
        elif op == wal.OP_DELETE:
            entry = self._entries.pop(wal.unpack_delete(body))
            del self._names[entry.name]
            self._pending.pop(entry.file_id, None)
            for slot in entry.pages.values():  # durable: nothing committed names them
                heapq.heappush(self._free, slot)
        else:
            raise DurableStoreError(f"unknown WAL op {op}")

    # -- slots ------------------------------------------------------------

    def _allocate_slot(self) -> int:
        if self._free:
            return heapq.heappop(self._free)
        slot = self._next_slot
        self._next_slot += 1
        return slot

    def _write_slot(
        self, slot: int, file_id: int, page_no: int, payload: bytes
    ) -> None:
        crc = zlib.crc32(payload, zlib.crc32(struct.pack("<QQ", file_id, page_no)))
        block = _SLOT_HEADER.pack(crc, len(payload), file_id, page_no) + payload
        block += b"\x00" * (self._block_size - len(block))
        try:
            self._data.seek(self._slot_offset(slot))
            self._data.write(block)
            self._data.flush()
        except OSError as error:
            self._failed = error  # on the medium or not: no barrier may name it
            raise
        self.bytes_written += len(block)

    def _read_slot(self, slot: int, file_id: int, page_no: int) -> bytes:
        self._data.seek(self._slot_offset(slot))
        block = self._data.read(self._block_size)
        if len(block) < _SLOT_HEADER.size:
            raise DurableStoreError(
                f"slot {slot} lies beyond the end of the data file"
            )
        crc, length, stored_file_id, stored_page_no = _SLOT_HEADER.unpack_from(
            block, 0
        )
        payload = block[_SLOT_HEADER.size : _SLOT_HEADER.size + length]
        if (
            len(payload) != length
            or (stored_file_id, stored_page_no) != (file_id, page_no)
            or crc
            != zlib.crc32(payload, zlib.crc32(struct.pack("<QQ", file_id, page_no)))
        ):
            raise DurableStoreError(
                f"checksum mismatch reading page {page_no} of file id "
                f"{file_id} (slot {slot})"
            )
        return payload

    # -- WAL plumbing -----------------------------------------------------

    def _refuse_if_failed(self) -> None:
        if self._failed is not None:
            raise DurableStoreError(
                f"store failed on {self._failed!r}; nothing more can be "
                "written until the directory is reopened"
            )

    @property
    def fsyncs(self) -> int:
        """``fsync`` calls issued so far, on any of the store's files."""
        return self._fsyncs + self._wal.syncs

    def _append(self, op: int, body: bytes) -> None:
        record = wal.WalRecord(self._next_lsn, op, body)
        self._next_lsn += 1
        self._wal.append(record)
        self.bytes_written += wal.WAL_HEADER.size + len(body)

    def _log(self, op: int | None, body: bytes = b"", barrier: bool = False) -> None:
        """Append one record (``None``: none), fsync the log — the
        commit point — and apply it.  A *barrier* first fsyncs pending
        pages and logs where they went, under the same log fsync; only
        then are the slots they superseded free."""
        self._refuse_if_failed()
        pending = barrier and self._pending
        if op is None and not pending:
            return
        try:
            if pending:
                self._files.fsync(self._data)
                self._fsyncs += 1
                for file_id, pages in pending.items():
                    slots = self._entries[file_id].pages
                    mapping = [(page_no, slots[page_no]) for page_no in pages]
                    self._append(wal.OP_MAP, wal.pack_map(file_id, mapping))
            if op is not None:
                self._append(op, body)
            self._wal.sync()
        except OSError as error:
            self._failed = error  # on the medium or not: only a reopen can tell
            raise
        if pending:
            pending.clear()
        if barrier and self._superseded:  # even if a DELETE popped their pending pages
            for slot in self._superseded:
                heapq.heappush(self._free, slot)
            self._superseded.clear()
        if op is not None:
            self._apply(op, body)
            if self._wal.bytes_appended >= self.checkpoint_bytes:
                self.checkpoint()

    def checkpoint(self) -> None:
        """Make the log redundant: a barrier, then persist the catalog
        atomically, then reset the log to a fresh segment.  One that
        fails fails the store: the log may be half reset, and a caller
        that triggered it by logging a record holds an error for a
        record already committed."""
        self._log(None, barrier=True)
        try:
            self._write_checkpoint()
            self._wal.reset(self._wal.sequence + 1)
        except OSError as error:
            self._failed = error
            raise

    def _write_checkpoint(self) -> None:
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "lsn": self._next_lsn - 1,
            "next_file_id": self._next_file_id,
            "journal": [note.hex() for note in self._journal],
            "files": [vars(self._entries[file_id]) for file_id in sorted(self._entries)],
        }
        text = json.dumps(payload, sort_keys=True).encode()
        blob = b"%08x\n" % zlib.crc32(text) + text
        self._files.atomic_replace(self.directory / CHECKPOINT_FILE, blob)
        self._fsyncs += 2  # the temp file, then the directory after the rename
        self.bytes_written += len(blob)

    # -- StorageBackend ---------------------------------------------------

    def _entry(self, name: str) -> _FileEntry:
        try:
            return self._entries[self._names[name]]
        except KeyError:
            raise FileNotFoundError(f"no storage file named {name!r}") from None

    def _check_open(self) -> None:
        if self._closed:
            raise BackendClosedError("operation on a closed DurableBackend")

    def create_file(self, name: str, codec: RecordCodec, page_size: int) -> None:
        self._check_open()
        if name in self._names:
            raise FileExistsError(f"storage file {name!r} already exists")
        if page_size != self.page_size:
            raise ValueError(
                f"store page size is {self.page_size}, cannot create "
                f"{name!r} with page size {page_size}"
            )
        capacity = codec.records_per_page(page_size)
        self._log(
            wal.OP_CREATE,
            wal.pack_create(self._next_file_id, codec.record_size, capacity, name),
        )
        self._codecs[self._names[name]] = codec

    def attach_file(self, name: str, codec: RecordCodec, page_size: int) -> int:
        """Re-bind a codec to a file recovered from a previous process;
        returns the file's page count.  The reopen counterpart of
        :meth:`create_file`."""
        self._check_open()
        entry = self._entry(name)
        if page_size != self.page_size:
            raise ValueError(
                f"store page size is {self.page_size}, got {page_size}"
            )
        if codec.record_size != entry.record_size:
            raise ValueError(
                f"file {name!r} was written with {entry.record_size}-byte "
                f"records, codec expects {codec.record_size}"
            )
        self._codecs[entry.file_id] = codec
        return len(entry.pages)

    def stored_files(self) -> list[str]:
        """Names of every file in the recovered catalog, sorted."""
        self._check_open()
        return sorted(self._names)

    def file_record_counts(self, name: str) -> list[int]:
        """Per-page record counts of one file, in page order (read from
        the slot payloads directly — no codec, no buffer pool, so
        attaching a file never perturbs the simulated ledger)."""
        self._check_open()
        entry = self._entry(name)
        counts = []
        for page_no in sorted(entry.pages):
            payload = self._read_slot(entry.pages[page_no], entry.file_id, page_no)
            counts.append(_COUNT.unpack_from(payload, 0)[0])
        return counts

    def delete_file(self, name: str) -> None:
        self._check_open()
        file_id = self._names.get(name)
        if file_id is None:
            return
        self._log(wal.OP_DELETE, wal.pack_delete(file_id))
        self._codecs.pop(file_id, None)

    def read_page(self, name: str, page_no: int) -> Page:
        self._check_open()
        entry = self._entry(name)
        slot = entry.pages.get(page_no)
        if slot is None:
            raise ValueError(f"page {page_no} of {name!r} was never written")
        payload = self._read_slot(slot, entry.file_id, page_no)
        (count,) = _COUNT.unpack_from(payload, 0)
        return self._codecs[entry.file_id].decode_page(payload[_COUNT.size :], count)

    def write_page(self, name: str, page_no: int, records: Page | Sequence[Record]) -> None:
        self._check_open()
        entry = self._entry(name)
        if len(records) > entry.capacity:
            raise ValueError(
                f"{len(records)} records exceed page capacity {entry.capacity}"
            )
        self._refuse_if_failed()
        payload = _COUNT.pack(len(records)) + self._codecs[entry.file_id].encode_page(records)
        pending = self._pending.setdefault(entry.file_id, set())
        if page_no in pending:
            # Not yet durable, so nothing committed names its slot.
            self._write_slot(entry.pages[page_no], entry.file_id, page_no, payload)
        else:
            # A committed page keeps its slot until the remap commits.
            slot = self._allocate_slot()
            self._write_slot(slot, entry.file_id, page_no, payload)
            if page_no in entry.pages:
                self._superseded.append(entry.pages[page_no])
            entry.pages[page_no] = slot
            pending.add(page_no)

    def journal_append(self, note: bytes, reset: bool = False) -> None:
        self._check_open()
        self._log(wal.OP_NOTE, wal.pack_note(note, reset), barrier=True)

    def _apply_note(self, body: bytes) -> None:
        """One journal record takes effect — live and on replay alike."""
        note, reset = wal.unpack_note(body)
        if reset:
            self._journal.clear()
        self._journal.append(note)

    def journal(self) -> list[bytes]:
        self._check_open()
        return list(self._journal)

    def sync(self) -> None:
        """The bare barrier: every acknowledged page now survives a crash."""
        self._check_open()
        self._log(None, barrier=True)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._failed is None:
            self.checkpoint()
        self._wal.close()
        self._data.close()
