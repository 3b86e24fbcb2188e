"""The durable page store: a crash-consistent file-backed backend.

:class:`DurableBackend` is the third storage backend (DESIGN.md
section 16).  Where :class:`~repro.storage.backend.FileBackend` writes
real files with accidental durability semantics, this store survives
``SIGKILL`` at any instant and reopens to exactly the state its last
acknowledged operation left behind:

- **data file** (``pages.data``) — a persistent header (magic, format
  version, page size, epoch) followed by fixed-size page slots, each
  carrying a crc32 checksum over (file id, page no, payload);
- **free list** — slots of deleted files are reused lowest-first, so
  the data file does not grow without bound under churn;
- **write-ahead log** (:mod:`repro.storage.wal`) — every mutation is
  logged and fsynced *before* the data file is touched; recovery on
  open replays committed records (idempotent physical redo, which heals
  torn data-page writes), truncates the log's torn tail, bumps the
  header epoch, and checkpoints;
- **checkpoint** (``checkpoint.json``, written atomically) — the full
  catalog (name -> file id -> page -> slot mapping), the free list, and
  the LSN up to which the data file is known durable; the log is reset
  after every checkpoint;
- **journal** — ``journal_append`` logs an opaque client note like any
  other record (optionally discarding all earlier notes in the same
  atomic step); ``journal()`` hands the surviving notes back after a
  reopen.  Pending notes ride in the checkpoint, so the log reset
  cannot drop them.  The resident index keeps its mutable state here.

A write or fsync error while logging marks the store **failed**: the
record may or may not be on the medium, so an ack after it could be
reordered under it by the next recovery.  Every later logging operation
raises :class:`DurableStoreError` naming the original error until the
directory is reopened; reads work and ``close()`` skips its checkpoint.

The simulated I/O ledger never sees any of this: the buffer pool above
counts the same logical transfers no matter which backend is plugged
in, so ledger metrics are byte-identical across ``memory``/``disk``/
``durable`` for fault-free runs (parity-gated in the tests).

Crash points: the ``crash_point`` hook (or the ``REPRO_DURABLE_CRASH``
environment variable, used by the kill-and-reopen harness in
:mod:`repro.verify.crash`) makes the store die — really ``SIGKILL``
itself, or raise :class:`SimulatedCrash` for in-process tests — at a
named instant: mid-WAL-append (a torn log tail), after the WAL fsync
but before the data write, mid-data-write (a torn page), just before a
journal reset (the index's compaction commit), or mid-checkpoint.
Every one of them must recover to the last acknowledged state; that is
what ``repro verify --crash`` samples.
"""

from __future__ import annotations

import heapq
import json
import os
import signal
import struct
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, BinaryIO

from repro.storage import wal
from repro.storage.backend import BackendClosedError, Record, StorageBackend
from repro.storage.records import RecordCodec

MAGIC = b"S3JPAGES"
FORMAT_VERSION = 2  # 2: the journal (OP_NOTE records, notes in the checkpoint)
HEADER_SIZE = 64
_HEADER = struct.Struct("<8sIIQI")  # magic, version, page size, epoch, crc
_SLOT_HEADER = struct.Struct("<IIQQ")  # crc, payload length, file id, page no
_COUNT = struct.Struct("<I")  # record count, first field of a payload

DATA_FILE = "pages.data"
CHECKPOINT_FILE = "checkpoint.json"
CHECKPOINT_SCHEMA = 2

DEFAULT_CHECKPOINT_BYTES = 1024 * 1024
"""WAL bytes that trigger an automatic checkpoint (and log reset)."""

CRASH_ENV = "REPRO_DURABLE_CRASH"
"""JSON crash-point spec consumed at construction — the kill-and-reopen
harness plants it in the child's environment."""

CRASH_POINTS = (
    "wal-append",
    "wal-synced",
    "data-write",
    "commit",
    "checkpoint",
)


class DurableStoreError(RuntimeError):
    """A structural store problem — bad header, checksum, catalog, an
    older on-disk format — or a write to a store that has failed."""


class SimulatedCrash(BaseException):
    """An in-process stand-in for ``SIGKILL`` (crash_point action
    ``raise``): derives from ``BaseException`` so no recovery path in
    the library can absorb it, and the test reopens the directory with
    a fresh store exactly as a restarted process would."""


@dataclass(frozen=True)
class CrashPoint:
    """Die at the ``index``-th occurrence of a named instant.

    ``fraction`` applies to the partial-write points (``wal-append``,
    ``data-write``): that fraction of the record/block bytes reaches
    the file before death.  ``action`` is ``kill`` (a genuine
    ``SIGKILL`` to the current process — subprocess harness) or
    ``raise`` (:class:`SimulatedCrash` — in-process tests).
    """

    point: str
    index: int = 0
    fraction: float = 0.5
    action: str = "kill"

    def __post_init__(self) -> None:
        if self.point not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {self.point!r}; choose from {CRASH_POINTS}"
            )
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("crash fraction must be within [0, 1]")
        if self.action not in ("kill", "raise"):
            raise ValueError("crash action must be 'kill' or 'raise'")

    def to_env(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_env(cls, text: str) -> CrashPoint:
        return cls(**json.loads(text))


@dataclass
class RecoveryReport:
    """What one open-with-recovery did (surfaced by the crash harness)."""

    replayed_records: int = 0
    healed_pages: int = 0
    truncated_bytes: int = 0
    dropped_segments: int = 0
    journal_notes: int = 0  # client notes handed back by journal()
    epoch: int = 0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


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
        crash_point: CrashPoint | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if crash_point is None and os.environ.get(CRASH_ENV):
            crash_point = CrashPoint.from_env(os.environ[CRASH_ENV])
        self._crash = crash_point
        self._crash_counts: dict[str, int] = {}
        self.checkpoint_bytes = checkpoint_bytes
        self._segment_bytes = segment_bytes
        self._entries: dict[int, _FileEntry] = {}  # file id -> entry
        self._names: dict[str, int] = {}  # name -> file id
        self._codecs: dict[str, RecordCodec] = {}
        self._free: list[int] = []  # heap of free slots
        self._next_slot = 0
        self._next_file_id = 1
        self._next_lsn = 1
        self._journal: list[bytes] = []
        self._failed: OSError | None = None
        self.epoch = 0
        self.last_recovery: RecoveryReport | None = None
        self._closed = False

        data_path = self.directory / DATA_FILE
        if data_path.exists():
            self.page_size = self._read_header()
            if page_size is not None and page_size != self.page_size:
                raise DurableStoreError(
                    f"store at {self.directory} uses page size "
                    f"{self.page_size}, configuration asked for {page_size}"
                )
            self._data: BinaryIO = open(data_path, "r+b")
            self._recover()
        else:
            if page_size is None:
                raise DurableStoreError(
                    "creating a durable store needs an explicit page size"
                )
            self.page_size = page_size
            self._data = open(data_path, "w+b")
            self.epoch = 1
            self._write_header()
            os.fsync(self._data.fileno())
            self._wal = wal.WriteAheadLog(
                self.directory, self._segment_bytes, start_sequence=1
            )
            self._write_checkpoint()

    # -- layout ----------------------------------------------------------

    @property
    def _block_size(self) -> int:
        # Worst-case payload: the 4-byte record count plus a full page
        # of record bytes, whatever the codec.
        return _SLOT_HEADER.size + _COUNT.size + self.page_size

    def _slot_offset(self, slot: int) -> int:
        return HEADER_SIZE + slot * self._block_size

    def _write_header(self) -> None:
        packed = _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            self.page_size,
            self.epoch,
            zlib.crc32(
                struct.pack("<IIQ", FORMAT_VERSION, self.page_size, self.epoch)
            ),
        )
        self._data.seek(0)
        self._data.write(packed + b"\x00" * (HEADER_SIZE - len(packed)))
        self._data.flush()

    def _read_header(self) -> int:
        with open(self.directory / DATA_FILE, "rb") as handle:
            blob = handle.read(HEADER_SIZE)
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

    # -- crash-point hooks ----------------------------------------------

    def _crash_due(self, point: str) -> bool:
        if self._crash is None or self._crash.point != point:
            return False
        count = self._crash_counts.get(point, 0)
        self._crash_counts[point] = count + 1
        return count == self._crash.index

    def _die(self) -> None:
        assert self._crash is not None
        if self._crash.action == "raise":
            raise SimulatedCrash(f"simulated crash at {self._crash.point}")
        os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - harness

    def _maybe_crash(self, point: str) -> None:
        if self._crash_due(point):
            self._die()

    def _partial_then_die(self, handle: Any, data: bytes) -> None:
        """Persist a prefix of ``data`` (through to the medium, so the
        torn state is what recovery really reads) and die."""
        assert self._crash is not None
        handle.write(data[: int(len(data) * self._crash.fraction)])
        handle.flush()
        os.fsync(handle.fileno())
        self._die()

    # -- recovery ---------------------------------------------------------

    def _recover(self) -> None:
        report = RecoveryReport()
        self._load_checkpoint()
        healed: set[tuple[int, int]] = set()

        def apply(record: wal.WalRecord) -> None:
            if record.lsn < self._next_lsn:
                return  # already reflected by the checkpoint
            self._replay(record, report, healed)
            self._next_lsn = record.lsn + 1

        scan = wal.scan_segments(self.directory, apply)
        report.truncated_bytes = scan.truncated_bytes
        report.dropped_segments = scan.dropped_segments
        report.healed_pages = len(healed)
        report.journal_notes = len(self._journal)
        # Recovery is itself a recovery point: bump the epoch, persist
        # everything, and reset the log so a second open of the same
        # directory replays nothing (double-reopen idempotence).
        self.epoch += 1
        report.epoch = self.epoch
        self._write_header()
        self._wal = wal.WriteAheadLog(
            self.directory,
            self._segment_bytes,
            start_sequence=max(
                (wal.segment_sequence(p) for p in wal.list_segments(self.directory)),
                default=0,
            )
            + 1,
        )
        self._write_checkpoint()
        self.last_recovery = report

    def _load_checkpoint(self) -> None:
        path = self.directory / CHECKPOINT_FILE
        if not path.exists():
            # A store that died before its very first checkpoint: the
            # WAL (possibly empty) is the entire history.
            return
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("schema") != CHECKPOINT_SCHEMA:
            raise DurableStoreError(
                f"unsupported checkpoint schema {data.get('schema')!r}"
            )
        self._next_file_id = int(data["next_file_id"])
        self._next_slot = int(data["next_slot"])
        self._free = [int(slot) for slot in data["free"]]
        heapq.heapify(self._free)
        for row in data["files"]:
            entry = _FileEntry(
                file_id=int(row["file_id"]),
                name=str(row["name"]),
                record_size=int(row["record_size"]),
                capacity=int(row["capacity"]),
                pages={
                    int(page_no): int(slot)
                    for page_no, slot in row["pages"].items()
                },
            )
            self._entries[entry.file_id] = entry
            self._names[entry.name] = entry.file_id
        self._journal = [bytes.fromhex(note) for note in data["journal"]]
        self._next_lsn = int(data["lsn"]) + 1

    def _replay(
        self,
        record: wal.WalRecord,
        report: RecoveryReport,
        healed: set[tuple[int, int]],
    ) -> None:
        report.replayed_records += 1
        if record.op == wal.OP_WRITE:
            file_id, page_no, slot, payload = wal.unpack_write(record.body)
            entry = self._entries.get(file_id)
            if entry is None:
                raise DurableStoreError(
                    f"WAL write record {record.lsn} names unknown file "
                    f"id {file_id}"
                )
            # Idempotent physical redo: rewrite the slot from the log
            # unconditionally.  A torn or lost data write is healed; an
            # intact one is rewritten with identical bytes.
            if not self._slot_matches(entry, page_no, slot, payload):
                healed.add((file_id, page_no))
            self._write_slot(slot, entry.file_id, page_no, payload)
            entry.pages[page_no] = slot
            self._note_slot_used(slot)
        elif record.op == wal.OP_CREATE:
            file_id, record_size, capacity, name = wal.unpack_create(record.body)
            entry = _FileEntry(file_id, name, record_size, capacity)
            self._entries[file_id] = entry
            self._names[name] = file_id
            self._next_file_id = max(self._next_file_id, file_id + 1)
        elif record.op == wal.OP_DELETE:
            file_id = wal.unpack_delete(record.body)
            entry = self._entries.pop(file_id, None)
            if entry is not None:
                self._names.pop(entry.name, None)
                for slot in entry.pages.values():
                    heapq.heappush(self._free, slot)
        elif record.op == wal.OP_RENAME:
            file_id, new_name = wal.unpack_rename(record.body)
            entry = self._entries.get(file_id)
            if entry is None:
                raise DurableStoreError(
                    f"WAL rename record {record.lsn} names unknown file "
                    f"id {file_id}"
                )
            self._names.pop(entry.name, None)
            entry.name = new_name
            self._names[new_name] = file_id
        elif record.op == wal.OP_NOTE:
            self._apply_note(record.body)
        else:
            raise DurableStoreError(f"unknown WAL op {record.op}")

    def _slot_matches(
        self, entry: _FileEntry, page_no: int, slot: int, payload: bytes
    ) -> bool:
        """Whether the data file already holds this exact committed
        write (used only to report healed pages, not for correctness)."""
        if entry.pages.get(page_no) != slot:
            return False
        try:
            return self._read_slot(slot, entry.file_id, page_no) == payload
        except DurableStoreError:
            return False

    def _note_slot_used(self, slot: int) -> None:
        self._next_slot = max(self._next_slot, slot + 1)
        if slot in self._free:
            self._free.remove(slot)
            heapq.heapify(self._free)

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
        offset = self._slot_offset(slot)
        end = self._data.seek(0, os.SEEK_END)
        if offset > end:
            self._data.write(b"\x00" * (offset - end))
        self._data.seek(offset)
        if self._crash_due("data-write"):
            self._partial_then_die(self._data, block)
        self._data.write(block)
        self._data.flush()

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

    def _log(self, op: int, body: bytes) -> None:
        self._refuse_if_failed()
        record = wal.WalRecord(self._next_lsn, op, body)
        self._next_lsn += 1
        try:
            if self._crash_due("wal-append"):
                self._wal.append(record, partial_writer=self._partial_then_die)
            else:
                self._wal.append(record)
            self._wal.sync()  # the commit point: log before data, always
        except OSError as error:
            self._failed = error  # on the medium or not: only a reopen can tell
            raise
        self._maybe_crash("wal-synced")

    def _maybe_checkpoint(self) -> None:
        if self._wal.bytes_appended >= self.checkpoint_bytes:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Make the log redundant: fsync the data file, persist the
        catalog atomically, then reset the log to a fresh segment."""
        self._refuse_if_failed()
        self._data.flush()
        os.fsync(self._data.fileno())
        self._write_checkpoint()
        self._maybe_crash("checkpoint")
        self._wal.reset(self._wal.sequence + 1)

    def _write_checkpoint(self) -> None:
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "lsn": self._next_lsn - 1,
            "epoch": self.epoch,
            "page_size": self.page_size,
            "next_file_id": self._next_file_id,
            "next_slot": self._next_slot,
            "free": sorted(self._free),
            "journal": [note.hex() for note in self._journal],
            "files": [
                {
                    "file_id": entry.file_id,
                    "name": entry.name,
                    "record_size": entry.record_size,
                    "capacity": entry.capacity,
                    "pages": {
                        str(page_no): slot
                        for page_no, slot in sorted(entry.pages.items())
                    },
                }
                for entry in sorted(
                    self._entries.values(), key=lambda e: e.file_id
                )
            ],
        }
        # Inline atomic write (temp + fsync + rename) rather than
        # repro.obs.fileio to keep the storage layer import-light.
        path = self.directory / CHECKPOINT_FILE
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    # -- payload codec ----------------------------------------------------

    def _entry(self, name: str) -> _FileEntry:
        try:
            return self._entries[self._names[name]]
        except KeyError:
            raise FileNotFoundError(f"no storage file named {name!r}") from None

    def _encode_payload(self, name: str, records: list[Record]) -> bytes:
        codec = self._codecs[name]
        return _COUNT.pack(len(records)) + b"".join(
            codec.encode(record) for record in records
        )

    def _decode_payload(self, name: str, payload: bytes) -> list[Record]:
        codec = self._codecs[name]
        (count,) = _COUNT.unpack_from(payload, 0)
        records = []
        offset = _COUNT.size
        for _ in range(count):
            records.append(codec.decode(payload[offset : offset + codec.record_size]))
            offset += codec.record_size
        return records

    # -- StorageBackend ---------------------------------------------------

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
        file_id = self._next_file_id
        self._next_file_id += 1
        capacity = codec.records_per_page(page_size)
        self._log(
            wal.OP_CREATE,
            wal.pack_create(file_id, codec.record_size, capacity, name),
        )
        self._entries[file_id] = _FileEntry(
            file_id, name, codec.record_size, capacity
        )
        self._names[name] = file_id
        self._codecs[name] = codec

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
        self._codecs[name] = codec
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
        entry = self._entries.pop(file_id)
        self._names.pop(name, None)
        self._codecs.pop(name, None)
        for slot in entry.pages.values():
            heapq.heappush(self._free, slot)
        self._maybe_checkpoint()

    def rename_file(self, old: str, new: str) -> None:
        self._check_open()
        entry = self._entry(old)
        if new in self._names:
            raise FileExistsError(f"storage file {new!r} already exists")
        self._log(wal.OP_RENAME, wal.pack_rename(entry.file_id, new))
        self._names.pop(old, None)
        entry.name = new
        self._names[new] = entry.file_id
        codec = self._codecs.pop(old, None)
        if codec is not None:
            self._codecs[new] = codec

    def read_page(self, name: str, page_no: int) -> list[Record]:
        self._check_open()
        entry = self._entry(name)
        slot = entry.pages.get(page_no)
        if slot is None:
            raise ValueError(f"page {page_no} of {name!r} was never written")
        payload = self._read_slot(slot, entry.file_id, page_no)
        return self._decode_payload(name, payload)

    def write_page(self, name: str, page_no: int, records: list[Record]) -> None:
        self._check_open()
        entry = self._entry(name)
        if len(records) > entry.capacity:
            raise ValueError(
                f"{len(records)} records exceed page capacity {entry.capacity}"
            )
        payload = self._encode_payload(name, records)
        slot = entry.pages.get(page_no)
        if slot is None:
            slot = self._allocate_slot()
        # WAL first (fsynced inside _log), data second: a crash between
        # the two replays the payload from the log on reopen.
        self._log(wal.OP_WRITE, wal.pack_write(entry.file_id, page_no, slot, payload))
        entry.pages[page_no] = slot
        self._write_slot(slot, entry.file_id, page_no, payload)
        self._maybe_checkpoint()

    def journal_append(self, note: bytes, reset: bool = False) -> None:
        self._check_open()
        if reset:
            self._maybe_crash("commit")
        body = wal.pack_note(note, reset)
        self._log(wal.OP_NOTE, body)
        self._apply_note(body)
        self._maybe_checkpoint()

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
        """Force full durability: commit the log and fsync the data file."""
        self._check_open()
        self._wal.sync()
        self._data.flush()
        os.fsync(self._data.fileno())

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._failed is None:
            self.checkpoint()
        self._wal.close()
        self._data.close()
