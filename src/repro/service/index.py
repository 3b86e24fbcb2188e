"""The resident S3J index: level files + delta + tombstones + epoch.

A level file is just a Hilbert-sorted run (PAPER.md section 3), so the
LSM idiom applies directly: the **base** is the partitioned + sorted
level files kept open across queries in one long-lived storage
manager; incremental ``insert``/``delete`` land in a small in-memory
**delta** (one sorted buffer per level, deletes of base entities as
tombstones) merged into every query's view; ``compact`` folds the delta
back into the level files (write-new + atomic rename, the external
sorter's temp-file discipline) once it grows past a threshold.

Every mutation *and* every compaction bumps the **epoch**.  The epoch
is the index's only cache key ingredient besides the query itself: a
result cached at epoch ``e`` is valid exactly as long as the live set
is the one ``e`` named — compaction changes no live entity but does
change which files back them, so it too must (and does) advance the
epoch rather than silently re-using entries computed against dropped
files.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
from bisect import bisect_left, insort
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

from repro.curves.base import SpaceFillingCurve
from repro.curves.hilbert import HilbertCurve
from repro.filtertree.levels import DEFAULT_MAX_LEVEL, LevelAssigner
from repro.filtertree.ranges import (
    matching,
    range_records,
    record_key,
    window_key_ranges,
)
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.dataset import SpatialDataset
from repro.join.result import Pair, canonical_pairs
from repro.obs import Observability
from repro.service.scan import live_self_scan
from repro.storage.backend import Record, StorageBackend
from repro.storage.manager import StorageConfig, StorageManager
from repro.storage.pagedfile import PagedFile
from repro.storage.records import EID, HKEY, XLO, YHI

DEFAULT_COMPACTION_THRESHOLD = 256
"""Delta records (inserts + tombstones) that trigger compaction."""

SNAPSHOT_FILE = "index-snapshot.json"
"""Delta/tombstone/epoch snapshot of a durable index, in its data
directory next to the page store.  Written atomically before every
mutation is acknowledged."""

SNAPSHOT_SCHEMA = 1


_sort_key = itemgetter(HKEY, EID)
"""Level files are Hilbert-sorted; eid breaks ties deterministically."""


class PersistentIndex:
    """One resident spatial-join index over a long-lived storage manager.

    Synchronous and single-writer by design: the service front-end
    (:class:`repro.service.api.JoinService`) serializes mutations and
    compaction around queries.  All query I/O against the base level
    files is charged to the manager's simulated ledger under the
    ``query`` / ``compaction`` phases, so ``repro report`` renders a
    service run with the same machinery as a batch join.
    """

    def __init__(
        self,
        entities: Iterable[Entity] = (),
        storage: StorageConfig | None = None,
        obs: Observability | None = None,
        curve: SpaceFillingCurve | None = None,
        max_level: int = DEFAULT_MAX_LEVEL,
        compaction_threshold: int = DEFAULT_COMPACTION_THRESHOLD,
        name: str = "idx",
        data_dir: str | None = None,
    ) -> None:
        if compaction_threshold < 1:
            raise ValueError("compaction_threshold must be positive")
        self.curve = curve or HilbertCurve()
        self.assigner = LevelAssigner(
            order=self.curve.order, max_level=min(max_level, self.curve.order)
        )
        config = storage or StorageConfig()
        if data_dir is not None:
            # A durable index: the page store (and its WAL) plus the
            # delta snapshot all live under this directory, and a later
            # process can reopen the whole thing.
            config = dataclasses.replace(
                config, backend="durable", directory=data_dir
            )
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.storage = StorageManager(config, obs=obs)
        self.obs = self.storage.obs
        self.name = name
        self.compaction_threshold = compaction_threshold
        self.epoch = 0
        self.compactions = 0
        self.queries = 0  # point/window queries answered
        self.query_page_reads = 0  # base pages those fetched on pool misses
        self.recovered = False
        self._base: dict[int, PagedFile] = {}
        self._directory: dict[int, list[int]] = {}  # level -> page first keys
        self._delta: dict[int, list[Record]] = {}
        self._tombstones: dict[int, set[int]] = {}  # level -> base eids
        self._live: dict[int, tuple[int, Entity]] = {}  # eid -> (level, entity)
        seed = list(entities)
        if self.data_dir is not None:
            self._sweep_orphans()
        if self.data_dir is not None and (self.data_dir / SNAPSHOT_FILE).exists():
            if seed:
                raise ValueError(
                    f"{self.data_dir} already holds an index; reopening "
                    "cannot also bulk-load entities"
                )
            self._reopen()
        else:
            self._bulk_load(seed)
            self._persist()

    # -- construction ----------------------------------------------------

    def _describe(self, entity: Entity) -> tuple[int, Record]:
        box = entity.mbr
        level = self.assigner.level(box)
        hilbert = self.curve.key_of_normalized(*box.center)
        record = (entity.eid, box.xlo, box.ylo, box.xhi, box.yhi, hilbert)
        return level, record

    def _bulk_load(self, entities: list[Entity]) -> None:
        by_level: dict[int, list[Record]] = {}
        for entity in entities:
            if entity.eid in self._live:
                raise ValueError(f"duplicate entity id {entity.eid}")
            level, record = self._describe(entity)
            by_level.setdefault(level, []).append(record)
            self._live[entity.eid] = (level, entity)
        with self.storage.stats.phase("load"):
            for level, records in sorted(by_level.items()):
                records.sort(key=_sort_key)
                handle = self.storage.create_file(self._level_name(level))
                handle.append_many(records)
                handle.flush()
                self._set_base(level, handle, records)

    def _level_name(self, level: int) -> str:
        return f"{self.name}-L{level}"

    def _set_base(self, level: int, handle: PagedFile, records: list[Record]) -> None:
        """Install a level file and its page directory (first key of every
        page) from the sorted records just written or read: level files
        are bulk-written, so every page but the last is full."""
        self._base[level] = handle
        self._directory[level] = [
            record[HKEY] for record in records[:: handle.records_per_page]
        ]

    # -- durability ------------------------------------------------------

    @classmethod
    def open(
        cls,
        data_dir: str,
        storage: StorageConfig | None = None,
        obs: Observability | None = None,
        **kwargs: object,
    ) -> PersistentIndex:
        """Open (or create) a durable index rooted at ``data_dir`` —
        sugar for ``PersistentIndex(data_dir=...)``."""
        return cls(storage=storage, obs=obs, data_dir=data_dir, **kwargs)  # type: ignore[arg-type]

    def _sweep_orphans(self) -> None:
        """Resolve debris a dead process left behind.

        Half-written ``*.tmp`` files from interrupted atomic writes are
        deleted.  A ``-compact`` level file is an interrupted compaction
        rename, and which half of the rename it died in decides its
        fate: the replace-rename deletes the old base *before* renaming
        the temp onto its name, and the temp is fully written and
        durable before the rename begins — so a temp whose base still
        exists lost the race (the base is authoritative; drop the temp),
        while a temp whose base is *gone* is the complete replacement
        (finish the rename it was killed in the middle of).
        """
        assert self.data_dir is not None
        for tmp in self.data_dir.glob("*.tmp"):
            tmp.unlink()
        stored = set(self.storage.stored_files())
        for name in sorted(stored):
            if not name.endswith("-compact"):
                continue
            base = name[: -len("-compact")]
            if base in stored:
                self._backend().delete_file(name)
            else:
                self._backend().rename_file(name, base)

    def _backend(self) -> StorageBackend:
        """The physical backend (the benchmark reads its recovery report)."""
        return self.storage.physical_backend()

    def _persist(self) -> None:
        """Write the delta snapshot atomically (fsync + rename).

        Called after every mutation *before* the caller gets its new
        epoch back, so an acknowledged operation is on the medium: the
        base level files are durable the moment their pages hit the
        WAL-backed store, and everything else — delta buffers,
        tombstones, epoch — round-trips through this snapshot.  A crash
        mid-write leaves the previous snapshot intact (atomic replace),
        so recovery sees either k or k+1 acknowledged operations, never
        a torn state.  Plain file I/O, invisible to the simulated
        ledger.
        """
        if self.data_dir is None:
            return
        payload = {
            "schema": SNAPSHOT_SCHEMA,
            "name": self.name,
            "epoch": self.epoch,
            "compactions": self.compactions,
            "delta": {
                str(level): [list(record) for record in records]
                for level, records in sorted(self._delta.items())
            },
            "tombstones": {
                str(level): sorted(dead)
                for level, dead in sorted(self._tombstones.items())
            },
        }
        from repro.obs.fileio import atomic_write_json

        atomic_write_json(self.data_dir / SNAPSHOT_FILE, payload, indent=None)

    def _reopen(self) -> None:
        """Rebuild the live index from the page store and the snapshot.

        All reads go straight to the recovered backend catalog — never
        through the buffer pool — so reopening is free in the simulated
        ledger, like process start-up should be.

        The snapshot may be one acknowledged mutation *ahead* of a
        compaction that did or did not commit before the crash (rename
        logged vs. not), so the delta is normalized against the
        recovered base: a delta record already present verbatim in its
        base level was folded by a committed compaction and is dropped,
        as is a tombstone whose eid no longer appears in the base.
        """
        assert self.data_dir is not None
        data = json.loads((self.data_dir / SNAPSHOT_FILE).read_text("utf-8"))
        if data.get("schema") != SNAPSHOT_SCHEMA:
            raise ValueError(f"unsupported snapshot schema {data.get('schema')!r}")
        if data.get("name") != self.name:
            raise ValueError(
                f"store at {self.data_dir} holds index {data.get('name')!r}, "
                f"asked to open {self.name!r}"
            )
        self.epoch = int(data["epoch"])
        self.compactions = int(data["compactions"])
        self.recovered = True

        def typed(row: list) -> Record:
            return (int(row[0]), *map(float, row[1:5]), int(row[5]))

        # Base levels: every surviving level file in the catalog (a
        # committed compaction can empty or create a level after the
        # last snapshot, so the catalog is authoritative).
        prefix = f"{self.name}-L"
        base_records: dict[int, list[Record]] = {}
        for stored in self.storage.stored_files():
            if not stored.startswith(prefix):
                continue
            level = int(stored[len(prefix) :])
            handle = self.storage.attach_file(stored)
            base_records[level] = list(self._raw_scan(handle))
            self._set_base(level, handle, base_records[level])
        snapshot_delta = {
            int(key): [typed(row) for row in rows]
            for key, rows in data["delta"].items()
        }
        snapshot_dead = {
            int(key): {int(eid) for eid in eids}
            for key, eids in data["tombstones"].items()
        }
        for level in sorted(set(snapshot_delta) | set(snapshot_dead)):
            by_eid = {r[EID]: r for r in base_records.get(level, ())}
            # A delta record found verbatim in the base was folded by a
            # compaction that committed (rename logged) just before the
            # crash; its tombstone twin, if any, is equally stale.  A
            # record *not* in the base is still pending — and so is a
            # tombstone whose eid the base still carries.
            records = [
                r for r in snapshot_delta.get(level, []) if by_eid.get(r[EID]) != r
            ]
            pending = {r[EID] for r in records}
            dead = {
                eid
                for eid in snapshot_dead.get(level, set())
                if eid in by_eid and (eid in pending or eid not in {
                    r[EID] for r in snapshot_delta.get(level, [])
                })
            }
            if records:
                self._delta[level] = records
            if dead:
                self._tombstones[level] = dead
        # The live set: base minus tombstones, plus the delta.
        for level, records in base_records.items():
            dead = self._tombstones.get(level, set())
            for record in records:
                if record[EID] not in dead:
                    self._live[record[EID]] = (level, self._entity_of(record))
        for level, records in self._delta.items():
            for record in records:
                self._live[record[EID]] = (level, self._entity_of(record))
        self._persist()

    def _raw_scan(self, handle: PagedFile) -> Iterator[Record]:
        """Every record of a base file, read directly from the backend
        (no buffer pool, no ledger charge)."""
        backend = self._backend()
        for page_no in range(handle.num_pages):
            yield from backend.read_page(handle.name, page_no)

    @staticmethod
    def _entity_of(record: Record) -> Entity:
        return Entity(record[EID], Rect(*record[XLO : YHI + 1]))

    # -- the live view ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, eid: int) -> bool:
        return eid in self._live

    @property
    def delta_records(self) -> int:
        """Pending delta size: buffered inserts plus tombstones."""
        return sum(len(buf) for buf in self._delta.values()) + sum(
            len(dead) for dead in self._tombstones.values()
        )

    @property
    def needs_compaction(self) -> bool:
        return self.delta_records >= self.compaction_threshold

    def levels(self) -> list[int]:
        """Levels with any live or pending data, sorted."""
        return sorted(set(self._base) | set(self._delta))

    def level_records(self, level: int) -> Iterator[Record]:
        """The live records of one level in Hilbert order: the base
        level file merged with the delta buffer, minus tombstones.
        Base pages are read through the buffer pool, so the simulated
        ledger prices every query's base I/O."""
        handle = self._base.get(level)
        base: Iterable[Record] = handle.scan() if handle is not None else ()
        delta = self._delta.get(level, ())
        dead = self._tombstones.get(level)
        if dead:
            # Tombstones name *base* records only — a delta record with
            # the same eid (a re-insert after deleting a base entity)
            # is live and must pass through.
            base = (record for record in base if record[EID] not in dead)
        return heapq.merge(base, delta, key=_sort_key)

    def live_entities(self) -> list[Entity]:
        """The live entity set (insertion-independent order: by eid)."""
        return [entity for _, (_, entity) in sorted(self._live.items())]

    def snapshot_dataset(self, name: str = "live") -> SpatialDataset:
        """The live set as a :class:`SpatialDataset` — what a cold batch
        join of the index's current contents takes as input."""
        return SpatialDataset(name, self.live_entities())

    # -- mutations -------------------------------------------------------

    def insert(self, entity: Entity) -> int:
        """Add one entity to the live set; returns the new epoch."""
        if entity.eid in self._live:
            raise ValueError(f"entity id {entity.eid} is already live")
        level, record = self._describe(entity)
        insort(self._delta.setdefault(level, []), record, key=_sort_key)
        self._live[entity.eid] = (level, entity)
        self.epoch += 1
        self._persist()
        return self.epoch

    def delete(self, eid: int) -> int:
        """Remove one live entity; returns the new epoch.

        An entity still sitting in the delta is removed outright; an
        entity already in a base level file gets a tombstone that the
        merge applies until the next compaction folds it in.
        """
        try:
            level, _ = self._live.pop(eid)
        except KeyError:
            raise KeyError(f"no live entity with id {eid}") from None
        buffer = self._delta.get(level, [])
        for position, record in enumerate(buffer):
            if record[EID] == eid:
                del buffer[position]
                if not buffer:
                    del self._delta[level]
                break
        else:
            self._tombstones.setdefault(level, set()).add(eid)
        self.epoch += 1
        self._persist()
        return self.epoch

    # -- compaction ------------------------------------------------------

    def compact(self) -> bool:
        """Fold the delta and tombstones into the base level files.

        Write-new + atomic rename per affected level (the external
        sorter's temp-file discipline: the replacement is complete
        before it takes the base name, and the temp file is dropped on
        any failure).  Returns whether anything was folded; when it
        was, the epoch advances so cached results keyed on the old
        epoch can never be served against the new file set.
        """
        affected = sorted(set(self._delta) | set(self._tombstones))
        if not affected:
            return False
        with self.storage.stats.phase("compaction"):
            self.storage.phase_boundary()
            for level in affected:
                records = list(self.level_records(level))
                temp_name = f"{self._level_name(level)}-compact"
                temp = self.storage.create_file(temp_name)
                try:
                    temp.append_many(records)
                    temp.flush()
                    if records:
                        self.storage.rename_file(
                            temp_name, self._level_name(level), replace=True
                        )
                        self._set_base(level, temp, records)
                    else:
                        self.storage.drop_file(temp_name)
                        if level in self._base:
                            self.storage.drop_file(self._level_name(level))
                            del self._base[level], self._directory[level]
                except BaseException:
                    if temp_name in self.storage.list_files():
                        self.storage.drop_file(temp_name)
                    raise
                self._delta.pop(level, None)
                self._tombstones.pop(level, None)
        self.compactions += 1
        self.epoch += 1
        self._persist()
        return True

    # -- queries ---------------------------------------------------------

    def point_query(self, x: float, y: float) -> tuple[int, ...]:
        """Ids of live entities whose MBR contains the point, sorted."""
        return self.window_query(Rect.point(x, y))

    def window_query(self, window: Rect) -> tuple[int, ...]:
        """Ids of live entities whose MBR intersects the window, sorted
        (closed-interval semantics, same as the sweep).

        Per level the window maps to a few key ranges; only the base
        pages the directory places in one are read — through the pool,
        which stays warm across queries, so the ledger prices exactly
        the pages fetched — and the sorted delta is bisected on the
        same ranges.  Tombstones name base records only.
        """
        hits: list[int] = []
        reads = self.storage.stats.total.page_reads
        examined = 0
        with self.storage.stats.phase("query"):
            ranges = window_key_ranges(self.curve, window, self.levels())
            for level, key_ranges in ranges.items():
                handle = self._base.get(level)
                if handle is not None:
                    dead = self._tombstones.get(level, ())
                    for records in range_records(
                        handle, self._directory[level], key_ranges
                    ):
                        examined += len(records)
                        hits += matching(records, window, dead)
                delta = self._delta.get(level, ())
                for lo, hi in key_ranges if delta else ():
                    start = bisect_left(delta, lo, key=record_key)
                    stop = bisect_left(delta, hi, start, key=record_key)
                    examined += stop - start
                    hits += matching(delta[start:stop], window)
        fetched = self.storage.stats.total.page_reads - reads
        self.queries += 1
        self.query_page_reads += fetched
        metrics = self.obs.active_metrics
        if metrics is not None:
            metrics.count("index.query_pages_read", fetched)
            metrics.count("index.query_records_examined", examined)
            metrics.count("index.query_hits", len(hits))
        return tuple(sorted(hits))

    def self_join(self) -> frozenset[Pair]:
        """All intersecting live pairs — the synchronized self-scan over
        the live per-level streams, canonicalized like a batch self
        join (``(min, max)``, no ``(e, e)``)."""
        raw: set[Pair] = set()
        with self.storage.stats.phase("query"):
            self.storage.phase_boundary()
            live_self_scan(
                {level: self.level_records(level) for level in self.levels()},
                self.curve.order,
                lambda a, b: raw.add((a[EID], b[EID])),
                stats=self.storage.stats,
                metrics=self.obs.active_metrics,
            )
        return canonical_pairs(raw, self_join=True)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the storage manager (idempotent)."""
        self.storage.close()

    def __enter__(self) -> PersistentIndex:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
