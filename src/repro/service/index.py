"""The resident S3J index: level files + delta + tombstones + epoch.

A level file is just a Hilbert-sorted run (PAPER.md section 3), so the
LSM idiom applies directly: the **base** is the partitioned + sorted
level files kept open across queries in one long-lived storage
manager; incremental ``insert``/``delete`` land in a small in-memory
**delta** (one sorted buffer per level, deletes of base entities as
tombstones) merged into every query's view; ``compact`` folds the delta
back into fresh level files once the mutations since the last fold reach
1/8 of the live set.

A durable index (``data_dir=``) has **one log**, the durable store's
WAL (DESIGN.md section 16).  A mutation is validated, appended to the
store's journal as one note (``I`` + the 48-byte descriptor, ``D`` + the
eid) and only then applied in memory; a bulk load or compaction commits
its files with one *manifest* note (``M`` + JSON: name, epoch,
compactions, level -> file) that resets the journal.  Reopen reads the
manifest, deletes every stored file it does not name, attaches the rest
and replays the remaining notes through the same ``_apply_*`` methods.

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
import json
import struct
from bisect import bisect_left, insort
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from repro.curves.base import SpaceFillingCurve
from repro.curves.hilbert import HilbertCurve
from repro.filtertree.levels import DEFAULT_MAX_LEVEL, LevelAssigner
from repro.filtertree.ranges import KeyDirectory
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.dataset import SpatialDataset
from repro.join.result import Pair
from repro.obs import Observability
from repro.service.scan import live_self_scan
from repro.storage.backend import Page, Record, StorageBackend
from repro.storage.manager import StorageConfig, StorageManager
from repro.storage.pagedfile import PagedFile
from repro.storage.records import DESCRIPTOR, EID, HKEY, XLO, YHI, EntityDescriptorCodec
from repro.storage.records import concat_pages, take

DEFAULT_COMPACTION_THRESHOLD = 256
"""The fewest mutations since the last fold that make a fold due."""

COMPACTION_SIZE_RATIO = 8
"""Above the threshold a fold is due at 1/8 of the live set, so the
rewrite work per mutation does not grow with it (DESIGN.md section 15)."""

_DESCRIPTOR = EntityDescriptorCodec()
_EID = struct.Struct("<q")

_sort_key = itemgetter(HKEY, EID)
"""Level files are Hilbert-sorted; eid breaks ties deterministically."""


class IndexExistsError(ValueError):
    """Entities were given to bulk-load, but the store already holds a
    committed index (the bootstrap set is for first boot only)."""


class PersistentIndex:
    """One resident spatial-join index over a long-lived storage manager.

    Synchronous and single-writer by design: the service front-end
    (:class:`repro.service.api.JoinService`) serializes mutations and
    compaction around queries.  All query I/O against the base level
    files is charged to the manager's simulated ledger under the
    ``query`` / ``compaction`` phases, so ``repro report`` renders a
    service run with the same machinery as a batch join.  A fold and
    the self-join take each level's live view as one array
    (:meth:`level_rows`); point and window queries probe only the
    slices they need.
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
            # A durable index: the page store and its WAL — the index's
            # only log too — live under this directory, and a later
            # process can reopen the whole thing.
            config = dataclasses.replace(config, backend="durable", directory=data_dir)
        self.storage = StorageManager(config, obs=obs)
        self.obs = self.storage.obs
        self.name = name
        self.compaction_threshold = compaction_threshold
        self.epoch = 0
        self.compactions = 0
        self.queries = 0  # point/window queries answered
        self.query_page_fetches = 0  # base pages those asked the pool for
        self.query_page_reads = 0  # ... of which pool misses
        self.query_records_examined = 0  # records MBR-tested (base + delta)
        self.query_hits = 0  # ids returned
        self.recovered = False
        self.notes_replayed = 0  # journal notes re-applied by a reopen
        self.debris_dropped = 0  # stored files no manifest named, deleted on open
        self.last_fold: dict[str, int] = {}  # what the latest fold cost (none yet: empty)
        self._base: dict[int, PagedFile] = {}
        self._directory = KeyDirectory(self.curve, self.assigner.max_level)
        self._delta: dict[int, list[Record]] = {}
        self._delta_keys: dict[int, int] = {}  # eid -> Hilbert key, of inserts in the delta
        self._tombstones: dict[int, set[int]] = {}  # level -> base eids
        self._pending = 0  # mutations applied since the last fold
        self._live: dict[int, tuple[int, Entity]] = {}  # eid -> (level, entity)
        seed = list(entities)
        notes = self._backend().journal()
        if not notes:
            # No committed manifest: nothing here was ever acknowledged,
            # so whatever the store holds is a first boot that died.
            self._drop_unnamed(set())
            self._bulk_load(seed)
        elif seed:
            self.storage.close()
            raise IndexExistsError(
                f"{config.directory} already holds an index; reopening "
                "cannot also bulk-load entities"
            )
        else:
            self._reopen(notes)

    # -- construction ----------------------------------------------------

    def _describe(self, entity: Entity) -> tuple[int, Record]:
        box = entity.mbr
        level = self.assigner.level(box)
        hilbert = self.curve.key_of_normalized(*box.center)
        record = (entity.eid, box.xlo, box.ylo, box.xhi, box.yhi, hilbert)
        return level, record

    def _bulk_load(self, entities: list[Entity]) -> None:
        """The first compaction: everything starts in the delta and is
        folded into generation-0 level files, leaving epoch 0."""
        for entity in entities:
            if entity.eid in self._live:
                raise ValueError(f"duplicate entity id {entity.eid}")
            level, record = self._describe(entity)
            self._delta.setdefault(level, []).append(record)
            self._live[entity.eid] = (level, entity)
        for records in self._delta.values():
            records.sort(key=_sort_key)
        self._fold("load", epoch=0, compactions=0)

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

    def _backend(self) -> StorageBackend:
        """The page store: the journal is its, and the benchmark reads
        its recovery report."""
        return self.storage.backend

    def _drop_unnamed(self, named: set[str]) -> None:
        """The one debris rule: a stored file the manifest does not name
        was never acknowledged (its bulk load or compaction died before
        the commit) or is already replaced (died after it) — delete it."""
        for stored in sorted(set(self.storage.stored_files()) - named):
            self._backend().delete_file(stored)
            self.debris_dropped += 1

    def _reopen(self, notes: list[bytes]) -> None:
        """Rebuild the live index from the recovered journal: attach the
        level files the manifest (always the first note) names, then
        replay the mutations logged after it through the live path.
        Reads go straight to the recovered backend catalog, never
        through the buffer pool, so reopening is free in the simulated
        ledger, like process start-up should be."""
        manifest = json.loads(notes[0][1:])
        if manifest["name"] != self.name:
            raise ValueError(
                f"the store holds index {manifest['name']!r}, "
                f"asked to open {self.name!r}"
            )
        self.epoch, self.compactions = manifest["epoch"], manifest["compactions"]
        self.recovered = True
        levels = {int(level): stored for level, stored in manifest["levels"].items()}
        self._drop_unnamed(set(levels.values()))
        entries = {}
        for level, stored in levels.items():
            handle = self.storage.attach_file(stored)
            rows = self._raw_scan(handle)
            self._base[level] = handle
            entries[level] = self._directory.level_keys(level, rows)
            self._directory.grow(level, rows)
            for record in rows.tolist():
                self._live[record[EID]] = (level, self._entity_of(record))
        self._directory.replace(entries)
        for note in notes[1:]:
            if note[:1] == b"I":
                record = _DESCRIPTOR.decode(note[1:])
                entity = self._entity_of(record)
                self._apply_insert(self.assigner.level(entity.mbr), record, entity)
            elif note[:1] == b"D":
                self._apply_delete(*_EID.unpack(note[1:]))
            else:
                raise ValueError(f"unknown journal note {note[:16]!r}")
        self.notes_replayed = len(notes) - 1

    def _raw_scan(self, handle: PagedFile) -> Page:
        """Every record of a base file, read directly from the backend
        (no buffer pool, no ledger charge)."""
        backend = self._backend()
        pages = [backend.read_page(handle.name, n) for n in range(handle.num_pages)]
        return concat_pages(pages, DESCRIPTOR)

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
        """Mutations applied since the last fold, each insert and each
        delete counted once, even a delete that undoes a buffered insert
        and so leaves no record behind.  That is what a durable index's
        journal holds past its manifest, so the fold trigger bounds the
        journal as well as the delta (which never holds more)."""
        return self._pending

    @property
    def compaction_due_at(self) -> int:
        """The :attr:`delta_records` at which the next fold is due."""
        return max(self.compaction_threshold, len(self._live) // COMPACTION_SIZE_RATIO)

    @property
    def needs_compaction(self) -> bool:
        return self._pending >= self.compaction_due_at

    def levels(self) -> list[int]:
        """Levels with any live or pending data, sorted."""
        return sorted(set(self._base) | set(self._delta))

    def level_records(self, level: int) -> Iterator[Record]:
        """:meth:`level_rows` as tuples."""
        return iter(self.level_rows(level).tolist())

    def level_rows(self, level: int) -> Page:
        """The live records of one level in Hilbert order, as one
        read-only array: the base level file minus its tombstones, with
        the delta buffer spliced in.  The base is read through the
        buffer pool, so the simulated ledger prices every scan's base
        I/O."""
        delta = _DESCRIPTOR.page(self._delta.get(level, []))
        handle = self._base.get(level)
        if handle is None:
            return delta  # kept sorted as it grew: nothing to merge
        rows = handle.read_all()
        dead = self._tombstones.get(level)
        if dead:
            # Tombstones name *base* records only: a delta record of
            # the same eid (a re-insert) is live and passes through.
            rows = take(rows, ~np.isin(rows["eid"], np.fromiter(dead, np.int64, len(dead))))
        if len(delta):
            rows = concat_pages([rows, delta])
            rows = take(rows, np.lexsort((rows["eid"], rows["hkey"])))
        return rows

    def live_entities(self) -> list[Entity]:
        """The live entity set (insertion-independent order: by eid)."""
        return [entity for _, (_, entity) in sorted(self._live.items())]

    def snapshot_dataset(self, name: str = "live") -> SpatialDataset:
        """The live set as a :class:`SpatialDataset` — what a cold batch
        join of the index's current contents takes as input."""
        return SpatialDataset(name, self.live_entities())

    # -- mutations -------------------------------------------------------
    # Validate, append one journal note, then apply in memory: a note
    # that fails to reach the log leaves the index as it was, and a
    # reopen applies the same notes through the same two methods.

    def insert(self, entity: Entity) -> int:
        """Add one entity to the live set; returns the new epoch."""
        if entity.eid in self._live:
            raise ValueError(f"entity id {entity.eid} is already live")
        level, record = self._describe(entity)
        self._backend().journal_append(b"I" + _DESCRIPTOR.encode(record))
        self._apply_insert(level, record, entity)
        return self.epoch

    def _apply_insert(self, level: int, record: Record, entity: Entity) -> None:
        insort(self._delta.setdefault(level, []), record, key=_sort_key)
        self._delta_keys[entity.eid] = record[HKEY]
        self._directory.widen(level, entity.mbr.width, entity.mbr.height)
        self._pending += 1
        self._live[entity.eid] = (level, entity)
        self.epoch += 1

    def delete(self, eid: int) -> int:
        """Remove one live entity; returns the new epoch.

        An entity still sitting in the delta is removed outright; an
        entity already in a base level file gets a tombstone that the
        merge applies until the next compaction folds it in.
        """
        if eid not in self._live:
            raise KeyError(f"no live entity with id {eid}")
        self._backend().journal_append(b"D" + _EID.pack(eid))
        self._apply_delete(eid)
        return self.epoch

    def _apply_delete(self, eid: int) -> None:
        level, _ = self._live.pop(eid)
        key = self._delta_keys.pop(eid, None)
        if key is None:
            self._tombstones.setdefault(level, set()).add(eid)
        else:
            buffer = self._delta[level]
            del buffer[bisect_left(buffer, (key, eid), key=_sort_key)]
            if not buffer:
                del self._delta[level]
        self._pending += 1
        self.epoch += 1

    # -- compaction ------------------------------------------------------

    def compact(self) -> bool:
        """Fold the delta and tombstones into the base level files.
        Returns whether anything was folded; when it was, the epoch
        advances so cached results keyed on the old epoch can never be
        served against the new file set.  Mutations that cancelled out
        still fold: no level file is written, but the manifest note
        resets the journal they left behind."""
        if not self._pending:
            return False
        self._fold("compaction", self.epoch + 1, self.compactions + 1)
        return True

    def _fold(self, phase: str, epoch: int, compactions: int) -> None:
        """Write every level with pending changes to a *fresh* file, then
        commit with one manifest note — which names the level files of
        the whole index and *resets* the journal, every earlier note
        being folded into those files — and only then drop the files
        replaced.  The note shares the mutations' LSN order, so a reopen
        sees the old manifest plus its notes or the new one, never a
        mixture; a failure before it drops the fresh files and leaves
        the live set, the stored files and the journal as they were.
        """
        affected = set(self._delta) | set(self._tombstones)
        base = {
            level: handle
            for level, handle in self._base.items()
            if level not in affected
        }
        entries = dict.fromkeys(affected)  # level -> its new directory keys
        backend = self._backend()
        written, fsyncs = backend.bytes_written, backend.fsyncs
        fresh: list[PagedFile] = []
        with self.storage.stats.phase(phase):
            self.storage.phase_boundary()
            try:
                for level in sorted(affected):
                    rows = self.level_rows(level)
                    self._directory.grow(level, rows)  # widens only for a bulk load
                    if len(rows):
                        base[level] = handle = self.storage.create_file(
                            f"{self.name}-L{level}-{compactions}"
                        )
                        fresh.append(handle)
                        handle.extend(rows)
                        handle.flush()
                        entries[level] = self._directory.level_keys(level, rows)
                manifest = {
                    "name": self.name,
                    "epoch": epoch,
                    "compactions": compactions,
                    "levels": {level: handle.name for level, handle in base.items()},
                }
                backend.journal_append(
                    b"M" + json.dumps(manifest, sort_keys=True).encode(), reset=True
                )
            except Exception:
                # Discard every fresh frame first: a failed store refuses
                # the deletes (the reopen drops the files as debris), and
                # a dirty frame left behind would fail a later query.
                for handle in fresh:
                    self.storage.pool.drop_file(handle.name)
                for handle in fresh:
                    self.storage.drop_file(handle.name)
                raise
            replaced = [self._base[level] for level in sorted(affected & set(self._base))]
            self._base = base
            self._directory.replace(entries)
            self._delta.clear()
            self._delta_keys.clear()
            self._tombstones.clear()
            self._pending = 0
            self.epoch, self.compactions = epoch, compactions
            for handle in replaced:
                self.storage.drop_file(handle.name)
        self.last_fold = {
            "levels": len(affected),
            "records": sum(handle.num_records for handle in fresh),
            "pages": sum(handle.num_pages for handle in fresh),
            "bytes": backend.bytes_written - written,
            "fsyncs": backend.fsyncs - fsyncs,
        }

    # -- queries ---------------------------------------------------------

    def point_query(self, x: float, y: float) -> tuple[int, ...]:
        """Ids of live entities whose MBR contains the point, sorted."""
        return self.window_query(Rect.point(x, y))

    def window_query(self, window: Rect) -> tuple[int, ...]:
        """Ids of live entities whose MBR intersects the window, sorted
        (closed-interval semantics, same as the sweep): one
        :meth:`~repro.filtertree.ranges.KeyDirectory.probe` of the base
        and the delta.  Base pages are read through the pool, which stays
        warm across queries, so the ledger prices exactly those fetched.
        """
        ledger = self.storage.stats.total
        reads, cached = ledger.page_reads, ledger.buffer_hits
        with self.storage.stats.phase("query"):
            hits, examined = self._directory.probe(
                window, self._base, self.levels(), self._tombstones, self._delta
            )
        read = ledger.page_reads - reads
        self.queries += 1
        self.query_page_fetches += read + ledger.buffer_hits - cached
        self.query_page_reads += read
        self.query_records_examined += examined
        self.query_hits += len(hits)
        metrics = self.obs.active_metrics
        if metrics is not None:
            metrics.count("index.query_pages_read", read)
            metrics.count("index.query_records_examined", examined)
            metrics.count("index.query_hits", len(hits))
        return tuple(sorted(hits))

    def self_join(self) -> frozenset[Pair]:
        """All intersecting live pairs (:func:`live_self_scan` over each
        level's :meth:`level_rows`), canonicalized like a batch self
        join (``(min, max)``, no ``(e, e)``)."""
        with self.storage.stats.phase("query"):
            self.storage.phase_boundary()
            return live_self_scan(
                {level: self.level_rows(level) for level in self.levels()},
                self.curve.order,
                self.assigner.max_level,
                self.storage.stats,
            )

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the storage manager (idempotent)."""
        self.storage.close()

    def __enter__(self) -> PersistentIndex:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
