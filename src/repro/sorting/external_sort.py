"""Multi-pass external merge sort over paged files."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.storage.backend import Record
from repro.storage.costs import sort_comparison_count
from repro.storage.manager import StorageManager
from repro.storage.pagedfile import PagedFile
from repro.storage.records import RecordCodec

SortKey = Callable[[Record], Any]


@dataclass(frozen=True)
class SortResult:
    """What one external sort did."""

    output: PagedFile
    initial_runs: int
    merge_passes: int

    @property
    def total_passes(self) -> int:
        """Run formation plus merge passes (the paper's ``l_i``)."""
        return 1 + self.merge_passes


class ExternalSorter:
    """Sort a paged file by a record key in ``M`` pages of memory.

    Run formation fills ``memory_pages`` worth of records, sorts them in
    memory, and spills a run; merging proceeds with fan-in
    ``F = max(2, memory_pages // bulk_pages - 1)`` (one buffer is
    reserved for output), the paper's ``F = M / B`` with bulk reads of
    ``B`` pages.  With ``unique=True`` adjacent duplicate records are
    dropped in every pass — duplicate elimination "can take place in any
    phase of the sort" (section 4.1.2).
    """

    def __init__(
        self,
        storage: StorageManager,
        memory_pages: int | None = None,
        bulk_pages: int = 1,
    ) -> None:
        if bulk_pages < 1:
            raise ValueError("bulk_pages must be positive")
        self.storage = storage
        self.memory_pages = memory_pages or storage.memory_pages
        if self.memory_pages < 2:
            raise ValueError("external sort needs at least two memory pages")
        self.bulk_pages = bulk_pages
        # Numbered per storage manager (monotonic, never reused — unlike
        # ``id(self)``), so two sorters on one manager cannot collide on
        # run names, and names never depend on process-wide history.
        self._uid = storage.next_sequence("sorter")
        self._seq = 0
        # Temp run files created by the in-flight sort; emptied on
        # success, dropped best-effort if a pass raises mid-sort.
        self._live_runs: set[str] = set()

    @property
    def fan_in(self) -> int:
        """Merge fan-in ``F`` (at least two-way)."""
        return max(2, self.memory_pages // self.bulk_pages - 1)

    def predicted_passes(self, file_pages: int) -> int:
        """The paper's ``l_i = ceil(log_F(S_i / M)) + 1`` pass count
        (1 when the file fits in memory)."""
        if file_pages <= self.memory_pages:
            return 1
        runs = math.ceil(file_pages / self.memory_pages)
        return 1 + math.ceil(math.log(runs, self.fan_in))

    def sort(
        self,
        source: PagedFile,
        output_name: str,
        key: SortKey,
        unique: bool = False,
    ) -> SortResult:
        """Sort ``source`` into a new file named ``output_name``."""
        obs = self.storage.obs
        try:
            with obs.tracer.span(f"sort:{output_name}", kind="sort") as span:
                codec = source.codec
                run_names = self._form_runs(source, key, codec, unique)
                initial_runs = len(run_names)
                merge_passes = 0
                while len(run_names) > 1:
                    run_names = self._merge_pass(run_names, key, codec, unique)
                    merge_passes += 1
                if run_names:
                    final_name = run_names[0]
                else:  # empty input: produce an empty output file
                    final_name = self._new_run_name()
                    self._create_run(final_name, codec)
                output = self._rename(final_name, output_name)
                span.set(
                    input_pages=source.num_pages,
                    initial_runs=initial_runs,
                    merge_passes=merge_passes,
                    fan_in=self.fan_in,
                )
        except BaseException:
            # A pass raised mid-sort (I/O fault, bad key, ...): drop the
            # temp runs so a failed sort does not leak storage files.
            self._discard_live_runs()
            raise
        metrics = obs.active_metrics
        if metrics is not None:
            metrics.count("sort.sorts")
            metrics.gauge("sort.fan_in", self.fan_in)
            metrics.observe("sort.initial_runs", initial_runs)
            metrics.observe("sort.merge_passes", merge_passes)
            metrics.observe("sort.input_pages", source.num_pages)
        return SortResult(output=output, initial_runs=initial_runs, merge_passes=merge_passes)

    # -- internals --------------------------------------------------------

    def _new_run_name(self) -> str:
        self._seq += 1
        return f"__sort-run-{self._uid}-{self._seq}"

    def _create_run(self, name: str, codec: RecordCodec) -> PagedFile:
        handle = self.storage.create_file(name, codec)
        self._live_runs.add(name)
        return handle

    def _drop_run(self, name: str) -> None:
        self.storage.drop_file(name)
        self._live_runs.discard(name)

    def _discard_live_runs(self) -> None:
        """Best-effort drop of every temp run the failed sort left
        behind.  Dropping discards buffered pages without flushing, so
        this issues no page I/O; a backend so broken that even
        ``delete_file`` raises still must not mask the original error."""
        for name in sorted(self._live_runs):
            try:
                self.storage.drop_file(name)
            except Exception:
                pass
        self._live_runs.clear()

    def _form_runs(
        self, source: PagedFile, key: SortKey, codec: RecordCodec, unique: bool
    ) -> list[str]:
        """Pass 0: read the input sequentially, spill sorted runs of
        ``memory_pages`` pages each."""
        run_names: list[str] = []
        capacity = self.memory_pages * source.records_per_page
        batch: list[Record] = []

        def spill() -> None:
            if not batch:
                return
            batch.sort(key=key)
            self.storage.stats.charge_cpu(
                "compare", sort_comparison_count(len(batch))
            )
            name = self._new_run_name()
            run = self._create_run(name, codec)
            run.append_many(_drop_adjacent_duplicates(iter(batch)) if unique else batch)
            self.storage.pool.invalidate(name)  # spill the run to disk
            run_names.append(name)
            batch.clear()

        for record in source.scan():
            batch.append(record)
            if len(batch) >= capacity:
                spill()
        spill()
        return run_names

    def _merge_pass(
        self, run_names: list[str], key: SortKey, codec: RecordCodec, unique: bool
    ) -> list[str]:
        """Merge groups of ``fan_in`` runs into longer runs."""
        fan_in = self.fan_in
        merged_names: list[str] = []
        for start in range(0, len(run_names), fan_in):
            group = run_names[start : start + fan_in]
            if len(group) == 1:
                # A lone leftover run passes through without being copied.
                merged_names.append(group[0])
                continue
            name = self._new_run_name()
            out = self._create_run(name, codec)
            streams = [self.storage.open_file(run).scan() for run in group]
            merged = self._merge_streams(streams, key)
            if unique:
                merged = _drop_adjacent_duplicates(merged)
            out.append_many(merged)
            self.storage.pool.invalidate(name)
            for run in group:
                self._drop_run(run)
            merged_names.append(name)
        return merged_names

    def _merge_streams(
        self, streams: list[Iterator[Record]], key: SortKey
    ) -> Iterator[Record]:
        """Heap-based k-way merge, priced at ``levels`` comparisons per
        record merged — charged once, when the merge ends (or is
        abandoned: an interrupted merge pays for what it consumed)."""
        heap: list[tuple[Any, int, Record]] = []
        for index, stream in enumerate(streams):
            record = next(stream, None)
            if record is not None:
                heap.append((key(record), index, record))
        heapq.heapify(heap)
        levels = max(1, math.ceil(math.log2(len(streams) + 1)))
        merged = 0
        try:
            while heap:
                sort_key, index, record = heapq.heappop(heap)
                merged += 1
                yield record
                nxt = next(streams[index], None)
                if nxt is not None:
                    heapq.heappush(heap, (key(nxt), index, nxt))
        finally:
            self.storage.stats.charge_cpu("compare", merged * levels)

    def _rename(self, current: str, target: str) -> PagedFile:
        """Move the final run under its public name — a true metadata
        rename (:meth:`StorageManager.rename_file`): no page is copied
        and no I/O is charged.  Sorting into an existing output name
        deterministically replaces it, so re-sorting into the same name
        is well-defined (the prior output's handle goes stale)."""
        handle = self.storage.rename_file(current, target, replace=True)
        self._live_runs.discard(current)
        return handle


def _drop_adjacent_duplicates(records: Iterator[Record]) -> Iterator[Record]:
    """Yield records, skipping ones equal to their predecessor."""
    previous: Record | None = None
    for record in records:
        if record != previous:
            yield record
            previous = record
