"""Multi-pass external merge sort over paged files, a page at a time.

Nothing here touches one record at a time through Python: run formation
reads its input page by page and orders a run with one stable
``argsort`` of its key field, and a merge moves from one page boundary
to the next.  A loaded run page is used up when the merge passes its
last key, so each merge step cuts every loaded page at the next such
boundary (one ``searchsorted`` per run), sorts the cut pieces together
(a stable sort of k sorted pieces) and reads the one page that ran dry.
The reads, page writes and buffer-pool events occur in exactly the
order a record-at-a-time heap merge produces them, so the I/O and CPU
ledger is identical to one (DESIGN.md section 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.storage.backend import Page
from repro.storage.costs import sort_comparison_count
from repro.storage.manager import StorageManager
from repro.storage.pagedfile import PagedFile
from repro.storage.records import RecordCodec, concat_pages, take

SortKey = str | tuple[str, ...] | None  # a field, fields left to right, or the whole record


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
    """Sort a paged file by a key (:data:`SortKey`) in ``M`` pages of memory.

    Run formation fills ``memory_pages`` worth of records, sorts them in
    memory, and spills a run; merging proceeds with fan-in
    ``F = max(2, memory_pages // bulk_pages - 1)`` (one buffer is
    reserved for output), the paper's ``F = M / B`` with bulk reads of
    ``B`` pages.  Ties keep their input order.  With ``unique=True``
    adjacent duplicate records are dropped in every pass — duplicate
    elimination "can take place in any phase of the sort" (section
    4.1.2).  Both phases move a page at a time, yet read and write the
    pages a record-at-a-time heap merge does, in the same order (see
    the module docstring).
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
        """Pass 0: read the input a page at a time, spill sorted runs of
        ``memory_pages`` pages each.  A run spills once its last record
        is read, before the next page is."""
        run_names: list[str] = []
        capacity = self.memory_pages * source.records_per_page

        def spill(batch: Page) -> None:
            batch = take(batch, np.argsort(_keys(batch, key), kind="stable"))
            self.storage.stats.charge_cpu(
                "compare", sort_comparison_count(len(batch))
            )
            name = self._new_run_name()
            run = self._create_run(name, codec)
            run.extend(_drop_adjacent_duplicates(batch) if unique else batch)
            self.storage.pool.invalidate(name)  # spill the run to disk
            run_names.append(name)

        held: list[Page] = []  # read, not yet spilled
        for page in source.scan_pages():
            held.append(page)
            while sum(map(len, held)) >= capacity:
                batch = concat_pages(held)
                spill(batch[:capacity])
                held = [batch[capacity:]]
        if sum(map(len, held)):
            spill(concat_pages(held))
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
            self._merge_runs(
                [self.storage.open_file(run) for run in group], out, key, unique
            )
            self.storage.pool.invalidate(name)
            for run in group:
                self._drop_run(run)
            merged_names.append(name)
        return merged_names

    def _merge_runs(
        self, runs: list[PagedFile], out: PagedFile, key: SortKey, unique: bool
    ) -> None:
        """Merge sorted ``runs`` into the empty file ``out``, one run
        page per step.

        Merged order is (key, run index, position): a heap merge that
        breaks key ties by run index.  The loaded page with the least
        (last key, run index) is the next to run dry, so a step merges
        every loaded record up to that bound, and only then reads the
        run's next page — where the heap merge read it, right after
        emitting the page's last record.  Whole output pages are handed
        on before each read, partial ones held back, so the pool sees
        the heap merge's sequence of reads, creates and write-behinds.

        Priced like the heap merge, at ``ceil(log2(k + 1))`` comparisons
        per record merged, charged once in a ``finally`` (a merge a read
        fault abandons pays for what it merged).
        """
        levels = max(1, math.ceil(math.log2(len(runs) + 1)))
        per_page = out.records_per_page
        pages = [run.read_page(0) for run in runs]
        keys = [_keys(page, key) for page in pages]
        lasts = [column[-1].item() for column in keys]  # each loaded page's last key
        cuts = [0] * len(runs)  # first unmerged record of each loaded page
        next_page = [1] * len(runs)
        live = list(range(len(runs)))  # kept in run order: ties go to the lower run
        pending: list[Page] = []  # merged, not yet whole output pages
        held = 0  # records in ``pending``
        previous: Page | None = None  # last record kept, for ``unique``
        merged = 0
        try:
            while live:
                _, dry = min((lasts[i], i) for i in live)
                bound = keys[dry][-1:]
                pieces: list[Page] = []
                for i in live:
                    page, lo = pages[i], cuts[i]
                    if i == dry:
                        hi = len(page)
                    else:  # ties with the bound: lower runs first
                        side = "right" if i < dry else "left"
                        hi = lo + int(keys[i][lo:].searchsorted(bound, side)[0])
                    if hi > lo or i == dry:
                        pieces.append(page[lo:hi])
                        cuts[i] = hi
                step = pieces[0] if len(pieces) == 1 else concat_pages(pieces)
                if len(pieces) > 1:  # stable: run order breaks key ties
                    step = take(step, np.argsort(_keys(step, key), kind="stable"))
                merged += len(step)
                if unique:
                    step = _drop_adjacent_duplicates(step, previous)
                    if len(step):
                        previous = step[-1:]
                pending.append(step)
                held += len(step)
                run = runs[dry]
                if next_page[dry] == run.num_pages:
                    live.remove(dry)
                    continue
                whole = held - held % per_page
                if whole:
                    rest = concat_pages(pending)
                    out.extend(rest[:whole])
                    pending, held = [rest[whole:]], held - whole
                pages[dry] = run.read_page(next_page[dry])
                keys[dry] = _keys(pages[dry], key)
                lasts[dry] = keys[dry][-1].item()
                cuts[dry] = 0
                next_page[dry] += 1
            if held:
                out.extend(concat_pages(pending))
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


def _keys(rows: Page, key: SortKey) -> np.ndarray:
    """What ``rows`` are ordered by: a field, or a structured view of
    the key fields (NumPy compares those field by field)."""
    return rows if key is None else rows[key if isinstance(key, str) else list(key)]


def _drop_adjacent_duplicates(rows: Page, previous: Page | None = None) -> Page:
    """``rows`` without those equal to their predecessor (the one row
    of ``previous`` precedes the first)."""
    if not len(rows):
        return rows
    fresh = np.empty(len(rows), dtype=bool)
    fresh[0] = previous is None or bool(rows[0] != previous[0])
    fresh[1:] = rows[1:] != rows[:-1]
    return take(rows, fresh)
