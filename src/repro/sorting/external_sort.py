"""Multi-pass external merge sort over paged files, a page at a time.

Nothing here touches one record at a time through Python: run formation
orders a run with one stable sort of its key columns, and a merge moves
from one page boundary to the next (:meth:`ExternalSorter._merge_runs`),
yet reads, writes and prices exactly what a record-at-a-time heap merge
does, in the same order (DESIGN.md section 7).
"""

from __future__ import annotations

import heapq
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
    ``F = max(2, memory_pages - 1)`` (one buffer is reserved for
    output), the paper's ``F = M / B`` with ``B = 1``: every run is
    read a page at a time.  Ties keep their input order.  With ``unique=True``
    adjacent duplicate records are dropped in every pass — duplicate
    elimination "can take place in any phase of the sort" (section
    4.1.2).
    """

    def __init__(
        self,
        storage: StorageManager,
        memory_pages: int | None = None,
    ) -> None:
        self.storage = storage
        self.memory_pages = memory_pages or storage.memory_pages
        if self.memory_pages < 2:
            raise ValueError("external sort needs at least two memory pages")
        # Numbered per storage manager (monotonic, never reused — unlike
        # ``id(self)``), so two sorters on one manager cannot collide on
        # run names, and names never depend on process-wide history.
        self._uid = storage.next_sequence("sorter")
        self._seq = 0
        # Files the in-flight sort created, its output included; emptied
        # on success, dropped best-effort if a pass raises mid-sort.
        self._live_runs: set[str] = set()

    @property
    def fan_in(self) -> int:
        """Merge fan-in ``F`` (at least two-way)."""
        return max(2, self.memory_pages - 1)

    def sort(
        self,
        source: PagedFile,
        output_name: str,
        key: SortKey,
        unique: bool = False,
    ) -> SortResult:
        """Sort ``source`` into a new file named ``output_name``, which
        the pass that writes it creates: run formation if the input is
        one run, else the last merge pass.  ``FileExistsError`` if the
        name is taken, before any page is read."""
        if output_name in self.storage.list_files():
            raise FileExistsError(f"storage file {output_name!r} already exists")
        obs = self.storage.obs
        try:
            with obs.tracer.span(f"sort:{output_name}", kind="sort") as span:
                codec = source.codec
                if not source.num_records:  # empty input: an empty output
                    self._create_run(output_name, codec)
                run_names = self._form_runs(source, key, codec, unique, output_name)
                initial_runs = len(run_names)
                merge_passes = 0
                while len(run_names) > 1:
                    run_names = self._merge_pass(run_names, key, codec, unique, output_name)
                    merge_passes += 1
                output = self.storage.open_file(output_name)
                span.set(
                    input_pages=source.num_pages,
                    initial_runs=initial_runs,
                    merge_passes=merge_passes,
                    fan_in=self.fan_in,
                )
        except BaseException:
            # A pass raised mid-sort (I/O fault, bad key, ...): drop the
            # runs and any output so a failed sort leaks no storage file.
            self._discard_live_runs()
            raise
        self._live_runs.clear()
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
        """Best-effort drop of every run (and the output) the failed sort
        left behind.  Dropping discards buffered pages without flushing, so
        this issues no page I/O; a backend so broken that even
        ``delete_file`` raises still must not mask the original error."""
        for name in sorted(self._live_runs):
            try:
                self.storage.drop_file(name)
            except Exception:
                pass
        self._live_runs.clear()

    def _form_runs(
        self, source: PagedFile, key: SortKey, codec: RecordCodec, unique: bool, output_name: str
    ) -> list[str]:
        """Pass 0: read the input a page at a time, spill sorted runs of
        ``memory_pages`` pages each (a lone run is the output).  A run
        spills once its last record is read, before the next page is."""
        run_names: list[str] = []
        capacity = self.memory_pages * source.records_per_page
        only_run = source.num_records <= capacity

        def spill(batch: Page) -> None:
            batch = take(batch, np.lexsort(_key_columns(batch, key)[::-1]))
            self.storage.stats.charge_cpu(
                "compare", sort_comparison_count(len(batch))
            )
            name = output_name if only_run else self._new_run_name()
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
        self, run_names: list[str], key: SortKey, codec: RecordCodec, unique: bool, output_name: str
    ) -> list[str]:
        """Merge groups of ``fan_in`` runs into longer runs (the last
        pass's one group into the output)."""
        fan_in = self.fan_in
        last_pass = len(run_names) <= fan_in
        merged_names: list[str] = []
        for start in range(0, len(run_names), fan_in):
            group = run_names[start : start + fan_in]
            if len(group) == 1:
                # A lone leftover run passes through without being copied.
                merged_names.append(group[0])
                continue
            name = output_name if last_pass else self._new_run_name()
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
        A step touches only the runs it cuts.

        Priced like the heap merge, at ``ceil(log2(k + 1))`` comparisons
        per record merged, charged once in a ``finally`` (a merge a read
        fault abandons pays for what it merged).
        """
        levels = max(1, math.ceil(math.log2(len(runs) + 1)))
        per_page = out.records_per_page
        pages = [run.read_page(0) for run in runs]
        columns = [_key_columns(page, key) for page in pages]
        cuts = [0] * len(runs)  # first unmerged record of each loaded page
        next_page = [1] * len(runs)
        # Heaps (a sorted list is one): pages by (last key, run), runs by (first unmerged key, run).
        lasts = sorted((tuple([c[-1].item() for c in cols]), i) for i, cols in enumerate(columns))
        firsts = sorted((tuple([c[0].item() for c in cols]), i) for i, cols in enumerate(columns))
        pending: list[Page] = []  # merged, not yet whole output pages
        held = 0  # records in ``pending``
        previous: Page | None = None  # last record kept, for ``unique``
        merged = 0
        try:
            while lasts:
                bound, dry = limit = heapq.heappop(lasts)
                cut = []
                while firsts and firsts[0] <= limit:
                    cut.append(heapq.heappop(firsts)[1])
                pieces: list[Page] = []
                for i in sorted(cut):  # ties go to the lower run
                    page, lo = pages[i], cuts[i]
                    if i == dry:
                        hi = len(page)
                    else:  # ties with the bound: lower runs first
                        hi = _search(columns[i], lo, bound, "right" if i < dry else "left")
                        heapq.heappush(firsts, (tuple([c[hi].item() for c in columns[i]]), i))
                    pieces.append(page[lo:hi])
                    cuts[i] = hi
                step = pieces[0] if len(pieces) == 1 else concat_pages(pieces)
                if len(pieces) > 1:  # stable: run order breaks key ties
                    step = take(step, np.lexsort(_key_columns(step, key)[::-1]))
                merged += len(step)
                if unique:
                    step = _drop_adjacent_duplicates(step, previous)
                    if len(step):
                        previous = step[-1:]
                pending.append(step)
                held += len(step)
                if next_page[dry] == runs[dry].num_pages:
                    continue
                whole = held - held % per_page
                if whole:
                    rest = concat_pages(pending)
                    out.extend(rest[:whole])
                    pending, held = [rest[whole:]], held - whole
                pages[dry] = runs[dry].read_page(next_page[dry])
                columns[dry] = _key_columns(pages[dry], key)
                heapq.heappush(lasts, (tuple([c[-1].item() for c in columns[dry]]), dry))
                heapq.heappush(firsts, (tuple([c[0].item() for c in columns[dry]]), dry))
                cuts[dry] = 0
                next_page[dry] += 1
            if held:
                out.extend(concat_pages(pending))
        finally:
            self.storage.stats.charge_cpu("compare", merged * levels)


def _key_columns(rows: Page, key: SortKey) -> tuple[np.ndarray, ...]:
    """What ``rows`` are ordered by as plain columns, most significant first
    (NumPy sorts and searches a structured array several times slower)."""
    names = rows.dtype.names if key is None else (key,) if isinstance(key, str) else key
    return tuple(rows[name] for name in names)


def _search(columns: tuple[np.ndarray, ...], lo: int, bound: tuple, side: str) -> int:
    """``searchsorted(bound, side)`` on the sorted rows from ``lo`` on,
    each column searched within the rows that tie on the ones before."""
    hi = len(columns[0])
    for column, value in zip(columns[:-1], bound):
        segment = column[lo:hi]
        lo, hi = lo + segment.searchsorted(value), lo + segment.searchsorted(value, "right")
    return int(lo + columns[-1][lo:hi].searchsorted(bound[-1], side))


def _drop_adjacent_duplicates(rows: Page, previous: Page | None = None) -> Page:
    """``rows`` without those equal to their predecessor (the one row
    of ``previous`` precedes the first), compared a plain column at a
    time."""
    fresh = np.zeros(len(rows), dtype=bool)
    fresh[:1] = previous is None
    for name in rows.dtype.names:
        column = rows[name]
        fresh[:1] |= previous is not None and column[:1] != previous[name]
        fresh[1:] |= column[1:] != column[:-1]
    return take(rows, fresh)
