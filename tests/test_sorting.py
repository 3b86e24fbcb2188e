"""Tests for the external merge sort."""

import heapq
import math
import random
from itertools import islice
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.costmodel import sort_passes
from repro.obs import fileio
from repro.sorting.external_sort import ExternalSorter, SortResult
from repro.storage.costs import sort_comparison_count
from repro.storage.durable import DATA_FILE
from repro.storage.manager import StorageConfig, StorageManager
from repro.storage.records import HKEY, CandidatePairCodec, EntityDescriptorCodec
from repro.verify.recorder import Fault, FaultyDisk


def faulty_storage(fault, **config):
    """A durable storage manager on a disk whose ``fault`` is armed."""
    with fileio.using(FaultyDisk(fault=fault)) as disk:
        storage = StorageManager(StorageConfig(backend="durable", directory="/store", **config))
    return storage, disk


def fill_descriptors(storage, name, keys):
    handle = storage.create_file(name)
    for i, key in enumerate(keys):
        handle.append((i, 0.0, 0.0, 0.0, 0.0, key))
    return handle


class TestBasics:
    def test_sorts_by_key(self, storage):
        keys = [5, 3, 9, 1, 7, 7, 0]
        source = fill_descriptors(storage, "in", keys)
        sorter = ExternalSorter(storage)
        result = sorter.sort(source, "out", key="hkey")
        assert [r[HKEY] for r in result.output.scan()] == sorted(keys)

    def test_empty_input(self, storage):
        source = fill_descriptors(storage, "in", [])
        result = ExternalSorter(storage).sort(source, "out", key="hkey")
        assert list(result.output.scan()) == []
        assert result.initial_runs == 0

    def test_single_record(self, storage):
        source = fill_descriptors(storage, "in", [42])
        result = ExternalSorter(storage).sort(source, "out", key="hkey")
        assert [r[HKEY] for r in result.output.scan()] == [42]

    def test_output_registered_under_name(self, storage):
        source = fill_descriptors(storage, "in", [3, 1, 2])
        ExternalSorter(storage).sort(source, "out", key="hkey")
        assert [r[HKEY] for r in storage.open_file("out").scan()] == [1, 2, 3]

    def test_intermediate_runs_cleaned_up(self, storage):
        source = fill_descriptors(storage, "in", list(range(500, 0, -1)))
        sorter = ExternalSorter(storage, memory_pages=2)
        sorter.sort(source, "out", key="hkey")
        leftovers = [f for f in storage.list_files() if f.startswith("__sort-run")]
        assert leftovers == []

    def test_invalid_memory(self, storage):
        with pytest.raises(ValueError):
            ExternalSorter(storage, memory_pages=1)
        with pytest.raises(ValueError):
            ExternalSorter(storage, bulk_pages=0)

    @pytest.mark.parametrize("keys", [[8, 2, 6, 4], list(range(400, 0, -1))])
    def test_sort_into_existing_name_is_refused(self, keys):
        """The output is written under its own name, never renamed over
        an old file: a taken name fails before any page is read, and the
        old file, the store and the ledger stay as they were."""
        with StorageManager(StorageConfig(buffer_pages=8)) as storage:
            first = fill_descriptors(storage, "in1", [5, 3, 9])
            second = fill_descriptors(storage, "in2", keys)
            sorter = ExternalSorter(storage, memory_pages=2)
            sorter.sort(first, "out", key="hkey")
            files, ledger = storage.list_files(), storage.stats.snapshot()
            with pytest.raises(FileExistsError, match="'out' already exists"):
                sorter.sort(second, "out", key="hkey")
            assert storage.list_files() == files
            assert storage.stats.snapshot() == ledger
            assert [r[HKEY] for r in storage.open_file("out").scan()] == [3, 5, 9]


class TestMultiPass:
    def test_many_runs_merge_to_one(self):
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            keys = list(range(2000))
            random.Random(5).shuffle(keys)
            source = fill_descriptors(storage, "in", keys)
            sorter = ExternalSorter(storage, memory_pages=2)
            result = sorter.sort(source, "out", key="hkey")
            assert result.initial_runs > sorter.fan_in  # forces 2+ merge passes
            assert result.merge_passes >= 2
            assert [r[HKEY] for r in result.output.scan()] == sorted(keys)

    def test_predicted_passes_matches_actual(self):
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            keys = list(range(3000))
            random.Random(6).shuffle(keys)
            source = fill_descriptors(storage, "in", keys)
            sorter = ExternalSorter(storage, memory_pages=3)
            predicted = sort_passes(source.num_pages, sorter.memory_pages, sorter.fan_in)
            result = sorter.sort(source, "out", key="hkey")
            assert result.total_passes == predicted

    def test_fits_in_memory_single_pass(self, storage):
        source = fill_descriptors(storage, "in", [3, 1, 2])
        sorter = ExternalSorter(storage)
        result = sorter.sort(source, "out", key="hkey")
        assert result.total_passes == 1
        assert sort_passes(source.num_pages, sorter.memory_pages, sorter.fan_in) == 1

    def test_sort_io_matches_equation3(self):
        """Sort page I/O = 2 * passes * S (equation 3)."""
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            keys = list(range(1700))  # 20 pages
            random.Random(7).shuffle(keys)
            source = fill_descriptors(storage, "in", keys)
            storage.phase_boundary()
            storage.stats.reset()
            sorter = ExternalSorter(storage, memory_pages=4)
            with storage.stats.phase("sort"):
                result = sorter.sort(source, "out", key="hkey")
            pages = source.num_pages
            expected = 2 * result.total_passes * pages
            measured = storage.stats.phases["sort"].total_ios
            assert measured == pytest.approx(expected, rel=0.15)


def interleaved_runs(storage, length):
    """Three spilled runs of descriptors keyed 0, 3, 6, ... / 1, 4, ...
    / 2, 5, ...: merged, they count up from 0."""
    runs = []
    for start in range(3):
        run = fill_descriptors(storage, f"run{start}", range(start, 3 * length, 3))
        storage.pool.invalidate(run.name)
        runs.append(run)
    return runs


class TestMergePricing:
    """A k-way merge costs ``levels`` comparisons per record it merged,
    charged once per merge rather than once per record."""

    def test_whole_merge(self, storage):
        runs = interleaved_runs(storage, 10)
        out = storage.create_file("out")
        ExternalSorter(storage)._merge_runs(runs, out, "hkey", unique=False)
        assert [r[HKEY] for r in out.scan()] == list(range(30))
        assert storage.stats.total.cpu_ops == {"compare": 30 * 2}  # ceil(log2(3+1))

    def test_an_abandoned_merge_pays_for_what_it_consumed(self):
        # Two 85-record pages per run.  Reads 1-3 load each run's first
        # page; run 0's (last key 252) runs dry first, so read 4 — its
        # second page — comes after merging keys 0..252, and fails.
        storage, disk = faulty_storage(Fault("read", DATA_FILE, nth=4))
        with storage:
            runs = interleaved_runs(storage, 170)
            out = storage.create_file("out")
            with pytest.raises(OSError, match="Input/output error"):
                ExternalSorter(storage)._merge_runs(
                    runs, out, "hkey", unique=False
                )
            assert disk.fired == 1
            assert storage.stats.total.cpu_ops["compare"] == 253 * 2
            assert out.num_records == 170  # the whole pages of the 253


class TestSorterCleanup:
    def fill(self, manager, records=600):
        handle = manager.create_file("input")
        for i in range(records):
            handle.append((i, 0.1, 0.1, 0.2, 0.2, 0))
        return handle

    def run_names(self, manager):
        return [
            name
            for name in manager.list_files()
            if name.startswith("__sort-run")
        ]

    def test_failed_sort_drops_temp_runs(self):
        # Filling 600 records write-behinds pages 0..6 (7 writes; the
        # partial tail stays buffered).  Sorting with 2 memory pages
        # reads those 7 back to spill five runs; read 8 is the first
        # merge's, where the fault sits, so the sort dies with five runs
        # on the store.  A failed read leaves the store writable, so the
        # closing flush and the second sort take the healthy path.
        storage, disk = faulty_storage(Fault("read", DATA_FILE, nth=8), buffer_pages=16)
        with storage as manager:
            handle = self.fill(manager)
            assert disk.calls["write", DATA_FILE] == 7  # pin the layout
            sorter = ExternalSorter(manager, memory_pages=2)
            with pytest.raises(OSError, match="Input/output error"):
                sorter.sort(handle, "sorted", key="eid")
            assert disk.fired == 1
            assert self.run_names(manager) == []
            assert "input" in manager.list_files()
            # The storage is still usable: the same input sorts fine now.
            result = sorter.sort(handle, "sorted", key="eid")
            assert list(result.output.scan()) == sorted(handle.scan())
            assert self.run_names(manager) == []

    def test_failed_final_pass_drops_the_output(self):
        class FailingFinalPass(ExternalSorter):
            def _merge_runs(self, runs, out, key, unique):
                if out.name == "sorted":
                    raise OSError("the final pass failed")
                super()._merge_runs(runs, out, key, unique)

        with StorageManager(StorageConfig(buffer_pages=16)) as manager:
            handle = self.fill(manager)
            with pytest.raises(OSError, match="final pass"):
                FailingFinalPass(manager, memory_pages=2).sort(handle, "sorted", key="eid")
            assert manager.list_files() == ["input"]
            result = ExternalSorter(manager, memory_pages=2).sort(handle, "sorted", key="eid")
            assert list(result.output.scan()) == sorted(handle.scan())

    def test_successful_sort_leaves_no_runs(self):
        with StorageManager(StorageConfig(buffer_pages=16)) as manager:
            handle = self.fill(manager, records=400)
            sorter = ExternalSorter(manager, memory_pages=2)
            sorter.sort(handle, "sorted", key="eid")
            assert self.run_names(manager) == []
            assert "sorted" in manager.list_files()


class HeapMergeSorter(ExternalSorter):
    """The record-at-a-time sort the page-at-a-time one replaced: pass 0
    spills the moment its record count fills memory, and a merge pops
    one record at a time off a heap of run heads.  Kept as the reference
    whose ledger the real sorter must equal."""

    def _form_runs(self, source, key, codec, unique, output_name):
        key = record_key(codec, key)
        run_names, batch = [], []
        capacity = self.memory_pages * source.records_per_page

        def spill():
            batch.sort(key=key)
            self.storage.stats.charge_cpu("compare", sort_comparison_count(len(batch)))
            only_run = source.num_records <= capacity
            run_names.append(output_name if only_run else self._new_run_name())
            run = self._create_run(run_names[-1], codec)
            run.extend(drop_duplicates(iter(batch)) if unique else batch)
            self.storage.pool.invalidate(run.name)
            batch.clear()

        for record in source.scan():
            batch.append(record)
            if len(batch) >= capacity:
                spill()
        if batch:
            spill()
        return run_names

    def _merge_runs(self, runs, out, key, unique):
        key = record_key(out.codec, key)
        streams = [run.scan() for run in runs]
        merged = 0

        def merge():
            nonlocal merged
            heap = [(key(r), i, r) for i, s in enumerate(streams) for r in [next(s)]]
            heapq.heapify(heap)
            while heap:
                _, index, record = heapq.heappop(heap)
                merged += 1
                yield record
                record = next(streams[index], None)
                if record is not None:
                    heapq.heappush(heap, (key(record), index, record))

        try:
            # Handed on a page's worth at a time, as ``extend`` used to
            # consume a lazy iterable.
            stream = drop_duplicates(merge()) if unique else merge()
            per_page = out.records_per_page
            while chunk := list(islice(stream, per_page - out.num_records % per_page)):
                out.extend(chunk)
        finally:
            levels = max(1, math.ceil(math.log2(len(runs) + 1)))
            self.storage.stats.charge_cpu("compare", merged * levels)


def record_key(codec, key):
    """What a field key (or ``None``, the whole record) orders record
    tuples by."""
    if key is None:
        return lambda record: record
    fields = (key,) if isinstance(key, str) else key
    return itemgetter(*(codec.dtype.names.index(field) for field in fields))


def drop_duplicates(records):
    previous = None
    for record in records:
        if record != previous:
            yield record
            previous = record


def traced_sort(sorter_class, records, codec, page_size, pool, memory, key, unique):
    """Sort ``records`` and return every physical transfer in order, the
    whole ledger and the output."""
    config = StorageConfig(page_size=page_size, buffer_pages=pool)
    with StorageManager(config) as storage:
        source = storage.create_file("in", codec)
        source.extend(records)
        storage.phase_boundary()
        storage.stats.reset()
        transfers = []
        backend = storage.pool.backend
        read, write = backend.read_page, backend.write_page

        def traced_read(name, page_no):
            transfers.append(("read", name, page_no))
            return read(name, page_no)

        def traced_write(name, page_no, page):
            transfers.append(("write", name, page_no))
            write(name, page_no, page)

        backend.read_page, backend.write_page = traced_read, traced_write
        result = sorter_class(storage, memory_pages=memory).sort(
            source, "out", key=key, unique=unique
        )
        storage.phase_boundary()
        output = list(result.output.scan())
        return transfers, storage.stats.total.to_dict(), output, result.merge_passes


class TestHeapMergeParity:
    """The page-at-a-time sort reads and writes the same pages in the
    same order as the record-at-a-time heap merge, under pools small
    enough that a merge's output tail is evicted between its touches,
    with heavy key ties and duplicate elimination."""

    @given(
        keys=st.lists(st.integers(0, 30), max_size=400),
        page_records=st.integers(1, 6),
        pool=st.integers(2, 7),
        memory=st.integers(2, 5),
        unique=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_transfers_ledger_and_output(self, keys, page_records, pool, memory, unique):
        codec = CandidatePairCodec()
        records = [(k, i % 3) for i, k in enumerate(keys)]
        args = (records, codec, page_records * codec.record_size, pool, memory,
                "a", unique)
        expected = traced_sort(HeapMergeSorter, *args)
        assert traced_sort(ExternalSorter, *args) == expected

    @pytest.mark.parametrize(
        "records, unique, merge_passes",
        [
            ([], False, 0),  # the output is created empty
            ([(k % 7, k % 3) for k in range(12)], False, 0),  # exactly M * E records: one run
            ([(k % 7, k % 3) for k in range(25)], False, 2),  # F + 1 runs: a lone leftover
            ([(k % 5, k % 2) for k in range(25)], True, 2),  # PBSM's unique whole-record sort
        ],
    )
    def test_output_named_by_the_pass_that_writes_it(self, records, unique, merge_passes):
        """With ``M = 3`` pages of ``E = 4`` records (``F = 2``), the
        output's writes all come after every run's, under its own name."""
        codec = CandidatePairCodec()
        args = (records, codec, 4 * codec.record_size, 4, 3, None, unique)
        expected = traced_sort(HeapMergeSorter, *args)
        assert expected[3] == merge_passes
        assert traced_sort(ExternalSorter, *args) == expected
        written = [name for op, name, _ in expected[0] if op == "write"]
        first = written.index("out") if records else len(written)
        assert written[first:] == ["out"] * (len(written) - first)

    def test_descriptors_through_several_merge_passes(self):
        keys = [random.Random(3).randrange(500) for _ in range(3000)]
        records = [(i, 0.0, 0.0, 0.0, 0.0, k) for i, k in enumerate(keys)]
        args = (records, EntityDescriptorCodec(), 4096, 4, 3, "hkey", False)
        expected = traced_sort(HeapMergeSorter, *args)
        assert expected[3] >= 2
        assert traced_sort(ExternalSorter, *args) == expected


class TestDuplicateElimination:
    def test_unique_drops_duplicates(self, storage):
        pairs = [(1, 2), (3, 4), (1, 2), (5, 6), (3, 4), (1, 2)]
        handle = storage.create_file("pairs", CandidatePairCodec())
        handle.extend(pairs)
        sorter = ExternalSorter(storage)
        result = sorter.sort(handle, "out", key=None, unique=True)
        assert list(result.output.scan()) == [(1, 2), (3, 4), (5, 6)]

    def test_unique_across_runs(self):
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            handle = storage.create_file("pairs", CandidatePairCodec())
            # Duplicates scattered so they land in different runs.
            for i in range(1000):
                handle.append((i % 97, (i * 31) % 97))
            sorter = ExternalSorter(storage, memory_pages=2)
            result = sorter.sort(handle, "out", key=None, unique=True)
            records = list(result.output.scan())
            assert records == sorted(set(records))

    def test_non_unique_keeps_duplicates(self, storage):
        handle = storage.create_file("pairs", CandidatePairCodec())
        handle.extend([(1, 2), (1, 2)])
        result = ExternalSorter(storage).sort(handle, "out", key=None)
        assert list(result.output.scan()) == [(1, 2), (1, 2)]


class TestProperties:
    @given(st.lists(st.integers(0, 10**9), max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_output_is_sorted_permutation(self, keys):
        with StorageManager(StorageConfig(buffer_pages=16)) as storage:
            source = fill_descriptors(storage, "in", keys)
            sorter = ExternalSorter(storage, memory_pages=2)
            result = sorter.sort(source, "out", key="hkey")
            assert [r[HKEY] for r in result.output.scan()] == sorted(keys)

    @given(st.lists(st.integers(0, 50), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_unique_output_is_sorted_set(self, keys):
        with StorageManager(StorageConfig(buffer_pages=16)) as storage:
            handle = storage.create_file("pairs", CandidatePairCodec())
            handle.extend((k, k) for k in keys)
            sorter = ExternalSorter(storage, memory_pages=2)
            result = sorter.sort(handle, "out", key=None, unique=True)
            assert list(result.output.scan()) == sorted({(k, k) for k in keys})


class TestSortResult:
    def test_total_passes(self):
        result = SortResult(output=None, initial_runs=5, merge_passes=2)
        assert result.total_passes == 3
