"""Tests for the external merge sort."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sorting.external_sort import ExternalSorter, SortResult
from repro.storage.manager import StorageConfig, StorageManager
from repro.storage.records import HKEY, CandidatePairCodec


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
        result = sorter.sort(source, "out", key=lambda r: r[HKEY])
        assert [r[HKEY] for r in result.output.scan()] == sorted(keys)

    def test_empty_input(self, storage):
        source = fill_descriptors(storage, "in", [])
        result = ExternalSorter(storage).sort(source, "out", key=lambda r: r[HKEY])
        assert list(result.output.scan()) == []
        assert result.initial_runs == 0

    def test_single_record(self, storage):
        source = fill_descriptors(storage, "in", [42])
        result = ExternalSorter(storage).sort(source, "out", key=lambda r: r[HKEY])
        assert [r[HKEY] for r in result.output.scan()] == [42]

    def test_output_registered_under_name(self, storage):
        source = fill_descriptors(storage, "in", [3, 1, 2])
        ExternalSorter(storage).sort(source, "out", key=lambda r: r[HKEY])
        assert [r[HKEY] for r in storage.open_file("out").scan()] == [1, 2, 3]

    def test_intermediate_runs_cleaned_up(self, storage):
        source = fill_descriptors(storage, "in", list(range(500, 0, -1)))
        sorter = ExternalSorter(storage, memory_pages=2)
        sorter.sort(source, "out", key=lambda r: r[HKEY])
        leftovers = [f for f in storage.list_files() if f.startswith("__sort-run")]
        assert leftovers == []

    def test_invalid_memory(self, storage):
        with pytest.raises(ValueError):
            ExternalSorter(storage, memory_pages=1)
        with pytest.raises(ValueError):
            ExternalSorter(storage, bulk_pages=0)

    def test_sort_twice_into_same_output_name(self, storage):
        """Re-sorting into an existing output name deterministically
        replaces the previous output (regression for the old backend
        copy + ``_tail_count`` poke, which raised FileExistsError after
        doing all the sort work)."""
        first = fill_descriptors(storage, "in1", [5, 3, 9])
        second = fill_descriptors(storage, "in2", [8, 2, 6, 4])
        sorter = ExternalSorter(storage)
        sorter.sort(first, "out", key=lambda r: r[HKEY])
        result = sorter.sort(second, "out", key=lambda r: r[HKEY])
        assert [r[HKEY] for r in result.output.scan()] == [2, 4, 6, 8]
        assert [r[HKEY] for r in storage.open_file("out").scan()] == [2, 4, 6, 8]
        leftovers = [f for f in storage.list_files() if f.startswith("__sort-run")]
        assert leftovers == []

    def test_sort_multipass_twice_into_same_output_name(self):
        """Same regression under multi-pass merging (several runs)."""
        with StorageManager(StorageConfig(buffer_pages=8)) as storage:
            first = fill_descriptors(storage, "in1", list(range(400, 0, -1)))
            second = fill_descriptors(storage, "in2", list(range(0, 900, 2)))
            sorter = ExternalSorter(storage, memory_pages=2)
            sorter.sort(first, "out", key=lambda r: r[HKEY])
            result = sorter.sort(second, "out", key=lambda r: r[HKEY])
            assert [r[HKEY] for r in result.output.scan()] == list(range(0, 900, 2))


class TestMultiPass:
    def test_many_runs_merge_to_one(self):
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            keys = list(range(2000))
            random.Random(5).shuffle(keys)
            source = fill_descriptors(storage, "in", keys)
            sorter = ExternalSorter(storage, memory_pages=2)
            result = sorter.sort(source, "out", key=lambda r: r[HKEY])
            assert result.initial_runs > sorter.fan_in  # forces 2+ merge passes
            assert result.merge_passes >= 2
            assert [r[HKEY] for r in result.output.scan()] == sorted(keys)

    def test_predicted_passes_matches_actual(self):
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            keys = list(range(3000))
            random.Random(6).shuffle(keys)
            source = fill_descriptors(storage, "in", keys)
            sorter = ExternalSorter(storage, memory_pages=3)
            predicted = sorter.predicted_passes(source.num_pages)
            result = sorter.sort(source, "out", key=lambda r: r[HKEY])
            assert result.total_passes == predicted

    def test_fits_in_memory_single_pass(self, storage):
        source = fill_descriptors(storage, "in", [3, 1, 2])
        sorter = ExternalSorter(storage)
        result = sorter.sort(source, "out", key=lambda r: r[HKEY])
        assert result.total_passes == 1
        assert sorter.predicted_passes(source.num_pages) == 1

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
                result = sorter.sort(source, "out", key=lambda r: r[HKEY])
            pages = source.num_pages
            expected = 2 * result.total_passes * pages
            measured = storage.stats.phases["sort"].total_ios
            assert measured == pytest.approx(expected, rel=0.15)


class TestMergePricing:
    """A k-way merge costs ``levels`` comparisons per record it merged,
    charged once per merge rather than once per record."""

    def streams(self):
        return [iter([(k,) for k in range(start, 30, 3)]) for start in range(3)]

    def test_whole_merge(self, storage):
        sorter = ExternalSorter(storage)
        merged = list(sorter._merge_streams(self.streams(), key=lambda r: r[0]))
        assert merged == [(k,) for k in range(30)]
        assert storage.stats.total.cpu_ops == {"compare": 30 * 2}  # ceil(log2(3+1))

    def test_an_abandoned_merge_pays_for_what_it_consumed(self, storage):
        sorter = ExternalSorter(storage)
        merge = sorter._merge_streams(self.streams(), key=lambda r: r[0])
        assert [next(merge) for _ in range(7)] == [(k,) for k in range(7)]
        assert storage.stats.total.cpu_ops == {}
        merge.close()
        assert storage.stats.total.cpu_ops == {"compare": 7 * 2}


class TestDuplicateElimination:
    def test_unique_drops_duplicates(self, storage):
        pairs = [(1, 2), (3, 4), (1, 2), (5, 6), (3, 4), (1, 2)]
        handle = storage.create_file("pairs", CandidatePairCodec())
        handle.append_many(pairs)
        sorter = ExternalSorter(storage)
        result = sorter.sort(handle, "out", key=lambda r: r, unique=True)
        assert list(result.output.scan()) == [(1, 2), (3, 4), (5, 6)]

    def test_unique_across_runs(self):
        with StorageManager(StorageConfig(buffer_pages=64)) as storage:
            handle = storage.create_file("pairs", CandidatePairCodec())
            # Duplicates scattered so they land in different runs.
            for i in range(1000):
                handle.append((i % 97, (i * 31) % 97))
            sorter = ExternalSorter(storage, memory_pages=2)
            result = sorter.sort(handle, "out", key=lambda r: r, unique=True)
            records = list(result.output.scan())
            assert records == sorted(set(records))

    def test_non_unique_keeps_duplicates(self, storage):
        handle = storage.create_file("pairs", CandidatePairCodec())
        handle.append_many([(1, 2), (1, 2)])
        result = ExternalSorter(storage).sort(handle, "out", key=lambda r: r)
        assert list(result.output.scan()) == [(1, 2), (1, 2)]


class TestProperties:
    @given(st.lists(st.integers(0, 10**9), max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_output_is_sorted_permutation(self, keys):
        with StorageManager(StorageConfig(buffer_pages=16)) as storage:
            source = fill_descriptors(storage, "in", keys)
            sorter = ExternalSorter(storage, memory_pages=2)
            result = sorter.sort(source, "out", key=lambda r: r[HKEY])
            assert [r[HKEY] for r in result.output.scan()] == sorted(keys)

    @given(st.lists(st.integers(0, 50), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_unique_output_is_sorted_set(self, keys):
        with StorageManager(StorageConfig(buffer_pages=16)) as storage:
            handle = storage.create_file("pairs", CandidatePairCodec())
            handle.append_many((k, k) for k in keys)
            sorter = ExternalSorter(storage, memory_pages=2)
            result = sorter.sort(handle, "out", key=lambda r: r, unique=True)
            assert list(result.output.scan()) == sorted({(k, k) for k in keys})


class TestSortResult:
    def test_total_passes(self):
        result = SortResult(output=None, initial_runs=5, merge_passes=2)
        assert result.total_passes == 3
