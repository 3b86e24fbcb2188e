"""End-to-end runs through real files on disk.

The memory backend counts I/O without performing it; these tests push
the full stack — descriptor serialization, page slots, buffer pool
write-back, external sort, all three joins — through the durable
store's files and verify identical results.  That memory and durable
runs price a join identically is ``test_durable.py``'s
``TestLedgerParity``.
"""

import pytest

from repro.baselines.pbsm import PartitionBasedSpatialMergeJoin
from repro.baselines.shj import SpatialHashJoin
from repro.core.s3j import SizeSeparationSpatialJoin
from repro.sorting.external_sort import ExternalSorter
from repro.storage.manager import StorageConfig, StorageManager
from repro.storage.records import HKEY

from tests.conftest import brute_force_pairs, make_squares


@pytest.fixture
def durable_storage(tmp_path):
    config = StorageConfig(buffer_pages=16, backend="durable", directory=str(tmp_path))
    with StorageManager(config) as manager:
        yield manager


ALGORITHMS = [
    SizeSeparationSpatialJoin,
    PartitionBasedSpatialMergeJoin,
    SpatialHashJoin,
]


@pytest.mark.parametrize("algorithm_cls", ALGORITHMS, ids=lambda c: c.name)
def test_join_on_real_files(durable_storage, algorithm_cls):
    a = make_squares(250, 0.04, seed=1, name="A")
    b = make_squares(250, 0.04, seed=2, name="B")
    file_a = a.write_descriptors(durable_storage, "in-a")
    file_b = b.write_descriptors(durable_storage, "in-b")
    durable_storage.phase_boundary()
    durable_storage.stats.reset()
    algo = algorithm_cls(durable_storage)
    result = algo.join(file_a, file_b)
    assert result.pairs == brute_force_pairs(a, b)


def test_external_sort_on_real_files(durable_storage):
    handle = durable_storage.create_file("data")
    keys = [((i * 2654435761) % 4096) for i in range(2000)]
    for i, key in enumerate(keys):
        handle.append((i, 0.0, 0.0, 0.0, 0.0, key))
    sorter = ExternalSorter(durable_storage, memory_pages=2)
    result = sorter.sort(handle, "sorted", key="hkey")
    assert [r[HKEY] for r in result.output.scan()] == sorted(keys)


def test_data_survives_pool_invalidation(durable_storage):
    handle = durable_storage.create_file("persist")
    records = [(i, i / 100, 0.0, i / 100, 0.0, i * 3) for i in range(500)]
    handle.extend(records)
    durable_storage.pool.invalidate()
    assert list(handle.scan()) == records
