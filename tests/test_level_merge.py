"""``PersistentIndex.level_rows`` / ``level_records`` against the merge
they replaced.

The per-record ``heapq.merge`` over a tombstone-filtering generator —
what compaction and the resident self-join ran until the array merges
took over (a base page at a time, then a level at a time) — lives on
here as the reference: a level's live rows must be one read-only
``DESCRIPTOR`` array holding the same records in the same order, and a
fold through either must write level files that are byte-identical,
payload for payload.  The fold's cost and its pool ledger are pinned
on a fixed stream.  (The integration test is
``test_service_statemachine.py``.)
"""

import heapq
import random
from hashlib import sha1

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.service.index import PersistentIndex, _sort_key
from repro.storage.manager import StorageConfig
from repro.storage.records import DESCRIPTOR, EID, EntityDescriptorCodec

CONFIG = StorageConfig(page_size=256)  # 5 descriptors per page


def reference_level_records(index, level):
    handle = index._base.get(level)
    base = handle.scan() if handle is not None else ()
    delta = index._delta.get(level, ())
    dead = index._tombstones.get(level)
    if dead:
        # Tombstones name *base* records only — a delta record with
        # the same eid (a re-insert after deleting a base entity)
        # is live and must pass through.
        base = (record for record in base if record[EID] not in dead)
    return heapq.merge(base, delta, key=_sort_key)


def box(cx, cy, size):
    """A square anchored on an 8 x 8 grid: few distinct Hilbert keys and
    three levels, so equal keys (broken by eid) are the common case."""
    return Rect(cx / 8, cy / 8, cx / 8 + size, cy / 8 + size)


cells = st.integers(0, 7)
boxes = st.builds(box, cells, cells, st.sampled_from([1 / 64, 1 / 16, 1 / 8]))
ops = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "reinsert"]), st.integers(0, 10**6), boxes),
    max_size=40,
)

ONE_CELL = [box(3, 3, 1 / 64)] * 12  # one level, one key: file order is eid order
FIRST_CELL, LAST_CELL = box(0, 0, 1 / 64), box(7, 0, 1 / 64)  # the curve's two ends


def build(base, script):
    """An index bulk-loaded with ``base`` and mutated by ``script``
    (indices pick among the live / the deleted, modulo their number),
    nothing folded since the load."""
    index = PersistentIndex(
        [Entity(eid, rect) for eid, rect in enumerate(base)],
        storage=CONFIG,
        compaction_threshold=10**9,
    )
    deleted = {}
    next_eid = len(base)
    for op, pick, rect in script:
        live = sorted(e.eid for e in index.live_entities())
        if op == "insert":
            index.insert(Entity(next_eid, rect))
            next_eid += 1
        elif op == "delete" and live:
            eid = live[pick % len(live)]
            deleted[eid] = index._live[eid][1]
            index.delete(eid)
        elif op == "reinsert" and deleted:
            eid = sorted(deleted)[pick % len(deleted)]
            was = deleted.pop(eid)
            # Even picks come back where they were, odd ones move.
            index.insert(was if pick % 2 == 0 else Entity(eid, rect))
    return index


def file_payloads(index):
    """level -> the encoded payload of every page of its file."""
    return {
        level: [handle.codec.encode_page(page) for page in handle.scan_pages()]
        for level, handle in sorted(index._base.items())
    }


@settings(max_examples=150, deadline=None)
@given(base=st.lists(boxes, max_size=40), script=ops)
@example(base=[], script=[("insert", 0, FIRST_CELL), ("insert", 0, LAST_CELL)])  # no base file
@example(  # delta records before the first base page and after the last
    base=[box(3, 3, 1 / 64)] * 7,
    script=[("insert", 0, FIRST_CELL), ("insert", 0, LAST_CELL), ("insert", 0, FIRST_CELL)],
)
@example(  # equal Hilbert keys broken by eid, across base and delta
    base=ONE_CELL, script=[("insert", 0, ONE_CELL[0])] * 3 + [("delete", 4, ONE_CELL[0])]
)
@example(  # page 0 (eids 0-4) all tombstoned, then eid 2 re-inserted in place
    base=ONE_CELL, script=[("delete", 0, ONE_CELL[0])] * 5 + [("reinsert", 2, ONE_CELL[0])]
)
@example(  # every base record tombstoned: the level file goes away
    base=ONE_CELL[:5], script=[("delete", 0, ONE_CELL[0])] * 5
)
@example(  # every base record tombstoned, fresh inserts on the same level
    base=ONE_CELL[:5], script=[("delete", 0, ONE_CELL[0])] * 5 + [("insert", 0, ONE_CELL[0])] * 2
)
def test_level_records_matches_the_heapq_merge(base, script):
    with build(base, script) as index, build(base, script) as twin:
        for level in index.levels():
            rows = index.level_rows(level)
            assert rows.dtype == DESCRIPTOR and not rows.flags.writeable
            keys = list(zip(rows["hkey"].tolist(), rows["eid"].tolist()))
            assert keys == sorted(keys)
            assert rows.tolist() == list(reference_level_records(index, level))
            assert list(index.level_records(level)) == rows.tolist()
        # The same mutation prefix folded under both implementations
        # (a fold takes its records from ``level_rows``).
        twin.level_rows = lambda level: EntityDescriptorCodec().page(
            list(reference_level_records(twin, level))
        )
        assert index.compact() == twin.compact()
        assert file_payloads(index) == file_payloads(twin)
        assert index.live_entities() == twin.live_entities()


def mutation_stream():
    """1,500 boxes of three sizes, then 400 mutations: every third a
    delete of a base id (dead ones skipped), the rest fresh inserts."""
    rng = random.Random(39)

    def rect():
        x, y = rng.random() * 0.95, rng.random() * 0.95
        return Rect(x, y, x + rng.choice([0.002, 0.01, 0.04]), y + rng.choice([0.002, 0.01, 0.04]))

    base = [Entity(eid, rect()) for eid in range(1500)]
    ops = [rng.randrange(1500) if n % 3 == 0 else Entity(1500 + n, rect()) for n in range(400)]
    return base, ops


def ledger_of(index, call):
    """``call()``'s result and the pool's page reads and hits during it."""
    total = index.storage.stats.total
    reads, hits = total.page_reads, total.buffer_hits
    result = call()
    return result, total.page_reads - reads, total.buffer_hits - hits


LOAD_FOLD = {"levels": 9, "records": 1500, "pages": 154}
COMPACT_FOLD = {"levels": 9, "records": 1638, "pages": 169}
PHYSICAL = {  # backend -> (bytes, fsyncs) of the load, then of the compaction
    "memory": ((0, 0), (0, 0)),
    "durable": ((86523, 11), (95126, 20)),
}


@pytest.mark.parametrize("backend", sorted(PHYSICAL))
def test_fold_cost_and_ledger_are_pinned(backend, tmp_path):
    """A fixed stream's folds keep the cost recorded before the level
    merge became one array: the same ``last_fold``, the same pool reads
    and hits in ``compact()`` and ``self_join()``, the same level file
    bytes and the same pairs."""
    base, ops = mutation_stream()
    index = PersistentIndex(
        base,
        storage=StorageConfig(page_size=512, buffer_pages=16),
        compaction_threshold=10**9,
        data_dir=str(tmp_path) if backend == "durable" else None,
    )
    with index:
        load, compaction = PHYSICAL[backend]
        assert index.last_fold == {**LOAD_FOLD, "bytes": load[0], "fsyncs": load[1]}
        for op in ops:
            if isinstance(op, Entity):
                index.insert(op)
            elif op in index:
                index.delete(op)
        before, reads, hits = ledger_of(index, index.self_join)
        assert (len(before), reads, hits) == (1696, 154, 0)
        assert ledger_of(index, index.compact)[1:] == (154, 1469)
        assert index.last_fold == {**COMPACT_FOLD, "bytes": compaction[0], "fsyncs": compaction[1]}
        after, reads, hits = ledger_of(index, index.self_join)
        assert (after, reads, hits) == (before, 169, 0)
        assert sha1(repr(sorted(after)).encode()).hexdigest() == (
            "328f073430ba8063206eadf836b8f33e950e6075"
        )
        files = b"".join(b"".join(pages) for pages in file_payloads(index).values())
        assert sha1(files).hexdigest() == "9534b9a29bfdffcd2c6bf6f83e3a2aa9b2f2960f"
