"""``PersistentIndex.level_pages`` / ``level_records`` against the merge
they replaced.

The per-record ``heapq.merge`` over a tombstone-filtering generator —
what compaction and the resident self-join ran until the page-at-a-time
merge took over — lives on here as the reference: the same live view
must stream the same records in the same order, and a fold through
either must write level files that are byte-identical, payload for
payload.  (The integration test is ``test_service_statemachine.py``.)
"""

import heapq

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.service.index import PersistentIndex, _sort_key
from repro.storage.manager import StorageConfig
from repro.storage.records import EID, EntityDescriptorCodec

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


def level_pages(index):
    """level -> the encoded payload of every page of its file."""
    return {
        level: [handle.codec.encode_page(page) for page in handle.scan_pages()]
        for level, handle in sorted(index._base.items())
    }


@settings(max_examples=150, deadline=None)
@given(base=st.lists(boxes, max_size=40), script=ops)
@example(base=[], script=[("insert", 0, FIRST_CELL), ("insert", 0, LAST_CELL)])  # empty base
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
def test_level_records_matches_the_heapq_merge(base, script):
    with build(base, script) as index, build(base, script) as twin:
        for level in index.levels():
            assert list(index.level_records(level)) == list(
                reference_level_records(index, level)
            )
        # The same mutation prefix folded under both implementations
        # (a fold takes its records from ``level_pages``).
        twin.level_pages = lambda level: [
            EntityDescriptorCodec().page(list(reference_level_records(twin, level)))
        ]
        assert index.compact() == twin.compact()
        assert level_pages(index) == level_pages(twin)
        assert index.live_entities() == twin.live_entities()
