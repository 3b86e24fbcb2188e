"""State-machine test of the resident index against the verify model.

Hypothesis picks the interleaving — insert, delete, re-insert of a
deleted id (same box or a new one), a fresh insert deleted again
(churn), compact, point / window / join
queries, and, for the durable variant, close-and-reopen and
crash-at-a-sampled-point-and-reopen — and after every step the index
must equal the model: the same
:class:`~repro.verify.scenario.LiveModel` and
:func:`~repro.verify.scenario.check_index` the ``repro verify`` gates
use, driven here by shrinking search instead of a seeded generator.
Coordinates are dyadic, so boxes land on the grid lines where
closed-interval and level-assignment bugs live.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.service.index import PersistentIndex
from repro.storage.durable import CRASH_POINTS, CrashPoint, SimulatedCrash
from repro.verify.scenario import LiveModel, apply_op, check_index

dyadic = st.integers(0, 64).map(lambda k: k / 64)
rects = st.tuples(dyadic, dyadic, dyadic, dyadic).map(
    lambda c: Rect(min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3]))
)


class IndexMachine(RuleBasedStateMachine):
    durable = False

    def __init__(self):
        super().__init__()
        self.data_dir = tempfile.mkdtemp(prefix="repro-sm-") if self.durable else None
        self.index = self.open()
        self.model = LiveModel()
        self.deleted = {}
        self.next_eid = 1

    def open(self):
        return PersistentIndex(compaction_threshold=6, data_dir=self.data_dir)

    def teardown(self):
        self.index.close()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)

    def mutate(self, op, payload):
        apply_op(self.index, op, payload)
        self.model.apply(op, payload)

    def ask(self, op, payload):
        assert apply_op(self.index, op, payload) == self.model.expected(op, payload)

    @rule(box=rects)
    def insert(self, box):
        self.mutate("insert", Entity(self.next_eid, box))
        self.next_eid += 1

    @precondition(lambda self: self.model.live)
    @rule(data=st.data())
    def delete(self, data):
        eid = data.draw(st.sampled_from(sorted(self.model.live)))
        self.deleted[eid] = self.model.live[eid]
        self.mutate("delete", eid)

    @precondition(lambda self: self.deleted)
    @rule(data=st.data(), moved_to=st.none() | rects)
    def reinsert(self, data, moved_to):
        eid = data.draw(st.sampled_from(sorted(self.deleted)))
        entity = self.deleted.pop(eid)
        self.mutate("insert", entity if moved_to is None else Entity(eid, moved_to))

    @rule(box=rects)
    def churn(self, box):
        """A fresh entity inserted and deleted again: the delta ends as
        it began, and the journal two notes longer."""
        self.insert(box)
        self.mutate("delete", self.next_eid - 1)

    @rule()
    def compact(self):
        self.mutate("compact", None)

    @rule(x=dyadic, y=dyadic)
    def point(self, x, y):
        self.ask("point", (x, y))

    @rule(window=rects)
    def window(self, window):
        self.ask("window", window)

    @rule()
    def join(self):
        self.ask("join", None)

    @precondition(lambda self: self.durable)
    @rule()
    def reopen(self):
        self.index.close()
        self.index = self.open()
        assert self.index.recovered

    @precondition(lambda self: self.durable)
    @rule(data=st.data())
    def crash(self, data):
        """Die at a sampled instant inside one mutation or compaction
        (``SimulatedCrash``), abandon the object without ``close()`` as
        a killed process would, reopen: the op in flight either fully
        happened or never did.  An op the armed point never reaches
        simply completes and is acknowledged."""
        ops = [("compact", None), ("insert", Entity(self.next_eid, Rect(0.25, 0.25, 0.5, 0.5)))]
        ops += [("delete", eid) for eid in sorted(self.model.live)[:2]]
        op, payload = data.draw(st.sampled_from(ops))
        self.next_eid += 1
        if op == "compact":
            where = st.tuples(st.sampled_from(CRASH_POINTS), st.integers(0, 1))
        else:  # a mutation is one note: the only two instants it passes
            where = st.tuples(st.sampled_from(("wal-append", "wal-synced")), st.just(0))
        store = self.index._backend()
        store._crash = CrashPoint(
            *data.draw(where), fraction=data.draw(st.floats(0.0, 1.0)), action="raise"
        )
        store._crash_counts.clear()
        try:
            self.mutate(op, payload)
        except SimulatedCrash:
            self.index = self.open()
            assert self.index.recovered
            landed = LiveModel(list(self.model.live.values()))
            landed.apply(op, payload)
            if landed.live == {e.eid: e for e in self.index.live_entities()}:
                self.model = landed  # k + 1; the invariant holds k otherwise
        else:
            store._crash = None

    @invariant()
    def index_equals_model(self):
        assert check_index(self.index, self.model) == []
        index = self.index  # every mutation counts, even one another undid
        assert index.delta_records >= sum(
            map(len, [*index._delta.values(), *index._tombstones.values()])
        )
        if self.durable:  # so the fold trigger bounds the journal too
            assert index.delta_records == len(index._backend().journal()) - 1


class DurableIndexMachine(IndexMachine):
    durable = True


# Budgets set against a seeded bug: with the PR-9 tombstone filter put
# back (tests/test_verify_gates.py has the patch), 60 x 30 finds it in
# every trial, 20-30 examples in about half.
TestIndexStateMachine = IndexMachine.TestCase
TestIndexStateMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestDurableIndexStateMachine = DurableIndexMachine.TestCase
TestDurableIndexStateMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
