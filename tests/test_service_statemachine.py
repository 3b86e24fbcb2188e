"""State-machine test of the resident index against the verify model.

Hypothesis picks the interleaving — insert, delete, re-insert of a
deleted id (same box or a new one), a fresh insert deleted again
(churn), compact, point / window / join
queries, and, for the durable variant (a bulk-loaded store on the
faulty recording disk), close-and-reopen,
power-loss-at-a-drawn-crash-state-and-reopen, one drawn seam fault at
a time, a fold whose page write fails, and a reopen that reads a
flipped byte of the log — and after every step the
index must equal the model: the same
:class:`~repro.verify.scenario.LiveModel` and
:func:`~repro.verify.scenario.check_index` the ``repro verify`` gates
use, driven here by shrinking search instead of a seeded generator.
Queries go through a :class:`~repro.service.api.JoinService`, so each
outcome is judged by the gates' :func:`~repro.verify.scenario.classify`
and every op under an armed fault by their
:func:`~repro.verify.scenario.ending`.
Coordinates are dyadic, so boxes land on the grid lines where
closed-interval and level-assignment bugs live.
"""

import asyncio
import dataclasses
import errno
import random

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
from repro.obs import fileio
from repro.service.api import JoinService, ServiceConfig
from repro.service.index import PersistentIndex
from repro.storage import wal
from repro.storage.durable import (
    CHECKPOINT_FILE,
    DATA_FILE,
    LOG_FILE,
    SLOT_COVERED,
    DurableStoreError,
)
from repro.storage.manager import StorageConfig
from repro.verify.recorder import Fault, FaultyDisk
from repro.verify.scenario import (
    BAD_ENDINGS,
    BREAKER_RESET_S,
    LiveModel,
    _serve,
    apply_op,
    check_index,
    classify,
    ending,
)

dyadic = st.integers(0, 64).map(lambda k: k / 64)
rects = st.tuples(dyadic, dyadic, dyadic, dyadic).map(
    lambda c: Rect(min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3]))
)
codes = st.sampled_from([errno.EIO, errno.ENOSPC])
nths = st.integers(1, 4)


def writes(files):
    """EIO or ENOSPC on the ``nth`` write or fsync of one of ``files``
    (a name prefix), or a short write of one."""
    return st.one_of(
        st.builds(Fault, st.sampled_from(["write", "fsync"]), files, codes, nths),
        st.builds(Fault, st.just("write"), files, codes, nths, landed=st.integers(1, 64)),
    )


faults = writes(st.just(LOG_FILE)) | writes(st.just(CHECKPOINT_FILE)) | st.one_of(
    # A log or the checkpoint is read only by a reopen, so reads fail on
    # the data file here (``flipped_log_reopen`` flips a log byte), and
    # a flip lands where its slot checksum covers it.
    st.builds(Fault, st.just("read"), st.just(DATA_FILE), codes, nths),
    st.builds(Fault, st.just("corrupt"), st.just(DATA_FILE), nth=nths,
              landed=st.integers(0, SLOT_COVERED - 1)),
)
"""One seam fault: a failed write or fsync of the log or the
checkpoint, or a failed or corrupt read of the data file (whose writes
``failed_fold`` fails, a fold being the one op that writes it).  The
log's own branch comes first, so a derandomized search draws a failed
log write — what a retrying append would swallow — within its first
examples."""

LOUD = object()
"""What an op that ended in a typed storage error returns."""


def applied(model, op, payload):
    after = LiveModel(list(model.live.values()))
    after.apply(op, payload)
    return after


def last_record(log):
    """``range`` of the bytes of the log's last readable record — the
    one a torn write could have cut — or None if the log holds none."""
    last, offset = None, 0
    while (record := wal._decode_at(log, offset)) is not None:
        last = range(offset, offset + wal.WAL_HEADER.size + len(record.body))
        offset = last.stop
    return last


def seed_entities(count):
    """``count`` entities of seven sizes at dyadic corners, so a bulk
    load fills several levels."""
    rng = random.Random(0)
    entities = []
    for eid in range(1, count + 1):
        side = rng.choice([0, 1, 2, 4, 8, 16, 32]) / 64
        x, y = rng.randrange(64) / 64, rng.randrange(64) / 64
        entities.append(Entity(eid, Rect(x, y, min(1.0, x + side), min(1.0, y + side))))
    return entities


class IndexMachine(RuleBasedStateMachine):
    durable = False
    seeded = 0  # entities bulk-loaded before the first rule

    def __init__(self):
        super().__init__()
        self.disk = FaultyDisk() if self.durable else None
        self.now = 0.0  # the breaker's clock
        self.loop = asyncio.new_event_loop()
        self.model = LiveModel(seed_entities(self.seeded))
        self.open(self.model.live.values())
        self.in_flight = self.model  # the model if a failed mutation took effect
        self.deleted = {}
        self.next_eid = self.seeded + 1

    def open(self, entities=()):
        if self.disk is None:
            self.index = PersistentIndex(entities, compaction_threshold=6)
        else:  # a small pool, so queries read the disk and folds evict
            with fileio.using(self.disk):
                self.index = PersistentIndex(
                    entities, storage=StorageConfig(buffer_pages=2),
                    compaction_threshold=6, data_dir="/store",
                )
        config = ServiceConfig(breaker_threshold=2, breaker_reset_s=BREAKER_RESET_S)
        self.service = JoinService(self.index, config, clock=lambda: self.now)

    def teardown(self):
        if self.disk is not None:
            self.disk.arm(None)
        self.index.close()
        self.loop.close()

    def attempt(self, op, payload):
        """Run one op on the index.  Under an armed fault, a typed storage
        error is the op's loud ending — after the fault fired, never
        before (spurious) — and an op that ends quietly must not have
        absorbed a fault that fired inside it (swallowed)."""
        if self.disk is None:
            return apply_op(self.index, op, payload)
        fired = self.disk.fired
        try:
            answer = apply_op(self.index, op, payload)
        except (OSError, DurableStoreError) as error:
            verdict = ending(self.disk, loud=True)
            assert verdict == "loud", f"{type(error).__name__}: {BAD_ENDINGS[verdict]}"
            return LOUD
        if self.disk.fired > fired:
            raise AssertionError(BAD_ENDINGS[ending(self.disk, loud=False)])
        return answer

    def mutate(self, op, payload):
        """A mutation the model admits is applied or fails loud; one it
        does not admit (a failed delete left its id live) is refused.
        The first failure may have logged its record, so until a reopen
        tells, ``in_flight`` is the model with that op applied too; later
        failures find the store failed."""
        if not self.model.accepts(op, payload):
            try:
                if self.attempt(op, payload) is LOUD:
                    return
            except (ValueError, KeyError):
                return
            raise AssertionError(f"acknowledged {op} the live set does not admit")
        if self.attempt(op, payload) is LOUD:
            if self.in_flight is self.model:
                self.in_flight = applied(self.model, op, payload)
            return
        if op != "compact":  # one with nothing pending writes nothing
            assert not self.store_failed(), f"{op} acknowledged after a failed write"
        if self.in_flight is not self.model and self.in_flight.accepts(op, payload):
            self.in_flight = applied(self.in_flight, op, payload)
            self.model = applied(self.model, op, payload)
        else:
            self.model = self.in_flight = applied(self.model, op, payload)

    def store_failed(self):
        """Whether a write or fsync of the data file, the log or the
        checkpoint has failed: the store then refuses every write until
        the reopen."""
        fault = self.disk.fault if self.disk is not None and self.disk.fired else None
        return fault is not None and fault.op != "read"

    def ask(self, op, payload):
        self.now += BREAKER_RESET_S  # an open breaker half-opens and probes
        fired = self.disk.fired if self.disk is not None else 0
        outcome = self.loop.run_until_complete(_serve(self.service, op, payload))
        now_fired = self.disk.fired if self.disk is not None else 0
        problems = classify(outcome, self.service.breaker.state, now_fired > 0)
        if outcome.status == "ok":
            if now_fired > fired:
                problems.append(BAD_ENDINGS[ending(self.disk, loud=False)])
            answer = outcome.pairs if op == "join" else outcome.eids
            if answer != self.model.expected(op, payload):
                problems.append("silent wrong answer")
        assert problems == [], problems

    def recover(self, *models):
        """The reopened index holds one of ``models``: an op in flight
        when the store failed or lost power happened or did not."""
        live = {entity.eid: entity for entity in self.index.live_entities()}
        self.model = self.in_flight = next((m for m in models if m.live == live), self.model)

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
        self.attempt("compact", None)

    @rule(x=dyadic, y=dyadic)
    def point(self, x, y):
        self.ask("point", (x, y))

    @rule(window=rects)
    def window(self, window):
        self.ask("window", window)

    @rule()
    def join(self):
        self.ask("join", None)

    @precondition(lambda self: self.durable and self.disk.fault is None)
    @rule(fault=faults)
    def fault(self, fault):
        """Arm one seam fault; it hits the ``nth`` matching call from
        now, and the store lives with it until the reopen."""
        self.disk.arm(fault)

    def pending_levels(self):
        return len(set(self.index._delta) | set(self.index._tombstones))

    @precondition(lambda self: self.durable and not self.disk.fired and self.pending_levels())
    @rule(fault=writes(st.just(DATA_FILE)))
    def failed_fold(self, fault):
        """A fold — the one op that writes the data file, a file per
        level it rewrites — whose ``nth`` page write (``nth`` at most
        the levels) or data fsync fails.  Its fault replaces one armed
        but not yet fired."""
        self.disk.arm(dataclasses.replace(fault, nth=min(fault.nth, self.pending_levels())))
        self.attempt("compact", None)

    @precondition(lambda self: self.durable)
    @rule()
    def reopen(self):
        """Close — under the armed fault, which may fail it loud, but
        only by firing inside it — and reopen on a healthy disk: the
        acked ops are all there."""
        fired = self.disk.fired
        try:
            self.index.close()
        except (OSError, DurableStoreError) as error:
            assert self.disk.fired > fired, f"close failed with no fault in it: {error!r}"
        self.disk.arm(None)
        self.open()
        assert self.index.recovered
        self.recover(self.model, self.in_flight)

    @precondition(lambda self: self.durable)
    @rule(data=st.data())
    def crash(self, data):
        """Lose power inside one mutation or compaction — a drawn crash
        state of a drawn fsync boundary it passed — abandon the object
        without ``close()``, and reopen on that disk image: the op in
        flight either fully happened or never did.  An op that passes
        no boundary (a compaction with nothing pending) simply
        completes and is acknowledged."""
        ops = [("compact", None), ("insert", Entity(self.next_eid, Rect(0.25, 0.25, 0.5, 0.5)))]
        ops += [("delete", eid) for eid in sorted(self.model.live)[:2]]
        op, payload = data.draw(st.sampled_from(ops))
        self.next_eid += 1
        before = self.model  # k
        boundaries = []
        self.disk.on_boundary = lambda disk, site: boundaries.append(disk.crash_states())
        try:
            self.mutate(op, payload)
        finally:
            self.disk.on_boundary = None
        if not boundaries:
            return
        _, state = data.draw(st.sampled_from(data.draw(st.sampled_from(boundaries))))
        self.disk = FaultyDisk(state)
        self.open()
        assert self.index.recovered
        self.recover(before, self.in_flight)

    @precondition(lambda self: self.durable and (self.disk.fault is None or self.disk.fired))
    @rule(landed=st.integers(0, 1 << 12))
    def flipped_log_reopen(self, landed):
        """Abandon the index — what a kill leaves — and reopen on a disk
        whose read of the log returns byte ``landed`` (modulo its
        length) flipped.  A loud reopen changes nothing on the
        disk, and one on the healthy disk then restores the acked ops; a
        quiet one restores them too, unless the flip fell in the log's
        last readable record, which the scan cannot tell from a torn
        tail: the reopen then equals one of the image with that record
        torn off.  A flip in a torn tail behind it changes nothing.  Not
        while an armed fault has yet to fire: this reopen would drop it."""
        state = {path: bytes(node.live) for path, node in self.disk.files.items()}
        self.disk = FaultyDisk(state, Fault("corrupt", LOG_FILE, landed=landed))
        try:
            self.open()
        except DurableStoreError:
            assert self.disk.fired, "reopen failed with no flip in it"
            assert {path: bytes(node.live) for path, node in self.disk.files.items()} == state
            self.disk = FaultyDisk(state)
            self.open()
        self.disk.arm(None)
        log = f"/store/{LOG_FILE}"
        last = last_record(state[log])
        if last is None or landed % len(state[log]) not in last:
            assert self.index.recovered
            self.recover(self.model, self.in_flight)
            return
        live = {entity.eid: entity for entity in self.index.live_entities()}
        torn = FaultyDisk({**state, log: state[log][: last.start]})
        with fileio.using(torn):  # a first boot's manifest torn off boots again
            reference = PersistentIndex((), storage=StorageConfig(buffer_pages=2), data_dir="/store")
        assert self.index.recovered == reference.recovered
        assert live == {entity.eid: entity for entity in reference.live_entities()}
        reference.close()
        self.model = self.in_flight = LiveModel(list(live.values()))

    @invariant()
    def index_equals_model(self):
        held = self.disk.fault if self.disk is not None else None
        if held is not None:  # the check observes: it reads with the fault held off
            self.disk.fault = None
        try:
            assert check_index(self.index, self.model) == []
        finally:
            if held is not None:
                self.disk.fault = held
        index = self.index  # every mutation counts, even one another undid
        assert index.delta_records >= sum(
            map(len, [*index._delta.values(), *index._tombstones.values()])
        )
        if self.durable:  # so the fold trigger bounds the journal too
            assert index.delta_records == len(index._backend().journal()) - 1


class DurableIndexMachine(IndexMachine):
    """On a bulk-loaded store, so queries and folds read its pages."""

    durable = True
    seeded = 24


# Budgets set against seeded bugs: with the tombstone filter run after
# the merge (tests/test_verify_gates.py has the patch), 60 x 30 finds it in
# every trial, 20-30 examples in about half; the durable variant's
# 100 x 30 is what tests/test_machine_mutations.py gives each storage
# guard it removes.  The failed fold's frame drop needs it: only a fold
# of two or more levels shows that guard missing, and the derandomized
# search draws few failed folds before its 90th example.
TestIndexStateMachine = IndexMachine.TestCase
TestIndexStateMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestDurableIndexStateMachine = DurableIndexMachine.TestCase
TestDurableIndexStateMachine.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
