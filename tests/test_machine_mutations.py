"""The state machines can fail: each storage guard, removed, is found.

A machine that passes on any code proves nothing, so each guard the
storage-fault rules exist to exercise is removed in turn — by
monkeypatching, with no source edit — and a machine must fail within
the examples and steps tier-1 gives it (searched deterministically, and
not shrunk: only the finding counts here).  The unmutated machines are
the tier-1 tests themselves.
"""

import sys

import pytest
from hypothesis import Phase, settings
from hypothesis.stateful import run_state_machine_as_test

from repro.storage import durable, wal
from repro.storage.buffer import BufferPool
from repro.storage.durable import DurableBackend
from tests import test_buffer_statemachine as pools
from tests import test_service_statemachine as indexes
from tests.test_verify_gates import retry_failed_wal_appends


def keep_a_failed_folds_frames(monkeypatch):
    """A fold whose write fails leaves its fresh files' dirty frames in
    the pool, so a later flush or eviction writes a page of a file the
    fold gave up, on a store that refuses writes.  The fold's clean-up
    drops them through ``StorageManager.drop_file``; only that call,
    made while the fold handles its failure, keeps them."""
    drop_file = BufferPool.drop_file

    def kept_by_the_fold(self, file_name):
        if sys._getframe(2).f_code.co_name != "_fold" or sys.exc_info()[0] is None:
            drop_file(self, file_name)

    monkeypatch.setattr(BufferPool, "drop_file", kept_by_the_fold)


def skip_the_slot_checksum(monkeypatch):
    """A slot read that trusts its header: a flipped byte comes back as
    data instead of a loud checksum error."""

    def unchecked(self, slot, file_id, page_no):
        self._data.seek(self._slot_offset(slot))
        block = self._data.read(self._block_size)
        _, length, _, _ = durable._SLOT_HEADER.unpack_from(block, 0)
        return block[durable._SLOT_HEADER.size :][:length]

    monkeypatch.setattr(DurableBackend, "_read_slot", unchecked)


def forget_a_failed_write(monkeypatch):
    """No failed-store latch: after a write or fsync fails, the store
    takes the next one, appending a record behind a torn one."""
    monkeypatch.setattr(DurableBackend, "_refuse_if_failed", lambda self: None)


def evict_pinned_frames(monkeypatch):
    """Eviction without the ``pins == 0`` test: the least recently used
    frame goes, pinned or not."""

    def make_room(self):
        if len(self._frames) >= self.capacity:
            self._evict(*next(iter(self._frames.items())))

    monkeypatch.setattr(BufferPool, "_make_room", make_room)


def skip_the_record_checksum(monkeypatch):
    """A log replay that trusts a record's header: a flipped body byte
    is replayed as data instead of ending the scan."""

    def unchecked(data, offset):
        if offset + wal.WAL_HEADER.size > len(data):
            return None
        magic, lsn, op, _, length = wal.WAL_HEADER.unpack_from(data, offset)
        start = offset + wal.WAL_HEADER.size
        if magic != wal.WAL_MAGIC or start + length > len(data):
            return None
        return wal.WalRecord(lsn, op, data[start : start + length])

    monkeypatch.setattr(wal, "_decode_at", unchecked)


MUTATIONS = {
    "a-fold-keeps-frames": (keep_a_failed_folds_frames, indexes.DurableIndexMachine),
    "b-no-slot-checksum": (skip_the_slot_checksum, pools.DurablePoolMachine),
    "c-no-failed-latch": (forget_a_failed_write, indexes.DurableIndexMachine),
    "d-evict-pinned": (evict_pinned_frames, pools.PoolMachine),
    "e-no-record-checksum": (skip_the_record_checksum, indexes.DurableIndexMachine),
    "f-retrying-wal-append": (retry_failed_wal_appends, indexes.DurableIndexMachine),
}
"""Each mutation and the machine that must find it."""


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_a_machine_finds_the_mutation(name, monkeypatch):
    mutate, machine = MUTATIONS[name]
    mutate(monkeypatch)
    budget = settings(
        machine.TestCase.settings,
        derandomize=True,
        database=None,
        phases=[Phase.generate],
        report_multiple_bugs=False,
    )
    with pytest.raises(Exception):
        run_state_machine_as_test(machine, settings=budget)
