"""State-machine test of the buffer pool against a dict of pages.

Hypothesis interleaves fetch, create, unpin (as it was, or rewritten
and dirty), flush, write_behind, invalidate and drop_file over two files
on a three-frame pool, over the memory backend and over the durable
backend on the faulty recording disk, where a drawn page read may fail
or come back flipped.  The model is what each page holds and how often
it is pinned: a fetch returns the page's latest contents, a pinned page
keeps its frame, and the pool refuses a page only when every frame is
pinned.
"""

from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.obs import fileio
from repro.storage.backend import MemoryBackend
from repro.storage.buffer import BufferPool, BufferPoolExhausted
from repro.storage.durable import DATA_FILE, SLOT_COVERED, DurableBackend, DurableStoreError
from repro.storage.iostats import IOStats
from repro.storage.records import EntityDescriptorCodec
from repro.verify.recorder import Fault, FaultyDisk
from repro.verify.scenario import BAD_ENDINGS, ending

FILES = ("a", "b")
CAPACITY = 3
PAGE_SIZE = 4096
DESCRIPTORS = EntityDescriptorCodec()
holds = st.sampled_from([False, False, True])  # so pages are evicted, and miss


class PoolMachine(RuleBasedStateMachine):
    durable = False

    def __init__(self):
        super().__init__()
        self.disk = FaultyDisk() if self.durable else None
        if self.disk is None:
            self.backend = MemoryBackend()
        else:
            with fileio.using(self.disk):
                self.backend = DurableBackend("/pool", page_size=PAGE_SIZE)
        self.pool = BufferPool(self.backend, CAPACITY, IOStats())
        self.pages = {}  # (file, page no) -> the rows it holds
        self.pins = Counter()
        self.frames = {}  # (file, page no) -> the frame its last pin returned
        self.written = 0
        for name in FILES:
            self.new_file(name)

    def new_file(self, name):
        """Create ``name`` on the backend with two pages already stored,
        so the files outgrow the pool and fetches miss."""
        self.backend.create_file(name, DESCRIPTORS, PAGE_SIZE)
        for page_no in range(2):
            page = self.contents()
            self.backend.write_page(name, page_no, page)
            self.pages[name, page_no] = page.tolist()

    def teardown(self):
        self.backend.close()

    def contents(self):
        self.written += 1
        return DESCRIPTORS.page([(self.written, 0.0, 0.0, 1.0, 1.0, self.written)])

    def refused(self, key):
        """Whether the pool must refuse ``key``: every frame is pinned
        by another page."""
        pinned = [k for k, n in self.pins.items() if n]
        return key not in pinned and len(pinned) == CAPACITY

    def pinned(self, key, frame, hold):
        """Take the pin, or (``hold`` false) hand it straight back — dirty
        if the frame was just created."""
        self.frames[key] = frame
        if hold:
            self.pins[key] += 1
        else:
            self.pool.unpin(*key, dirty=frame.dirty)

    @rule(name=st.sampled_from(FILES), hold=holds)
    def create(self, name, hold):
        key = (name, sum(1 for f, _ in self.pages if f == name))
        if self.refused(key):
            with pytest.raises(BufferPoolExhausted):
                self.pool.create(*key)
            return
        frame = self.pool.create(*key)
        frame.records = self.contents()
        self.pages[key] = frame.records.tolist()
        self.pinned(key, frame, hold)

    @precondition(lambda self: self.pages)
    @rule(data=st.data(), hold=st.booleans())
    def fetch(self, data, hold):
        key = data.draw(st.sampled_from(sorted(self.pages)))
        if self.refused(key):
            with pytest.raises(BufferPoolExhausted):
                self.pool.fetch(*key)
            return
        fired = self.disk.fired if self.disk is not None else 0
        try:
            frame = self.pool.fetch(*key)
        except (OSError, DurableStoreError) as error:
            if self.disk is None:
                raise
            verdict = ending(self.disk, loud=True)
            assert verdict == "loud", f"{type(error).__name__}: {BAD_ENDINGS[verdict]}"
            return  # no pin taken; a later fetch must still return the page
        if self.disk is not None and self.disk.fired > fired:
            raise AssertionError(BAD_ENDINGS[ending(self.disk, loud=False)])
        assert frame.records.tolist() == self.pages[key]
        self.pinned(key, frame, hold)

    @precondition(lambda self: +self.pins)
    @rule(data=st.data(), rewrite=st.booleans())
    def unpin(self, data, rewrite):
        key = data.draw(st.sampled_from(sorted(+self.pins)))
        if rewrite:  # a writer replaces the page, never changes it
            self.frames[key].records = self.contents()
            self.pages[key] = self.frames[key].records.tolist()
        self.pool.unpin(*key, dirty=rewrite)
        self.pins[key] -= 1

    @rule(name=st.none() | st.sampled_from(FILES))
    def flush(self, name):
        self.pool.flush(name)

    @precondition(lambda self: self.pages)
    @rule(data=st.data())
    def write_behind(self, data):
        self.pool.write_behind(*data.draw(st.sampled_from(sorted(self.pages))))

    @rule(name=st.none() | st.sampled_from(FILES))
    def invalidate(self, name):
        if any(name in (None, f) for f, _ in +self.pins):
            with pytest.raises(RuntimeError, match="pinned"):
                self.pool.invalidate(name)
        else:
            self.pool.invalidate(name)

    @rule(name=st.sampled_from(FILES))
    def drop_file(self, name):
        """The file is deleted: its frames go unwritten, pinned or not,
        and a new file of that name takes its place."""
        self.pool.drop_file(name)
        self.backend.delete_file(name)
        for key in [key for key in self.pages if key[0] == name]:
            del self.pages[key]
            self.pins.pop(key, None)
        self.new_file(name)

    @precondition(lambda self: self.durable and self.disk.fault is None)
    @rule(corrupt=st.booleans(), nth=st.integers(1, 3), landed=st.integers(0, SLOT_COVERED - 1))
    def fault(self, corrupt, nth, landed):
        """One page read of the next few fails (EIO) or is flipped where
        the slot checksum covers it."""
        self.disk.arm(Fault("corrupt" if corrupt else "read", DATA_FILE, nth=nth, landed=landed))

    @invariant()
    def pinned_pages_keep_their_frames(self):
        assert len(self.pool) <= CAPACITY
        for key in +self.pins:
            frame = self.pool._frames.get(key)
            assert frame is self.frames[key] and frame.pins == self.pins[key], key


class DurablePoolMachine(PoolMachine):
    durable = True


TestPoolStateMachine = PoolMachine.TestCase
TestPoolStateMachine.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
TestDurablePoolStateMachine = DurablePoolMachine.TestCase
TestDurablePoolStateMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
