"""Stateful property test of the read tier's cache (DESIGN.md §13,
marker: read).

A hypothesis ``RuleBasedStateMachine`` drives one ``BlockCache``, its
``CacheManager`` and two ``SegmentReadIndex``es through raw inserts and
deletes, appends, LTS-fetch inserts, eviction, ``make_room``, segment
drops and reads, and checks them against a plain-bytes model: each
segment's acknowledged bytes (all of them readable from LTS below the
segment's flushed offset) and the content of every raw cache entry.
After every step:

* ``used_blocks`` equals the blocks reachable from live entries;
* index entries never overlap;
* every byte the model holds reads back identically, or is reported as
  not cached;
* a ``CacheFullError`` leaves the state untouched.  ``insert_fetched``
  fills a range's gaps one at a time and is documented as resumable (a
  retry fills what is left), so for it "untouched" means: every entry
  that existed is still there unchanged, and only whole gaps of the
  fetched range were added.

The cache is tiny (32-byte blocks, 8 target / 12 hard-cap blocks) and
an index entry stops growing at 64 bytes instead of 1 MiB, so appends
leave evictable entries behind and ``CacheFullError`` and eviction
happen within a few steps.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.common.payload import Payload
from repro.pravega.container.cache import BlockCache, CacheFullError, CacheSpec
from repro.pravega.container import read_index
from repro.pravega.container.read_index import CacheManager, SegmentReadIndex

pytestmark = pytest.mark.read

SEGMENTS = ("a", "b")
SPEC = CacheSpec(block_size=32, blocks_per_buffer=2, max_buffers=4)
MAX_ENTRY_BYTES = 64


def _content(segment: str, start: int, end: int) -> bytes:
    """The bytes a segment holds at ``[start, end)``: a pure function of
    the offset, so a read served from the wrong place shows up."""
    seed = SEGMENTS.index(segment) * 101
    return bytes((seed + 7 * offset) % 251 for offset in range(start, end))


class ReadCacheMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.saved_max_entry = read_index.MAX_ENTRY_BYTES
        read_index.MAX_ENTRY_BYTES = MAX_ENTRY_BYTES
        self.cache = BlockCache(SPEC)
        self.manager = CacheManager(self.cache)
        self.manager.flushed_offset_provider = lambda segment: self.flushed[segment]
        self.indexes = {s: SegmentReadIndex(s, self.cache, self.manager) for s in SEGMENTS}
        #: acknowledged length per segment (bytes are ``_content``)
        self.length = {s: 0 for s in SEGMENTS}
        #: bytes below this offset are in LTS (and evictable)
        self.flushed = {s: 0 for s in SEGMENTS}
        #: raw cache entries outside any index: address -> content
        self.raw = {}

    def teardown(self):
        if hasattr(self, "saved_max_entry"):
            read_index.MAX_ENTRY_BYTES = self.saved_max_entry

    # ------------------------------------------------------------------
    # State snapshots
    # ------------------------------------------------------------------
    def _entries(self, segment):
        return {
            start: (entry.length, entry.cache_address)
            for start, entry in self.indexes[segment]._entries.items()
        }

    def _snapshot(self):
        return (
            self.cache.used_blocks,
            {s: self._entries(s) for s in SEGMENTS},
            {s: self.indexes[s]._tail_entry for s in SEGMENTS},
            dict(self.raw),
        )

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @precondition(lambda self: not self.raw)
    @rule(size=st.integers(0, 64))
    def insert(self, size):
        data = bytes(range(size))
        before = self._snapshot()
        try:
            address = self.cache.insert(Payload.of(data))
        except CacheFullError:
            assert self._snapshot() == before
            return
        self.raw[address] = data

    @precondition(lambda self: self.raw)
    @rule(data=st.data())
    def delete(self, data):
        address = data.draw(st.sampled_from(sorted(self.raw)))
        assert self.cache.delete(address) == len(self.raw.pop(address))

    @rule(segment=st.sampled_from(SEGMENTS), size=st.integers(1, 64))
    def append(self, segment, size):
        start = self.length[segment]
        self.length[segment] = start + size  # acked to the WAL either way
        before = self._snapshot()
        try:
            self.indexes[segment].append(start, Payload.of(_content(segment, start, start + size)))
        except CacheFullError:
            assert self._snapshot() == before

    @rule(segment=st.sampled_from(SEGMENTS), data=st.data())
    def flush(self, segment, data):
        length = self.length[segment]
        self.flushed[segment] = data.draw(
            st.just(length) | st.integers(self.flushed[segment], length)
        )

    @precondition(lambda self: any(self.flushed.values()))
    @rule(data=st.data())
    def insert_fetched(self, data):
        segment = data.draw(st.sampled_from([s for s in SEGMENTS if self.flushed[s]]))
        flushed = self.flushed[segment]
        lo = data.draw(st.integers(0, flushed - 1))
        hi = data.draw(st.integers(lo + 1, min(flushed, lo + 200)))
        before = self._entries(segment)
        try:
            self.indexes[segment].insert_fetched(lo, Payload.of(_content(segment, lo, hi)))
        except CacheFullError:
            after = self._entries(segment)
            assert all(after.get(start) == kept for start, kept in before.items())
            for start in after.keys() - before.keys():
                assert lo <= start and start + after[start][0] <= hi
            return
        covered = set()
        for start, (size, _) in self._entries(segment).items():
            covered.update(range(start, start + size))
        assert covered >= set(range(lo, hi)), "a fetched byte is not cached"

    @rule(utilization=st.sampled_from([0.0, 0.25, 0.5, 0.85]))
    def evict(self, utilization):
        pinned = self._pinned()
        self.manager.advance_generation()
        saved = self.manager.target_utilization
        self.manager.target_utilization = utilization
        try:
            self.manager.maybe_evict()
        finally:
            self.manager.target_utilization = saved
        assert self._pinned() == pinned

    @rule()
    def make_room(self):
        pinned = self._pinned()
        self.manager.make_room()
        assert self._pinned() == pinned

    @rule(segment=st.sampled_from(SEGMENTS))
    def drop(self, segment):
        self.indexes[segment].drop_all()
        assert not self._entries(segment)

    @rule(segment=st.sampled_from(SEGMENTS), data=st.data())
    def read(self, segment, data):
        length = self.length[segment]
        if not length:
            return
        offset = data.draw(st.integers(0, length - 1))
        want = data.draw(st.integers(1, 900))
        got = self.indexes[segment].read_cached(offset, want)
        if got is None:
            assert not any(
                start <= offset < start + size
                for start, (size, _) in self._entries(segment).items()
            ), "a cached byte was reported as not cached"
            return
        assert 0 < got.size <= want
        assert got.content == _content(segment, offset, offset + got.size)

    def _pinned(self):
        """Entries eviction must keep: the live tail entry and anything
        not yet flushed to LTS."""
        return {
            (segment, start, entry.length)
            for segment, index in self.indexes.items()
            for start, entry in index._entries.items()
            if entry is index._tail_entry or entry.end_offset > self.flushed[segment]
        }

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def used_blocks_are_the_reachable_blocks(self):
        addresses = list(self.raw) + [
            address for s in SEGMENTS for _, address in self._entries(s).values()
        ]
        reachable = sum(len(list(self.cache._chain(address))) for address in addresses)
        assert self.cache.used_blocks == reachable
        self.cache.check_invariants()

    @invariant()
    def entries_never_overlap(self):
        for index in self.indexes.values():
            index.check_invariants()
            tail = index._tail_entry
            assert tail is None or index._entries.get(tail.start_offset) is tail

    @invariant()
    def cached_bytes_match_the_model(self):
        for address, data in self.raw.items():
            assert self.cache.get(address).content == data
        for segment in SEGMENTS:
            for start, (size, address) in self._entries(segment).items():
                assert start + size <= self.length[segment]
                piece = self.cache.read_range(address, 0, size, size)
                assert piece.content == _content(segment, start, start + size)


ReadCacheMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=50, deadline=None
)
TestReadCacheMachine = ReadCacheMachine.TestCase
