"""Tests for the segment read index and cache manager."""

import pytest

from repro.common.payload import Payload
from repro.pravega.container.cache import BlockCache, CacheSpec
from repro.pravega.container.read_index import CacheManager, SegmentReadIndex


@pytest.fixture()
def cache():
    return BlockCache(CacheSpec(block_size=64, blocks_per_buffer=16, max_buffers=16))


@pytest.fixture()
def manager(cache):
    return CacheManager(cache)


@pytest.fixture()
def index(cache, manager):
    return SegmentReadIndex("scope/stream/0", cache, manager)


class TestAppendAndRead:
    def test_append_then_read(self, index):
        index.append(0, Payload.of(b"hello "))
        index.append(6, Payload.of(b"world"))
        assert index.read_cached(0, 100).content == b"hello world"

    def test_read_from_middle(self, index):
        index.append(0, Payload.of(b"0123456789"))
        assert index.read_cached(4, 3).content == b"456"

    def test_read_respects_max_bytes(self, index):
        index.append(0, Payload.of(b"0123456789"))
        assert index.read_cached(0, 4).content == b"0123"

    def test_read_uncached_offset_returns_none(self, index):
        index.append(0, Payload.of(b"abc"))
        assert index.read_cached(10, 5) is None
        assert index.read_cached(3, 5) is None

    def test_contiguous_appends_share_entry(self, index):
        for i in range(10):
            index.append(i * 4, Payload.of(b"abcd"))
        assert index.entry_count == 1
        assert index.read_cached(0, 40).size == 40

    def test_entries_split_after_max_entry_bytes(self, cache, manager):
        big_cache = BlockCache(CacheSpec(block_size=4096, blocks_per_buffer=512, max_buffers=64))
        index = SegmentReadIndex("s", big_cache, CacheManager(big_cache))
        chunk = Payload.synthetic(512 * 1024)
        for i in range(5):
            index.append(i * chunk.size, chunk)
        assert index.entry_count >= 2
        assert index.read_cached(0, 5 * chunk.size).size == 5 * chunk.size

    def test_cached_range_end(self, index):
        index.append(0, Payload.of(b"x" * 100))
        assert index.cached_range_end(50) == 100
        assert index.cached_range_end(100) is None

    def test_invariants_hold(self, index):
        for i in range(20):
            index.append(i * 10, Payload.of(bytes([i]) * 10))
        index.check_invariants()


class TestFetchedData:
    def test_insert_fetched_serves_historical_reads(self, index):
        index.insert_fetched(100, Payload.of(b"historical"))
        assert index.read_cached(100, 10).content == b"historical"
        assert index.read_cached(0, 10) is None

    def test_fetched_adjacent_to_appends_reads_through(self, index):
        index.insert_fetched(0, Payload.of(b"old!"))
        index.append(4, Payload.of(b"new!"))
        assert index.read_cached(0, 8).content == b"old!new!"

    def test_duplicate_fetch_ignored(self, index):
        index.insert_fetched(0, Payload.of(b"data"))
        index.insert_fetched(0, Payload.of(b"DATA"))
        assert index.read_cached(0, 4).content == b"data"
        assert index.entry_count == 1

    SEGMENT = bytes(range(256)) * 2

    def _fetch_chunk(self, index, lo, hi):
        index.insert_fetched(lo, Payload.of(self.SEGMENT[lo:hi]))
        index.check_invariants()
        for offset in range(lo, hi, 7):
            want = self.SEGMENT[offset:hi]
            assert index.read_cached(offset, hi - offset).content == want, offset

    def test_entry_covering_only_the_chunk_start_does_not_block_the_fetch(self, index):
        # An append entry straddles the chunk's first byte and ends before
        # the offset the reader asked for: the rest must still be indexed.
        index.append(0, Payload.of(self.SEGMENT[0:100]))
        index.append(400, Payload.of(self.SEGMENT[400:450]))  # the tail entry
        self._fetch_chunk(index, 50, 250)
        assert index.read_cached(0, 250).content == self.SEGMENT[0:250]

    def test_entry_starting_inside_the_chunk_is_not_overlapped(self, index):
        index.insert_fetched(120, Payload.of(self.SEGMENT[120:150]))
        index.insert_fetched(200, Payload.of(self.SEGMENT[200:300]))
        self._fetch_chunk(index, 50, 250)
        assert index.entry_count == 4  # [50,120) [120,150) [150,200) [200,300)
        assert index.read_cached(50, 250).content == self.SEGMENT[50:300]


class TestEvictionAndTruncation:
    def test_evictable_requires_flushed(self, index):
        index.append(0, Payload.of(b"a" * 100))
        index.append(100, Payload.of(b"b" * 100))
        index.insert_fetched(500, Payload.of(b"c" * 50))
        # Nothing flushed: only fully-flushed entries are evictable.
        assert index.evictable_entries(flushed_below=0) == []
        evictable = index.evictable_entries(flushed_below=1000)
        # The tail entry is never evicted; the fetched entry is evictable.
        assert len(evictable) >= 1

    def test_truncate_below_releases_blocks(self, index, cache):
        index.append(0, Payload.of(b"x" * 200))
        # Force separate entries via fetch at a gap.
        index.insert_fetched(1000, Payload.of(b"y" * 100))
        used_before = cache.used_blocks
        released = index.truncate_below(1000)
        assert released >= 200
        assert cache.used_blocks < used_before
        assert index.read_cached(0, 10) is None

    def test_drop_all(self, index, cache):
        index.append(0, Payload.of(b"x" * 500))
        index.drop_all()
        assert cache.used_blocks == 0
        assert index.entry_count == 0


class TestCacheManager:
    def test_eviction_prefers_oldest_generation(self, cache, manager):
        index = SegmentReadIndex("s", cache, manager)
        manager.flushed_offset_provider = lambda segment: 10**9
        index.insert_fetched(0, Payload.synthetic(64 * 8))
        manager.advance_generation()
        index.insert_fetched(10_000, Payload.synthetic(64 * 8))
        # Touch the old entry to refresh its generation.
        manager.advance_generation()
        index.read_cached(0, 1)
        manager.target_utilization = 0.0
        manager.maybe_evict()
        # The untouched (older-generation) entry went first; depending on
        # utilization both may be evicted, but the refreshed one survives
        # only if target allows — with target 0 all evictables go.
        assert cache.used_blocks <= 8

    def test_no_eviction_below_target(self, cache, manager):
        index = SegmentReadIndex("s", cache, manager)
        manager.flushed_offset_provider = lambda segment: 10**9
        index.insert_fetched(0, Payload.synthetic(64))
        assert manager.maybe_evict() == 0
        assert index.entry_count == 1

    def test_unflushed_data_never_evicted(self, cache, manager):
        index = SegmentReadIndex("s", cache, manager)
        manager.flushed_offset_provider = lambda segment: 0
        index.insert_fetched(0, Payload.synthetic(64 * 16))
        manager.target_utilization = 0.0
        manager.maybe_evict()
        assert index.entry_count == 1  # pinned: not yet in LTS

    def test_make_room_evicts_aggressively(self, cache, manager):
        index = SegmentReadIndex("s", cache, manager)
        manager.flushed_offset_provider = lambda segment: 10**9
        for i in range(10):
            index.insert_fetched(i * 10_000, Payload.synthetic(64 * 4))
            manager.advance_generation()
        assert manager.make_room()
        assert cache.used_blocks < 40
