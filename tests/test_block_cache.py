"""Tests for the Fig. 4 block cache: chaining, O(1) appends, free lists."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ReproError
from repro.common.payload import Payload
from repro.pravega.container.cache import (
    NO_ADDRESS,
    BlockCache,
    CacheFullError,
    CacheSpec,
)


@pytest.fixture()
def cache():
    return BlockCache(CacheSpec(block_size=16, blocks_per_buffer=8, max_buffers=4))


class TestInsertGet:
    def test_small_entry_roundtrip(self, cache):
        address = cache.insert(Payload.of(b"hello"))
        assert cache.get(address).content == b"hello"
        assert cache.used_blocks == 1

    def test_empty_entry(self, cache):
        address = cache.insert(Payload.empty())
        assert cache.get(address).size == 0
        assert cache.used_blocks == 1  # occupies one (empty) block

    def test_multi_block_entry_spans_chain(self, cache):
        data = bytes(range(50))  # 4 blocks of 16
        address = cache.insert(Payload.of(data))
        assert cache.get(address).content == data
        assert cache.used_blocks == 4

    def test_entry_spanning_buffers(self, cache):
        data = b"x" * (16 * 12)  # 12 blocks > one 8-block buffer
        address = cache.insert(Payload.of(data))
        assert cache.get(address).content == data
        assert cache.used_blocks == 12

    def test_synthetic_payload_tracked_by_size(self, cache):
        address = cache.insert(Payload.synthetic(100))
        result = cache.get(address)
        assert result.size == 100 and result.is_synthetic
        assert cache.entry_size(address) == 100


class TestAppend:
    def test_append_fills_last_block_in_place(self, cache):
        address = cache.insert(Payload.of(b"12345678"))  # half a block
        new_address = cache.append(address, Payload.of(b"abcdefgh"))
        assert new_address == address  # no new block needed
        assert cache.get(new_address).content == b"12345678abcdefgh"
        assert cache.used_blocks == 1

    def test_append_allocates_new_blocks_when_full(self, cache):
        address = cache.insert(Payload.of(b"x" * 16))
        new_address = cache.append(address, Payload.of(b"y" * 20))
        assert new_address != address
        assert cache.get(new_address).content == b"x" * 16 + b"y" * 20
        assert cache.used_blocks == 3

    def test_many_appends_preserve_order(self, cache):
        address = cache.insert(Payload.of(b""))
        expected = b""
        for i in range(30):
            piece = bytes([i]) * 3
            address = cache.append(address, Payload.of(piece))
            expected += piece
        assert cache.get(address).content == expected

    def test_address_is_last_block(self, cache):
        """Fig. 4: the entry address is its last block, making appends O(1)."""
        address = cache.insert(Payload.of(b"z" * 40))  # 3 blocks
        assert cache._length[address] == 40 - 32  # last block holds the tail
        chain = list(cache._chain(address))
        assert chain[0] == address and len(chain) == 3
        assert [cache._prev[a] for a in chain] == chain[1:] + [NO_ADDRESS]
        assert [cache._length[a] for a in chain] == [8, 16, 16]


class TestDelete:
    def test_delete_releases_all_blocks(self, cache):
        address = cache.insert(Payload.of(b"x" * 100))
        used = cache.used_blocks
        released = cache.delete(address)
        assert released == 100
        assert cache.used_blocks == used - 7

    def test_blocks_are_reused_after_delete(self, cache):
        first = cache.insert(Payload.of(b"x" * 16 * 8))
        cache.delete(first)
        second = cache.insert(Payload.of(b"y" * 16 * 8))
        assert cache.get(second).content == b"y" * 16 * 8
        assert cache.used_blocks == 8

    def test_overflow_allowed_up_to_hard_cap(self, cache):
        total = cache.spec.max_blocks * cache.spec.block_size
        cache.insert(Payload.synthetic(total))
        assert not cache.overflowing
        cache.insert(Payload.of(b"one more"))  # soft overflow is fine
        assert cache.overflowing

    def test_cache_full_raises_at_hard_cap(self, cache):
        hard_total = (
            cache.spec.hard_max_buffers
            * cache.spec.blocks_per_buffer
            * cache.spec.block_size
        )
        cache.insert(Payload.synthetic(hard_total))
        with pytest.raises(CacheFullError):
            cache.insert(Payload.of(b"one more"))

    @pytest.mark.parametrize("grow", ["insert", "append"])
    def test_cache_full_leaves_the_cache_untouched(self, cache, grow):
        """Insert and append are all-or-nothing: a request that does not
        fit under the hard cap takes no block and alters no entry."""
        hard_blocks = cache.spec.hard_max_buffers * cache.spec.blocks_per_buffer
        victim = cache.insert(Payload.of(b"v" * 20))  # tail block has 12 free
        other = cache.insert(Payload.of(b"o" * 16 * (hard_blocks - 4)))
        assert cache.used_blocks == hard_blocks - 2
        fits = Payload.of(b"w" * (12 + 16 * 2))  # the tail's 12 + two blocks
        too_big = Payload.of(fits.content + b"!")
        with pytest.raises(CacheFullError):
            if grow == "insert":
                cache.insert(too_big)
            else:
                cache.append(victim, too_big)
        assert cache.used_blocks == hard_blocks - 2
        assert (cache.inserts, cache.appends) == (2, 0)
        assert cache.get(victim).content == b"v" * 20
        assert cache.entry_size(victim) == 20
        assert cache.get(other).content == b"o" * 16 * (hard_blocks - 4)
        cache.check_invariants()
        # What does fit still goes in, down to the last block.
        grown = cache.append(victim, fits)
        assert cache.get(grown).content == b"v" * 20 + fits.content
        assert cache.used_blocks == hard_blocks
        cache.check_invariants()

    def test_get_freed_address_rejected(self, cache):
        address = cache.insert(Payload.of(b"x"))
        cache.delete(address)
        with pytest.raises(Exception):
            cache.get(address)


def _entry(cache, pieces):
    """Insert the first piece and append the rest; returns (address,
    model) where the model holds one int per byte, -1 for synthetic."""
    address = None
    model = []
    for piece in pieces:
        if isinstance(piece, int):
            payload = Payload.synthetic(piece)
            model += [-1] * piece
        else:
            payload = Payload.of(piece)
            model += list(piece)
        if address is None:
            address = cache.insert(payload)
        else:
            address = cache.append(address, payload)
    return address, model


def _check_ranges(cache, address, model, ranges):
    """``read_range`` against the byte model and against ``get`` + slice."""
    size = len(model)
    whole = cache.get(address)
    assert whole.size == size
    for a, b in ranges:
        start, end = sorted((a % (size + 1), b % (size + 1)))
        got = cache.read_range(address, start, end, size)
        want = model[start:end]
        assert got.size == end - start
        if -1 in want:
            assert got.content is None
        if got.content is not None:
            assert list(got.content) == want
        if whole.content is not None:  # an all-real entry reads back exactly
            assert got.content == whole.slice(start, end).content


PIECES = st.lists(
    st.one_of(st.binary(min_size=1, max_size=40), st.integers(1, 40)),
    min_size=1,
    max_size=8,
)
RANGES = st.lists(st.tuples(st.integers(0, 400), st.integers(0, 400)), max_size=8)


class TestReadRange:
    def test_tail_range_of_a_real_entry(self, cache):
        data = bytes(range(100))  # 7 blocks, two buffers
        address = cache.insert(Payload.of(data))
        assert cache.read_range(address, 90, 100, 100).content == data[90:]
        assert cache.read_range(address, 10, 50, 100).content == data[10:50]
        assert cache.read_range(address, 0, 100, 100).content == data
        assert cache.read_range(address, 37, 37, 100).size == 0

    def test_synthetic_range_has_size_only(self, cache):
        address, model = _entry(cache, [50, b"real", 50])
        got = cache.read_range(address, 3, 101, len(model))
        assert got.size == 98 and got.is_synthetic
        # A range inside all-real blocks keeps its content ...
        address, model = _entry(cache, [b"r" * 32, 40])
        assert cache.read_range(address, 8, 30, len(model)).content == b"r" * 22
        # ... and one reaching into the synthetic part does not.
        assert cache.read_range(address, 8, 33, len(model)).content is None

    def test_multi_fragment_block(self, cache):
        address, model = _entry(cache, [b"ab", b"cd", b"efg", b"h" * 20])
        assert len(cache._fragments[cache._prev[address]]) == 4
        _check_ranges(cache, address, model, [(0, 27), (1, 8), (3, 20), (15, 27)])

    def test_bad_range_rejected(self, cache):
        address = cache.insert(Payload.of(b"x" * 40))
        for start, end, length in [(-1, 5, 40), (5, 4, 40), (0, 41, 40)]:
            with pytest.raises(ReproError):
                cache.read_range(address, start, end, length)
        with pytest.raises(ReproError):  # the index claims more than is cached
            cache.read_range(address, 0, 10, 41 + 16)

    @pytest.mark.parametrize("synthetic", [False, True])
    def test_bad_address_anywhere_in_the_walk_rejected(self, cache, synthetic):
        """Every visited block is checked — also the ones walked after the
        result is already known to be synthetic."""
        piece = 64 if synthetic else b"x" * 64
        address, model = _entry(cache, [piece])  # 4 blocks
        chain = list(cache._chain(address))
        for broken, bogus in [(chain[1], 10_000), (chain[2], -7)]:
            saved = cache._prev[broken]
            cache._prev[broken] = bogus
            with pytest.raises(ReproError):
                cache.read_range(address, 0, 64, 64)
            cache._prev[broken] = saved
        assert cache.read_range(address, 0, 64, 64).size == 64
        cache._used[chain[3]] = False  # the first block, freed under the entry
        with pytest.raises(ReproError):
            cache.read_range(address, 0, 64, 64)
        assert cache.read_range(address, 16, 64, 64).size == 48  # never reaches it
        freed = cache.insert(Payload.of(b"y"))
        cache.delete(freed)
        for gone in (freed, 10_000, -2):
            with pytest.raises(ReproError):
                cache.read_range(gone, 0, 1, 1)

    @given(st.lists(st.tuples(PIECES, RANGES, st.booleans()), min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_property_matches_get_and_model(self, entries):
        """Real, synthetic and mixed entries, multi-fragment blocks, chains
        across buffers, blocks recycled by deletes in between."""
        cache = BlockCache(CacheSpec(block_size=8, blocks_per_buffer=4, max_buffers=64))
        live = []
        for pieces, ranges, delete in entries:
            address, model = _entry(cache, pieces)
            _check_ranges(cache, address, model, ranges)
            if delete:
                cache.delete(address)
            else:
                live.append((address, model, ranges))
        cache.check_invariants()
        for address, model, ranges in live:
            _check_ranges(cache, address, model, ranges)


class TestInvariants:
    def test_invariants_after_mixed_workload(self, cache):
        addresses = []
        for i in range(10):
            addresses.append(cache.insert(Payload.of(bytes([i]) * 20)))
        for address in addresses[::2]:
            cache.delete(address)
        for i in range(5):
            cache.insert(Payload.of(b"q" * 35))
        cache.check_invariants()

    @given(
        st.lists(
            st.tuples(st.sampled_from(["insert", "append", "delete"]),
                      st.integers(0, 60)),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_layout_matches_model(self, ops):
        """Property: cache contents match a plain dict model, and free
        lists/used blocks always partition every buffer (invariant 5)."""
        # 12 blocks up to the hard cap: most examples run into CacheFullError
        cache = BlockCache(CacheSpec(block_size=8, blocks_per_buffer=4, max_buffers=2))
        model = {}  # address -> bytes
        counter = 0
        for kind, size in ops:
            try:
                if kind == "insert" or not model:
                    data = bytes([counter % 256]) * size
                    counter += 1
                    address = cache.insert(Payload.of(data))
                    model[address] = data
                elif kind == "append":
                    address = sorted(model)[size % len(model)]
                    extra = bytes([counter % 256]) * (size % 17)
                    counter += 1
                    new_address = cache.append(address, Payload.of(extra))
                    model[new_address] = model.pop(address) + extra
                else:
                    address = sorted(model)[size % len(model)]
                    cache.delete(address)
                    del model[address]
            except CacheFullError:
                pass  # all-or-nothing: the model did not move either
            cache.check_invariants()
            # No block is held by anything but a live entry.
            assert cache.used_blocks == sum(
                max(1, -(-len(data) // 8)) for data in model.values()
            )
        for address, data in model.items():
            assert cache.get(address).content == data
