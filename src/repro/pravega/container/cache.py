"""The segment store's block cache (§4.2, Fig. 4).

Designed from scratch for append-heavy streaming workloads: traditional
caches treat each entry as an immutable blob, so appending an event would
need either its own entry or a read-modify-write.  Instead:

* The cache is divided into equal-sized **cache blocks**, each uniquely
  addressable with a 32-bit pointer.
* Blocks are **daisy-chained** to form cache entries; each block points to
  the block immediately *before* it in the chain, and the address of an
  entry is the address of its **last** block — so an append can locate the
  tail in O(1) and either fill remaining capacity in place or link a fresh
  block.
* Blocks live in pre-allocated **cache buffers** (e.g. a 2 MB buffer holds
  512 4 KB blocks); empty blocks are chained in a per-buffer free list
  (small concurrency domain), and a queue of buffers-with-available-blocks
  provides O(1) allocation across buffers.

Block content here is tracked as :class:`Payload` fragments per block, so
the layout arithmetic (fills, chains, free lists) is exactly the paper's
while synthetic benchmark payloads cost no real memory.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List, Optional

from repro.common.errors import ReproError
from repro.common.payload import Payload

__all__ = ["CacheSpec", "BlockCache", "CacheFullError", "NO_ADDRESS"]

NO_ADDRESS = -1


def _add_fragment(fragments: List[Payload], piece: Payload) -> None:
    """Append ``piece`` to a block's fragment list, coalescing synthetic
    runs: two adjacent content-free fragments are indistinguishable from
    one of the combined size, so benchmark blocks hold a single fragment
    instead of one per append (which made reconstruction O(appends))."""
    if fragments:
        last = fragments[-1]
        if last.content is None and piece.content is None:
            fragments[-1] = Payload._trusted(last.size + piece.size, None)
            return
    fragments.append(piece)


class CacheFullError(ReproError):
    """No free blocks remain; the caller should evict and retry."""


@dataclass(frozen=True)
class CacheSpec:
    block_size: int = 4096
    blocks_per_buffer: int = 512  # 2 MB buffers
    max_buffers: int = 64  # 128 MB cache by default
    #: buffers may temporarily overflow the target by this factor so that
    #: appends of not-yet-tiered (pinned, unevictable) data never fail;
    #: the container throttles admission while the cache is overflowing
    overflow_factor: float = 1.5

    @property
    def max_blocks(self) -> int:
        return self.blocks_per_buffer * self.max_buffers

    @property
    def hard_max_buffers(self) -> int:
        return max(int(self.max_buffers * self.overflow_factor), self.max_buffers + 1)

    @property
    def capacity_bytes(self) -> int:
        return self.max_blocks * self.block_size


class BlockCache:
    """The Fig. 4 cache: buffers of daisy-chained blocks.

    An address is ``buffer * blocks_per_buffer + block``.  Block metadata
    lives in flat columns indexed by address, grown one buffer at a time,
    so a chain walk is list indexing with no per-block address arithmetic;
    the free lists stay per buffer (Fig. 4's small concurrency domains).
    """

    def __init__(self, spec: Optional[CacheSpec] = None) -> None:
        self.spec = spec or CacheSpec()
        self._hard_max_blocks = self.spec.hard_max_buffers * self.spec.blocks_per_buffer
        self._used: List[bool] = []
        self._length: List[int] = []
        #: the block before this one in its entry's chain
        self._prev: List[int] = []
        self._fragments: List[Optional[List[Payload]]] = []
        #: the next free block of the same buffer
        self._next_free: List[int] = []
        #: per buffer: first free block and number of free blocks
        self._free_head: List[int] = []
        self._free_count: List[int] = []
        #: queue of buffer indices that have free blocks (Fig. 4's
        #: "queue of cache buffers with available blocks")
        self._available: Deque[int] = deque()
        self._used_blocks = 0
        self.inserts = 0
        self.appends = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    @property
    def used_blocks(self) -> int:
        return self._used_blocks

    @property
    def used_bytes(self) -> int:
        return self._used_blocks * self.spec.block_size

    @property
    def free_blocks(self) -> int:
        return self.spec.max_blocks - self._used_blocks

    @property
    def overflowing(self) -> bool:
        """Above the target capacity (ingestion should be throttled)."""
        return self._used_blocks > self.spec.max_blocks

    def _reserve(self, size: int) -> None:
        """Raise unless fresh blocks for ``size`` more bytes fit under the
        hard cap.  Insert and append call this before they touch anything,
        which is what makes them all-or-nothing."""
        blocks = -(-size // self.spec.block_size)
        if self._used_blocks + blocks > self._hard_max_blocks:
            raise CacheFullError(
                f"cache full: {self._used_blocks} blocks + {blocks} wanted "
                f"(target {self.spec.max_blocks}, hard cap reached)"
            )

    def _allocate_block(self, prev: int) -> int:
        """Take an empty block off the first available buffer's free list
        (a new buffer when none has one) and chain it after ``prev``."""
        available = self._available
        if not available:
            blocks = self.spec.blocks_per_buffer
            base = len(self._used)
            self._used += [False] * blocks
            self._length += [0] * blocks
            self._prev += [NO_ADDRESS] * blocks
            self._fragments += [None] * blocks
            self._next_free += range(base + 1, base + blocks)
            self._next_free.append(NO_ADDRESS)
            available.append(len(self._free_head))
            self._free_head.append(base)
            self._free_count.append(blocks)
        buffer = available[0]
        address = self._free_head[buffer]
        self._free_head[buffer] = self._next_free[address]
        self._next_free[address] = NO_ADDRESS
        self._free_count[buffer] -= 1
        if not self._free_count[buffer]:
            available.popleft()
        self._used[address] = True
        self._prev[address] = prev
        self._fragments[address] = []
        self._used_blocks += 1
        return address

    def _release_block(self, address: int) -> None:
        buffer = address // self.spec.blocks_per_buffer
        self._used[address] = False
        self._length[address] = 0
        self._prev[address] = NO_ADDRESS
        self._fragments[address] = None
        self._next_free[address] = self._free_head[buffer]
        self._free_head[buffer] = address
        if not self._free_count[buffer]:
            self._available.append(buffer)
        self._free_count[buffer] += 1
        self._used_blocks -= 1

    def _bad_address(self, address: int) -> ReproError:
        if 0 <= address < len(self._used):
            return ReproError(f"cache address {address} points at a free block")
        return ReproError(f"bad cache address {address}")

    def _chain(self, address: int) -> Iterator[int]:
        """The entry's block addresses, last block first; every block is
        checked to be in range and in use.  The consumer may free the block
        it was just handed."""
        used = self._used
        while address != NO_ADDRESS:
            if not (0 <= address < len(used) and used[address]):
                raise self._bad_address(address)
            previous = self._prev[address]
            yield address
            address = previous

    # ------------------------------------------------------------------
    # Entry operations
    # ------------------------------------------------------------------
    def insert(self, payload: Payload) -> int:
        """Store a new entry; returns its address (the last block's).

        Raises :class:`CacheFullError`, leaving the cache untouched, when
        the entry does not fit."""
        self._reserve(max(payload.size, 1))  # an empty entry holds a block
        self.inserts += 1
        return self._extend(self._allocate_block(NO_ADDRESS), payload)

    def append(self, address: int, payload: Payload) -> int:
        """Append to an existing entry; returns the (possibly new) address.

        O(1) to locate the tail: the entry's address *is* its last block.
        Raises :class:`CacheFullError`, leaving the entry untouched, when
        the blocks past the tail's remaining capacity do not fit.
        """
        if not (0 <= address < len(self._used) and self._used[address]):
            raise self._bad_address(address)
        overflow = payload.size + self._length[address] - self.spec.block_size
        if overflow > 0:
            self._reserve(overflow)
        self.appends += 1
        return self._extend(address, payload)

    def _extend(self, address: int, payload: Payload) -> int:
        """Fill the remaining capacity of block ``address`` in place, then
        chain fresh blocks for the rest; returns the last block."""
        block_size = self.spec.block_size
        size = payload.size
        offset = min(block_size - self._length[address], size)
        if offset > 0:
            head = payload if offset == size else payload.slice(0, offset)
            _add_fragment(self._fragments[address], head)
            self._length[address] += offset
        while offset < size:
            address = self._allocate_block(address)
            take = min(block_size, size - offset)
            self._fragments[address].append(payload.slice(offset, offset + take))
            self._length[address] = take
            offset += take
        return address

    def get(self, address: int) -> Payload:
        """Reconstruct the whole entry by walking the chain backwards."""
        pieces: List[Payload] = []
        for current in self._chain(address):
            frags = self._fragments[current]
            pieces.append(frags[0] if len(frags) == 1 else Payload.concat(frags))
        pieces.reverse()
        return Payload.concat(pieces)

    def read_range(self, address: int, start: int, end: int, length: int) -> Payload:
        """Bytes ``[start, end)`` of the entry at ``address``, whose total
        size is ``length``.

        The chain is addressed from its *last* block, so the walk visits
        only the suffix overlapping the range — a tail read of an entry
        touches O(range / block_size) blocks instead of reconstructing
        the whole entry as :meth:`get` + slice would.  Like
        :meth:`Payload.concat`, the result is synthetic as soon as one
        overlapping block holds a synthetic fragment; from there on the
        walk only checks the blocks it passes.
        """
        if not (0 <= start <= end <= length):
            raise ReproError(f"bad range [{start}, {end}) of {length} bytes")
        if start == end:
            return Payload.empty()
        used = self._used
        lengths = self._length
        previous = self._prev
        limit = len(used)
        chunks: List[bytes] = []
        synthetic = False
        block_end = length
        while block_end > start:
            if not (0 <= address < limit and used[address]):
                if address == NO_ADDRESS:
                    raise ReproError(f"entry is shorter than {length} bytes")
                raise self._bad_address(address)
            blen = lengths[address]
            block_start = block_end - blen
            if blen and block_start < end and not synthetic:
                frags = self._fragments[address]
                frag = frags[0] if len(frags) == 1 else Payload.concat(frags)
                chunk = frag.content
                if chunk is None:
                    synthetic = True
                else:
                    lo = start - block_start if start > block_start else 0
                    chunks.append(chunk[lo : end - block_start])
            address = previous[address]
            block_end = block_start
        chunks.reverse()
        return Payload._trusted(end - start, None if synthetic else b"".join(chunks))

    def entry_size(self, address: int) -> int:
        return sum(self._length[current] for current in self._chain(address))

    def delete(self, address: int) -> int:
        """Free every block of the entry; returns bytes released."""
        released = 0
        for current in self._chain(address):
            released += self._length[current]
            self._release_block(current)
        self.evictions += 1
        return released

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Free lists and used blocks partition each buffer; the buffer
        queue holds exactly the buffers with a free block."""
        blocks = self.spec.blocks_per_buffer
        for buffer, free_count in enumerate(self._free_count):
            base = buffer * blocks
            free_seen = set()
            cursor = self._free_head[buffer]
            while cursor != NO_ADDRESS:
                assert base <= cursor < base + blocks, "free list left its buffer"
                assert cursor not in free_seen, "free list cycle"
                assert not self._used[cursor], "used block on free list"
                free_seen.add(cursor)
                cursor = self._next_free[cursor]
            assert len(free_seen) == free_count
            assert sum(self._used[base : base + blocks]) + free_count == blocks
        assert sum(self._used) == self._used_blocks
        assert sorted(self._available) == [
            buffer for buffer, free in enumerate(self._free_count) if free
        ]
