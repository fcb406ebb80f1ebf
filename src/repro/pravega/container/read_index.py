"""The read index (§4.2).

"The read index is an essential component of the segment container that
provides a complete view of all the data in a segment, both from WAL and
LTS, without the reader having to know where such data resides."  Its
main data structure is a sorted index of entries per segment, indexed by
start offset and implemented with an AVL tree; entries carry the cache
address of their data plus usage metadata that drives eviction.

A read at the current end of a segment returns a *tail-read future* that
completes when new data is appended — the mechanism behind low-latency
tail reads (Fig. 8).

The :class:`CacheManager` evicts by generation, Pravega's native
scheme (DESIGN.md §13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.avl import AvlTree
from repro.common.payload import Payload
from repro.pravega.container.cache import BlockCache, CacheFullError, NO_ADDRESS

__all__ = ["IndexEntry", "SegmentReadIndex", "CacheManager"]

#: an index entry stops growing past this size so eviction stays granular
MAX_ENTRY_BYTES = 1024 * 1024


@dataclass(slots=True)
class IndexEntry:
    """One contiguous run of segment bytes resident in the cache."""

    start_offset: int
    length: int
    cache_address: int
    #: cache-manager generation of the last access
    generation: int = 0

    @property
    def end_offset(self) -> int:
        return self.start_offset + self.length


class SegmentReadIndex:
    """Per-segment sorted index over cached data runs."""

    def __init__(self, segment: str, cache: BlockCache, manager: "CacheManager") -> None:
        self.segment = segment
        self.cache = cache
        self.manager = manager
        self._entries: AvlTree[int, IndexEntry] = AvlTree()
        #: highest offset covered by a contiguous tail of appends
        self._append_offset: Optional[int] = None
        self._tail_entry: Optional[IndexEntry] = None
        manager.register(self)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def append(self, offset: int, payload: Payload) -> None:
        """Record freshly appended segment bytes at ``offset``.

        Contiguous appends extend the current tail entry via the O(1)
        cache append; a new entry starts when the tail entry is full.
        Appended data is the tail working set: always admitted.
        """
        if payload.size == 0:
            return
        mgr = self.manager
        tail = self._tail_entry
        if (
            tail is not None
            and tail.end_offset == offset
            and tail.length + payload.size <= MAX_ENTRY_BYTES
        ):
            tail.cache_address = self.cache.append(tail.cache_address, payload)
            tail.length += payload.size
            tail.generation = mgr.current_generation
        else:
            entry = IndexEntry(offset, payload.size, self.cache.insert(payload))
            entry.generation = mgr.current_generation
            self._entries.insert(offset, entry)
            self._tail_entry = entry
        self._append_offset = offset + payload.size

    def insert_fetched(self, offset: int, payload: Payload) -> None:
        """Insert data fetched from LTS (brought into the cache on read).

        Only the sub-ranges of ``[offset, offset + size)`` not already
        indexed are inserted — an append entry may straddle the chunk's
        start or begin inside it — so afterwards every byte of the range
        is readable and no two entries overlap.  A repeated call (the
        caller's retry after ``CacheFullError``) fills what is left.
        """
        end = offset + payload.size
        covering = self._floor_covering(offset)
        cursor = offset if covering is None else covering.end_offset
        gaps: List[Tuple[int, int]] = []
        if cursor < end:
            for start, entry in self._entries.items_from(cursor):
                if start >= end:
                    break
                if start > cursor:
                    gaps.append((cursor, start))
                cursor = entry.end_offset
            if cursor < end:
                gaps.append((cursor, end))
        mgr = self.manager
        for lo, hi in gaps:
            piece = (
                payload
                if hi - lo == payload.size
                else payload.slice(lo - offset, hi - offset)
            )
            entry = IndexEntry(lo, hi - lo, self.cache.insert(piece))
            entry.generation = mgr.current_generation
            self._entries.insert(lo, entry)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _floor_covering(self, offset: int) -> Optional[IndexEntry]:
        self.manager.avl_probes += 1
        found = self._entries.floor(offset)
        if found is None:
            return None
        entry = found[1]
        return entry if entry.start_offset <= offset < entry.end_offset else None

    def read_cached(self, offset: int, max_bytes: int) -> Optional[Payload]:
        """Contiguous cached data at ``offset`` (up to ``max_bytes``),
        or None if the first byte is not cached.

        Tail reads — by far the common case for streaming consumers —
        resolve against the O(1) tail entry without touching the AVL
        tree; ``CacheManager.tail_read_hits`` / ``avl_probes`` account
        for which path served each lookup.  The single-entry case (all
        tail reads, and every read inside one cached run) returns its
        payload slice directly without building a piece list.
        """
        mgr = self.manager
        tail = self._tail_entry
        if tail is not None and tail.start_offset <= offset < tail.end_offset:
            entry: Optional[IndexEntry] = tail
            mgr.tail_read_hits += 1
        else:
            entry = self._floor_covering(offset)
            if entry is None:
                return None
        entry.generation = mgr.current_generation
        start = offset - entry.start_offset
        end = min(entry.length, start + max_bytes)
        piece = self.cache.read_range(entry.cache_address, start, end, entry.length)
        taken = end - start
        if taken >= max_bytes or end < entry.length or entry is self._tail_entry:
            return piece
        cursor = entry.start_offset + end
        nxt = self._entries.ceiling(cursor)
        entry = nxt[1] if nxt is not None and nxt[1].start_offset == cursor else None
        if entry is None:
            return piece
        pieces: List[Payload] = [piece]
        while entry is not None and taken < max_bytes:
            entry.generation = mgr.current_generation
            start = cursor - entry.start_offset
            end = min(entry.length, start + (max_bytes - taken))
            pieces.append(
                self.cache.read_range(entry.cache_address, start, end, entry.length)
            )
            taken += end - start
            cursor = entry.start_offset + end
            if end < entry.length:
                break
            if entry is self._tail_entry:
                break  # nothing follows the tail entry
            nxt = self._entries.ceiling(cursor)
            entry = nxt[1] if nxt is not None and nxt[1].start_offset == cursor else None
        return Payload.concat(pieces)

    def cached_range_end(self, offset: int) -> Optional[int]:
        """End of the contiguous cached run containing ``offset``, or None."""
        entry = self._floor_covering(offset)
        return entry.end_offset if entry is not None else None

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def evictable_entries(self, flushed_below: int) -> List[IndexEntry]:
        """Entries safe to evict: fully persisted to LTS already."""
        candidates = []
        for _, entry in self._entries.items():
            if entry.end_offset <= flushed_below and entry is not self._tail_entry:
                candidates.append(entry)
        return candidates

    def evict_entry(self, entry: IndexEntry) -> int:
        self._entries.delete(entry.start_offset)
        if self._tail_entry is entry:
            self._tail_entry = None
        return self.cache.delete(entry.cache_address)

    def drop_all(self) -> None:
        """Release every cache block (segment deleted / container shutdown)."""
        for _, entry in list(self._entries.items()):
            self.cache.delete(entry.cache_address)
        self._entries = AvlTree()
        self._tail_entry = None

    def truncate_below(self, offset: int) -> int:
        """Evict entries entirely below ``offset`` (segment truncation)."""
        released = 0
        for _, entry in list(self._entries.items()):
            if entry.end_offset <= offset:
                released += self.evict_entry(entry)
        return released

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    def check_invariants(self) -> None:
        """Entries are sorted, non-overlapping, sizes match the cache."""
        previous_end = -1
        for key, entry in self._entries.items():
            assert key == entry.start_offset
            assert entry.start_offset >= previous_end, "overlapping entries"
            assert self.cache.entry_size(entry.cache_address) == entry.length
            previous_end = entry.end_offset


class CacheManager:
    """Eviction across all read indexes of a container.

    Mirrors Pravega's cache manager: every access stamps the entry with
    the current generation; when utilization crosses the target, the
    oldest evictable entries are freed first.
    """

    def __init__(self, cache: BlockCache, target_utilization: float = 0.85) -> None:
        self.cache = cache
        self.target_utilization = target_utilization
        self.current_generation = 0
        #: lookups served by the O(1) tail entry (no tree probe)
        self.tail_read_hits = 0
        #: lookups that went through an AVL floor probe
        self.avl_probes = 0
        #: entries evicted
        self.evicted_entries = 0
        self._indexes: List[SegmentReadIndex] = []
        #: optional metrics Counter mirroring ``evicted_entries``
        self.eviction_counter = None
        #: callback answering "flushed-to-LTS offset" per segment name
        self.flushed_offset_provider = lambda segment: 0

    def register(self, index: SegmentReadIndex) -> None:
        self._indexes.append(index)

    def unregister(self, index: SegmentReadIndex) -> None:
        if index in self._indexes:
            self._indexes.remove(index)

    def advance_generation(self) -> None:
        self.current_generation += 1

    @property
    def utilization(self) -> float:
        capacity = self.cache.spec.max_blocks
        return self.cache.used_blocks / capacity if capacity else 0.0

    def maybe_evict(self) -> int:
        """Evict entries until below target utilization.

        Entries go oldest generation first.  Entries touched in the
        *current* generation are never evicted: they are being actively
        served (a fetch must not evict the chunk it just brought in).
        """
        if self.utilization <= self.target_utilization:
            return 0
        current = self.current_generation
        candidates: List[Tuple[int, SegmentReadIndex, IndexEntry]] = []
        for index in self._indexes:
            flushed = self.flushed_offset_provider(index.segment)
            for entry in index.evictable_entries(flushed):
                if entry.generation >= current:
                    continue
                candidates.append((entry.generation, index, entry))
        candidates.sort(key=lambda item: item[0])
        released = 0
        evicted = 0
        for _, index, entry in candidates:
            if self.utilization <= self.target_utilization:
                break
            evicted += 1
            released += index.evict_entry(entry)
        if evicted:
            self.evicted_entries += evicted
            if self.eviction_counter is not None:
                self.eviction_counter.add(evicted)
        return released

    def make_room(self) -> bool:
        """Emergency eviction when an insert hits CacheFullError."""
        before = self.cache.used_blocks
        saved_target = self.target_utilization
        self.target_utilization = self.utilization / 2.0
        try:
            self.maybe_evict()
        finally:
            self.target_utilization = saved_target
        return self.cache.used_blocks < before
