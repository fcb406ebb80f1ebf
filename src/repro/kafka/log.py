"""Kafka partition logs.

Each topic partition is an independent log *file* on the broker's drive —
the design property §5.6 probes: "high levels of write parallelism
directly translate into an equivalent number of log files writing to the
drive that can lead to degraded performance" (no multiplexing, unlike
Pravega's segment containers).

Durability: by default the broker acknowledges once the batch is in the
OS page cache (``flush.messages`` unset); with ``flush.messages=1`` every
append is fsync'd before acknowledging — the Fig. 5 "flush" variant.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.payload import Payload
from repro.sim.core import SimFuture, Simulator
from repro.sim.disk import Disk, PageCache
from repro.sim.resources import FifoServer

__all__ = ["LogRecordBatch", "PartitionLog"]

#: per-batch log overhead (batch header, CRC)
BATCH_OVERHEAD = 61

#: per-batch single-threaded append work (validation, offset/index update)
APPEND_OVERHEAD_TIME = 60e-6
#: effective bandwidth of one partition's append path (CRC + copy); the
#: partition is Kafka's unit of parallelism, so this caps single-partition
#: throughput (Figs. 5a/7a) while many partitions scale past it
APPEND_BANDWIDTH = 100e6
#: synchronous-flush barrier (ext4 journal commit + page flush wait) paid
#: inside the partition's append path when flush.messages=1: the log lock
#: is held until the flush returns, so appends to that partition serialize
#: behind every fsync (the Fig. 5 "flush" latency collapse)
FSYNC_BARRIER_TIME = 1.5e-3


@dataclass(slots=True)
class LogRecordBatch:
    base_offset: int
    record_count: int
    payload: Payload
    producer_id: str = ""
    #: producer sequence number for idempotence
    sequence: int = -1

    @property
    def last_offset(self) -> int:
        return self.base_offset + self.record_count - 1


class PartitionLog:
    """One replica of one partition: an append-only file of record batches."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        disk: Disk,
        page_cache: PageCache,
        flush_every_message: bool = False,
    ) -> None:
        self.sim = sim
        self.name = name
        self.disk = disk
        self.page_cache = page_cache
        self.flush_every_message = flush_every_message
        self._append_path = FifoServer(sim, name=f"append:{name}")
        self.batches: List[LogRecordBatch] = []
        #: parallel list of base offsets (bisect index for reads)
        self._base_offsets: List[int] = []
        #: log end offset (next record offset)
        self.leo = 0
        self.size_bytes = 0
        #: per-producer last sequence (idempotent producer dedup)
        self._producer_sequences: dict[str, int] = {}

    def append(self, batch_payload: Payload, record_count: int,
               producer_id: str = "", sequence: int = -1, span=None) -> SimFuture:
        """Append a record batch; resolves with the batch once on stable
        storage (flush) or in the page cache (no flush)."""
        if producer_id and sequence >= 0:
            last = self._producer_sequences.get(producer_id, -1)
            if sequence <= last:
                done = self.sim.future()
                done.set_result(None)  # duplicate: already appended
                if span is not None:
                    span.annotate("duplicate")
                    span.finish()
                return done
            self._producer_sequences[producer_id] = sequence
        batch = LogRecordBatch(
            base_offset=self.leo,
            record_count=record_count,
            payload=batch_payload,
            producer_id=producer_id,
            sequence=sequence,
        )
        self.batches.append(batch)
        self._base_offsets.append(batch.base_offset)
        self.leo += record_count
        wire = batch_payload.size + BATCH_OVERHEAD
        self.size_bytes += wire

        return self.sim.process(self._append(batch, wire, span))

    def _append(self, batch: LogRecordBatch, wire: int, span):
        # Single-threaded per-partition append path; with per-message
        # flushing the fsync barrier is paid under the log lock.
        service = APPEND_OVERHEAD_TIME + wire / APPEND_BANDWIDTH
        if self.flush_every_message:
            service += FSYNC_BARRIER_TIME
        yield self._append_path.delay(service)
        if self.flush_every_message:
            # The fsync barrier held under the log lock is flush work,
            # not queueing — attribute it to the fsync bucket.
            if span is not None:
                span.component("fsync", FSYNC_BARRIER_TIME)
                t_sync = self.sim.now
            # fsync before acknowledging (flush.messages=1).
            yield self.disk.write(self.name, wire, sync=True)
            if span is not None:
                span.component("fsync", self.sim.now - t_sync)
        else:
            yield self.page_cache.write(self.name, wire)
        if span is not None:
            span.finish()
        return batch

    def read(self, offset: int, max_batches: int = 64) -> List[LogRecordBatch]:
        """Record batches starting at ``offset`` (consumer fetch).

        Batches are offset-sorted, so the start position is found with a
        bisect instead of scanning the log from its beginning — tail
        fetches stay O(result) regardless of log length.
        """
        batches = self.batches
        index = bisect_right(self._base_offsets, offset) - 1
        if index < 0:
            index = 0
        result = []
        for i in range(index, len(batches)):
            batch = batches[i]
            if batch.last_offset < offset:
                continue
            result.append(batch)
            if len(result) >= max_batches:
                break
        return result

    def lose_unsynced_tail(self) -> int:
        """Discard the batches whose bytes were still dirty in the page
        cache (crash without flush, the Fig. 5 "no flush" power-loss
        outcome).  Returns the number of batches lost."""
        dirty = self.page_cache.drop_file(self.name)
        lost_bytes = 0
        lost = 0
        while self.batches and lost_bytes < dirty:
            batch = self.batches.pop()
            lost_bytes += batch.payload.size + BATCH_OVERHEAD
            lost += 1
        if lost:
            del self._base_offsets[len(self.batches):]
            self.leo = self.batches[-1].last_offset + 1 if self.batches else 0
            self.size_bytes = max(0, self.size_bytes - lost_bytes)
            # the producer-dedup table re-derives from the surviving log:
            # a lost batch's sequence must be appendable again on retry
            self._producer_sequences = {}
            for batch in self.batches:
                if batch.producer_id and batch.sequence >= 0:
                    self._producer_sequences[batch.producer_id] = batch.sequence
        return lost

    def truncate_to(self, offset: int) -> None:
        """Drop batches above ``offset`` (follower truncation on leader change)."""
        kept = [b for b in self.batches if b.last_offset < offset]
        removed = len(self.batches) - len(kept)
        if removed:
            self.batches = kept
            self._base_offsets = [b.base_offset for b in kept]
            self.leo = kept[-1].last_offset + 1 if kept else 0
