"""The storage writer: integrated tiering to LTS (§4.3).

"The storage writer is the component in charge of de-multiplexing the
operations written to WAL, grouping them by segment, and applying them in
LTS.  To maximize throughput, it buffers small appends into larger writes
to LTS.  Once the storage writer flushes a set of operations to LTS, it
notifies the segment container that the WAL log can be truncated up to
that point."

Storage tiering is *integrated into the write path*: "If LTS is not
available or is temporarily slow, Pravega can throttle writers to prevent
backlogs of data from growing indefinitely" — the mechanism behind the
single-segment 10 KB result of Fig. 7a (writers capped at LTS bandwidth)
and, by contrast, Pulsar's unbounded offload backlog in Fig. 12.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.common.errors import StorageError
from repro.common.payload import Payload
from repro.lts.base import LongTermStorage
from repro.sim.core import SimFuture, Simulator

__all__ = ["StorageWriterConfig", "ChunkRecord", "StorageWriter"]


@dataclass(frozen=True)
class StorageWriterConfig:
    #: flush a segment's buffer once it holds this many bytes
    flush_threshold: int = 4 * 1024 * 1024
    #: ... or once its oldest byte is this old (seconds)
    flush_timeout: float = 0.5
    #: throttle ingestion above this many unflushed bytes (high watermark)
    backlog_high_watermark: int = 64 * 1024 * 1024
    #: release throttled writers below this backlog (low watermark)
    backlog_low_watermark: int = 32 * 1024 * 1024


@dataclass(frozen=True)
class ChunkRecord:
    """LTS chunk metadata: a contiguous range of segment bytes (§4.3)."""

    chunk_name: str
    start_offset: int
    length: int

    @property
    def end_offset(self) -> int:
        return self.start_offset + self.length


@dataclass
class _PendingData:
    """Unflushed, WAL-acked appends of one segment."""

    start_offset: int = 0
    pieces: List[Payload] = field(default_factory=list)
    size: int = 0
    #: WAL sequence numbers covered by this buffer
    sequences: List[int] = field(default_factory=list)
    oldest_time: float = 0.0
    flush_in_progress: bool = False


class StorageWriter:
    """Per-container tiering engine."""

    def __init__(
        self,
        sim: Simulator,
        container_id: int,
        lts: LongTermStorage,
        config: Optional[StorageWriterConfig] = None,
        faults=None,
    ) -> None:
        self.sim = sim
        self.container_id = container_id
        self.lts = lts
        self.config = config or StorageWriterConfig()
        #: fault-injection hook (repro.faults.FaultEngine); unwired by default
        self.faults = faults
        #: optional repro.obs.Tracer; traces LTS chunk writes when set
        self.tracer = None
        self._pending: Dict[str, _PendingData] = {}
        #: sum of ``size`` over ``_pending``, kept at every mutation site
        #: (the throttle gate reads it twice per append)
        self._backlog_bytes = 0
        #: segments with a flush loop currently running (one per segment)
        self._flushing: set[str] = set()
        #: flushed-to offset per segment (persisted via container checkpoints)
        self.chunks: Dict[str, List[ChunkRecord]] = {}
        self.storage_length: Dict[str, int] = {}
        #: sealed-in-storage marker per segment
        self._sealed: Dict[str, bool] = {}
        self._throttle_waiters: Deque[SimFuture] = deque()
        #: outstanding WAL sequences not yet flushed (for truncation)
        self._outstanding: Dict[int, bool] = {}
        self.on_flush: Callable[[str, int], None] = lambda segment, offset: None
        self.on_truncation_candidate: Callable[[int], None] = lambda seq: None
        #: extra ingest backlog to count against the watermarks (bytes the
        #: container has admitted to the WAL but not yet handed to us)
        self.external_backlog_provider: Callable[[], int] = lambda: 0
        self.chunks_written = 0
        self.bytes_flushed = 0
        self._running = True

    # ------------------------------------------------------------------
    # Ingest side (called by the container when append ops are applied)
    # ------------------------------------------------------------------
    def track_segment(self, segment: str, storage_length: int = 0) -> None:
        self.chunks.setdefault(segment, [])
        self.storage_length.setdefault(segment, storage_length)

    def add(self, segment: str, offset: int, payload: Payload, sequence: int) -> None:
        """Buffer a WAL-acked append for flushing to LTS."""
        self.track_segment(segment)
        pending = self._pending.get(segment)
        if pending is None:
            pending = _PendingData(start_offset=offset, oldest_time=self.sim.now)
            self._pending[segment] = pending
            self.sim.process(self._age_timer(segment, pending))
        pending.pieces.append(payload)
        pending.size += payload.size
        self._backlog_bytes += payload.size
        pending.sequences.append(sequence)
        self._outstanding[sequence] = True
        if pending.size >= self.config.flush_threshold:
            self._start_flush(segment)

    def note_non_append(self, sequence: int) -> None:
        """Non-append operations need no LTS flush; they never block truncation."""
        # Intentionally not tracked in _outstanding.

    @property
    def backlog_bytes(self) -> int:
        return self._backlog_bytes

    @property
    def total_backlog_bytes(self) -> int:
        return self._backlog_bytes + self.external_backlog_provider()

    @property
    def throttled(self) -> bool:
        return self.total_backlog_bytes >= self.config.backlog_high_watermark

    def admission_gate(self) -> SimFuture:
        """A future that resolves when ingestion may proceed.

        Resolves immediately below the high watermark; otherwise the caller
        (the container's append admission) waits until the backlog drains
        below the low watermark — this is writer throttling (§4.3).
        """
        fut = self.sim.future()
        if not self.throttled:
            fut.set_result(None)
        else:
            self._throttle_waiters.append(fut)
        return fut

    def release_check(self) -> None:
        """Re-evaluate the throttle gate (called when any backlog shrinks)."""
        self._release_throttled()

    def _release_throttled(self) -> None:
        if self.total_backlog_bytes <= self.config.backlog_low_watermark:
            while self._throttle_waiters:
                self._throttle_waiters.popleft().set_result(None)

    # ------------------------------------------------------------------
    # Flush side
    # ------------------------------------------------------------------
    def _age_timer(self, segment: str, pending: _PendingData):
        yield self.sim.timeout(self.config.flush_timeout)
        if self._pending.get(segment) is pending:
            self._start_flush(segment)

    def _start_flush(self, segment: str) -> None:
        if segment in self._flushing or not self._running:
            return
        if segment not in self._pending:
            return
        self._flushing.add(segment)
        self.sim.process(self._flush_loop(segment))

    def _flush_loop(self, segment: str):
        """Write the segment's buffered data to LTS as chunks, repeatedly,
        until the buffer drains or falls below the threshold while young.
        One flush loop at a time per segment (chunk offsets must stay
        sequential); chunks of different segments flush in parallel."""
        try:
            while True:
                pending = self._pending.pop(segment, None)
                if pending is None or pending.size == 0:
                    return
                self._backlog_bytes -= pending.size
                # The buffer was swapped out: appends arriving during the
                # flush accumulate into a fresh buffer.
                payload = Payload.concat(pending.pieces)
                chunk = ChunkRecord(
                    chunk_name=f"{segment}#chunk-{pending.start_offset}",
                    start_offset=pending.start_offset,
                    length=payload.size,
                )
                chunk_span = None
                if self.tracer is not None:
                    chunk_span = self.tracer.span(
                        "lts.chunk_write",
                        actor=f"container-{self.container_id}",
                        segment=segment,
                        chunk=chunk.chunk_name,
                        bytes=payload.size,
                    )
                try:
                    if self.faults is not None:
                        extra = self.faults.lts_op(f"container-{self.container_id}")
                        if extra:
                            yield self.sim.timeout(extra)
                    try:
                        yield self.lts.write_chunk(chunk.chunk_name, payload)
                    except StorageError:
                        if not self.lts.exists(chunk.chunk_name):
                            raise
                        # A pre-crash incarnation already wrote this chunk
                        # name: tiering is idempotent (§4.3), and the
                        # rewrite covers at least the old bytes (recovery
                        # re-feeds the same WAL data) — replace it.
                        if chunk_span is not None:
                            chunk_span.annotate("idempotent-rewrite")
                        yield self.lts.delete_chunk(chunk.chunk_name)
                        yield self.lts.write_chunk(chunk.chunk_name, payload)
                except Exception:
                    if chunk_span is not None:
                        chunk_span.annotate("lts-error")
                        chunk_span.finish()
                    # transient LTS failure: re-buffer and retry shortly
                    self._requeue(segment, pending)
                    if not self._running:
                        return
                    yield self.sim.timeout(0.05)
                    continue
                if chunk_span is not None:
                    chunk_span.finish()
                self.chunks.setdefault(segment, []).append(chunk)
                self.storage_length[segment] = chunk.end_offset
                self.chunks_written += 1
                self.bytes_flushed += payload.size
                for sequence in pending.sequences:
                    self._outstanding.pop(sequence, None)
                self.on_flush(segment, chunk.end_offset)
                self.on_truncation_candidate(self.truncation_sequence())
                self._release_throttled()
                follow_on = self._pending.get(segment)
                if follow_on is None:
                    return
                if (
                    follow_on.size < self.config.flush_threshold
                    and self.sim.now - follow_on.oldest_time < self.config.flush_timeout
                ):
                    return
        finally:
            self._flushing.discard(segment)

    def _requeue(self, segment: str, pending: _PendingData) -> None:
        """Put a failed flush buffer back, in front of any newer buffer."""
        self._backlog_bytes += pending.size
        follow_on = self._pending.get(segment)
        if follow_on is not None:
            pending.pieces.extend(follow_on.pieces)
            pending.size += follow_on.size
            pending.sequences.extend(follow_on.sequences)
        self._pending[segment] = pending

    def flush_all(self) -> SimFuture:
        """Force-flush every pending buffer (used by tests and shutdown)."""

        def run():
            while self._pending or self._flushing:
                for segment in list(self._pending):
                    self._start_flush(segment)
                yield self.sim.timeout(0.001)

        return self.sim.process(run())

    def truncation_sequence(self) -> int:
        """Highest WAL sequence with no unflushed append at or below it."""
        if not self._outstanding:
            return 2**62
        return min(self._outstanding) - 1

    # ------------------------------------------------------------------
    # Metadata / reads
    # ------------------------------------------------------------------
    def flushed_offset(self, segment: str) -> int:
        return self.storage_length.get(segment, 0)

    def chunks_for_range(self, segment: str, offset: int, max_bytes: int) -> List[ChunkRecord]:
        """Chunks overlapping [offset, offset+max_bytes), in order."""
        end = offset + max_bytes
        return [
            c
            for c in self.chunks.get(segment, [])
            if c.start_offset < end and c.end_offset > offset
        ]

    def truncate_segment(self, segment: str, offset: int) -> SimFuture:
        """Delete chunks entirely below ``offset`` (retention, §2.1)."""

        def run():
            kept = []
            for chunk in self.chunks.get(segment, []):
                if chunk.end_offset <= offset:
                    yield self.lts.delete_chunk(chunk.chunk_name)
                else:
                    kept.append(chunk)
            self.chunks[segment] = kept

        return self.sim.process(run())

    def delete_segment(self, segment: str) -> SimFuture:
        def run():
            for chunk in self.chunks.pop(segment, []):
                yield self.lts.delete_chunk(chunk.chunk_name)
            self.storage_length.pop(segment, None)
            dropped = self._pending.pop(segment, None)
            if dropped is not None:
                self._backlog_bytes -= dropped.size

        return self.sim.process(run())

    def snapshot(self) -> dict:
        """State for metadata checkpoints (recovery, §4.4)."""
        return {
            "chunks": {s: list(records) for s, records in self.chunks.items()},
            "storage_length": dict(self.storage_length),
        }

    def restore(self, snapshot: dict) -> None:
        self.chunks = {s: list(records) for s, records in snapshot["chunks"].items()}
        self.storage_length = dict(snapshot["storage_length"])

    def stop(self) -> None:
        self._running = False
        # Throttled writers must not hang on a dead container.
        from repro.common.errors import ContainerOfflineError

        while self._throttle_waiters:
            waiter = self._throttle_waiters.popleft()
            if not waiter.done:
                waiter.set_exception(
                    ContainerOfflineError(f"container {self.container_id} stopped")
                )
