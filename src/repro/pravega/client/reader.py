"""The event stream reader (§3.3).

A reader pulls events from the segments its reader group assigned to it.
Reads are served by the segment store's read index: tail reads block
server-side until data arrives (low end-to-end latency, Fig. 8) and
historical reads transparently fetch from LTS (Fig. 12).  At the end of
a sealed segment the reader runs the successor protocol through the
reader group, which enforces the merge hold-back rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from repro.common.errors import ReaderError, SegmentError, StreamError
from repro.pravega.client.reader_group import ReaderGroup
from repro.pravega.client.serializers import (
    framed_size,
    unframe_events,
    unframe_fixed,
)
from repro.pravega.container.cache import CacheFullError
from repro.sim.core import SimFuture, Simulator
from repro.sim.resources import Store

__all__ = ["ReaderConfig", "EventBatch", "EventStreamReader"]


@dataclass(frozen=True)
class ReaderConfig:
    #: maximum bytes per segment read request
    read_size: int = 256 * 1024
    #: for synthetic (size-only) payloads: the fixed application event size
    fixed_event_size: Optional[int] = None
    #: how often an idle reader re-checks for acquirable segments (seconds)
    acquire_interval: float = 0.1


@dataclass(slots=True)
class EventBatch:
    """What one segment read yielded."""

    segment_number: int
    first_offset: int
    #: concrete events (real content mode); empty in synthetic mode
    events: List[bytes] = field(default_factory=list)
    #: number of events (both modes)
    event_count: int = 0
    #: framed bytes consumed from the segment
    byte_count: int = 0
    #: simulated time the data was received
    read_time: float = 0.0


class EventStreamReader:
    """One reader within a reader group."""

    def __init__(
        self,
        sim: Simulator,
        reader_id: str,
        group: ReaderGroup,
        stores: Dict[str, "SegmentStore"],  # noqa: F821 - avoid import cycle
        host: str,
        config: Optional[ReaderConfig] = None,
    ) -> None:
        self.sim = sim
        self.reader_id = reader_id
        self.group = group
        self._stores = stores
        self.host = host
        self.config = config or ReaderConfig()
        #: segment number -> (qualified name, store host)
        self._segments: Dict[int, tuple] = {}
        self._offsets: Dict[int, int] = {}
        #: partial frame bytes per segment (real content mode)
        self._remainders: Dict[int, bytes] = {}
        #: partial frame byte counts per segment (synthetic mode)
        self._synthetic_remainders: Dict[int, int] = {}
        self._round_robin: List[int] = []
        #: one outstanding read per segment: number -> (offset, future)
        self._outstanding: Dict[int, tuple] = {}
        #: per-segment completion callbacks, bound once per segment number
        self._completions: Dict[int, object] = {}
        #: completion queue of segment numbers with finished reads
        self._ready = Store(sim)
        self.events_read = 0
        self.bytes_read = 0
        self._joined = False

    # ------------------------------------------------------------------
    def join(self) -> SimFuture:
        def run():
            yield self.group.add_reader(self.reader_id)
            self._joined = True
            yield from self._acquire()

        return self.sim.process(run())

    def _acquire(self):
        acquired = yield self.group.acquire_segments(self.reader_id)
        for number, offset in acquired.items():
            location = yield self.group.controller.get_location(
                self.group.scope, self.group.stream, number
            )
            self._segments[number] = (location.qualified_name, location.store_host)
            self._offsets[number] = offset
            self._remainders[number] = b""
            self._round_robin.append(number)
        return acquired

    @property
    def assigned_segments(self) -> List[int]:
        return sorted(self._segments)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read_next(self) -> SimFuture:
        """Read the next batch of events from any assigned segment.

        Keeps one outstanding read per assigned segment (tail reads block
        server-side until data arrives) and returns whichever completes
        first; when a segment ends, runs the successor protocol and moves
        on.  Resolves with an :class:`EventBatch`.
        """
        if not self._joined:
            raise ReaderError(f"{self.reader_id} has not joined the group")
        return self.sim.process(self._read_next())

    def _read_next(self):
        segments = self._segments
        outstanding = self._outstanding
        completions = self._completions
        offsets = self._offsets
        stores = self._stores
        host = self.host
        read_size = self.config.read_size
        ready_get = self._ready.get
        while True:
            if not segments:
                yield self.sim.timeout(self.config.acquire_interval)
                yield from self._acquire()
                continue
            # Ensure one outstanding read per assigned segment.
            for number, (qualified, store_host) in segments.items():
                if number in outstanding:
                    continue
                offset = offsets[number]
                read = stores[store_host].rpc_read(host, qualified, offset, read_size)
                outstanding[number] = (offset, read)
                callback = completions.get(number)
                if callback is None:
                    callback = completions[number] = partial(self._note_ready, number)
                read.add_callback(callback)
            number = yield ready_get()
            if number not in outstanding:
                continue  # stale completion (segment released)
            offset, fut = outstanding.pop(number)
            if number not in segments:
                continue  # segment was released while the read was out
            try:
                result = fut.value
            except (SegmentError, StreamError, CacheFullError) as exc:
                raise ReaderError(f"read segment {number}@{offset}: {exc}") from exc
            if result.end_of_segment:
                yield from self._complete_segment(number)
                continue
            batch = self._decode(number, offset, result.payload)
            offsets[number] = offset + result.payload.size
            if batch.event_count == 0:
                # Only a partial frame arrived; keep reading.
                continue
            self.events_read += batch.event_count
            self.bytes_read += batch.byte_count
            return batch

    def _note_ready(self, number: int, _future) -> None:
        self._ready.put(number)

    def _decode(self, number: int, offset: int, payload) -> EventBatch:
        batch = EventBatch(
            segment_number=number,
            first_offset=offset,
            read_time=self.sim.now,
            byte_count=payload.size,
        )
        if payload.content is not None:
            buffer = self._remainders.get(number, b"") + payload.content
            events, consumed = unframe_events(buffer)
            self._remainders[number] = buffer[consumed:]
            batch.events = events
            batch.event_count = len(events)
        else:
            if self.config.fixed_event_size is None:
                raise ReaderError(
                    "synthetic payloads need ReaderConfig.fixed_event_size"
                )
            leftover = self._synthetic_remainders.get(number, 0)
            total = leftover + payload.size
            count, consumed = unframe_fixed(total, self.config.fixed_event_size)
            self._synthetic_remainders[number] = total - consumed
            batch.event_count = count
        return batch

    def _complete_segment(self, number: int):
        """End of a sealed segment: run the successor protocol (§3.3)."""
        self._segments.pop(number, None)
        self._offsets.pop(number, None)
        self._remainders.pop(number, None)
        self._synthetic_remainders.pop(number, None)
        self._outstanding.pop(number, None)
        if number in self._round_robin:
            self._round_robin.remove(number)
        yield self.group.segment_completed(self.reader_id, number)
        yield from self._acquire()

    # ------------------------------------------------------------------
    def checkpoint_positions(self) -> SimFuture:
        """Persist current offsets into the group state."""

        def run():
            for number, offset in list(self._offsets.items()):
                yield self.group.update_position(self.reader_id, number, offset)

        return self.sim.process(run())

    def release_all(self) -> SimFuture:
        """Give every assigned segment back to the group."""

        def run():
            for number in list(self._segments):
                offset = self._offsets.get(number, 0)
                yield self.group.release_segment(self.reader_id, number, offset)
                self._segments.pop(number, None)
                self._offsets.pop(number, None)
                self._remainders.pop(number, None)
                self._synthetic_remainders.pop(number, None)
                pending = self._outstanding.pop(number, None)
                if pending is not None:
                    _, read = pending
                    # Cancel the parked server-side read so the container
                    # drops this reader from its tail wakeup list instead
                    # of pinning the payload until the next append.
                    interrupt = getattr(read, "interrupt", None)
                    if interrupt is not None and not read.done:
                        interrupt()
                if number in self._round_robin:
                    self._round_robin.remove(number)

        return self.sim.process(run())
