"""The event stream writer (§3.2, §4.1) with dynamic batching.

"Conversely to other systems that batch data by holding it on the client
and waiting to transmit it, the Pravega writer starts sending a batch
before it has sufficient data to fill it ...  the batch size is estimated
as the minimum between the defined maximum batch size (e.g., 1MB) and
half the server round trip time" — so the batching *window* adapts: at
low rates a batch closes after ~RTT/2 (microseconds of added latency),
at high rates it closes when the size bound fills.  No knobs to tune
(the contrast drawn in §5.3 with Kafka/Pulsar linger/batch-size knobs).

Exactly-once: each batch carries ⟨writer id, last event number⟩; the
segment store dedups via segment attributes, and on reconnection the
writer handshakes to learn the last persisted event number and resumes
from the correct event (§3.2).

Order: events with the same routing key always map to the same active
segment; when a scale event seals that segment, in-flight and queued
events re-route to the successors *after* observing the seal — appends
to successors never precede the seal (Fig. 2b).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.common.errors import (
    ContainerOfflineError,
    SegmentError,
    SegmentSealedError,
    WriterError,
)
from repro.common.hashing import routing_key_position
from repro.common.payload import Payload
from repro.pravega.client.controller_client import ControllerClient
from repro.pravega.client.serializers import (
    frame_event,
    frame_synthetic_event,
)
from repro.pravega.controller import SegmentLocation
from repro.sim.core import Drain, SimFuture, Simulator, all_of
from repro.sim.resources import FifoServer

__all__ = ["WriterConfig", "EventStreamWriter"]


@dataclass(frozen=True)
class WriterConfig:
    #: maximum serialized batch size (the paper's e.g. 1 MB)
    max_batch_size: int = 1024 * 1024
    #: in-flight batches per segment connection
    max_outstanding: int = 8
    #: initial RTT estimate before feedback arrives (seconds)
    initial_rtt: float = 1e-3
    #: client CPU cost per event (serialization/bookkeeping)
    per_event_cpu: float = 0.5e-6
    #: fixed client CPU per append request; the adaptive RTT/2 window grows
    #: batches under load, so this cost amortizes away (unlike fixed-linger
    #: clients whose per-partition batches stay small with random keys)
    per_request_cpu: float = 25e-6
    #: client CPU byte-copy bandwidth
    cpu_bandwidth: float = 2e9
    #: retries on transient (container offline) errors; backoff doubles
    #: per attempt so container recovery (WAL replay) has time to finish
    max_retries: int = 8


@dataclass(slots=True, eq=False)
class _PendingEvent:
    payload: Payload
    event_count: int
    future: SimFuture
    enqueue_time: float
    routing_key: Optional[str]
    #: last event number assigned when the event was batched (-1 = never);
    #: lets the reconnect handshake tell durable events from lost ones
    assigned_number: int = -1
    #: root trace span ("pravega.write"), None when tracing is off
    span: Optional[object] = None


@dataclass(slots=True, eq=False)
class _Batch:
    # eq=False on both: in-flight batches are found and removed by identity.
    events: List[_PendingEvent] = field(default_factory=list)
    size: int = 0
    #: application events in the batch (an entry may stand for a group)
    event_count: int = 0
    first_event_number: int = 0
    last_event_number: int = 0
    open_time: float = 0.0
    span: Optional[object] = None


class _SegmentWriter:
    """The per-segment outbound pipeline of an EventStreamWriter."""

    def __init__(self, parent: "EventStreamWriter", location: SegmentLocation) -> None:
        self.parent = parent
        self.location = location
        self.sim = parent.sim
        self.queue: Deque[_PendingEvent] = deque()
        self.next_event_number = 0
        self.outstanding = 0
        self.rtt_estimate = parent.config.initial_rtt
        self.sealed = False
        self.reconnecting = False
        self._sender_running = False
        self._inflight: Deque[_Batch] = deque()
        self._window_waiters: Deque[SimFuture] = deque()

    # ------------------------------------------------------------------
    def enqueue(self, event: _PendingEvent) -> None:
        self.queue.append(event)
        if not self._sender_running and not self.reconnecting:
            self._sender_running = True
            self.sim.process(self._sender_loop())

    def _release_window(self) -> None:
        while self._window_waiters and self.outstanding < self.parent.config.max_outstanding:
            waiter = self._window_waiters.popleft()
            if not waiter.done:
                waiter.set_result(None)

    def _batch_window(self) -> float:
        """How long to keep a batch open: half the observed RTT (§4.1)."""
        return self.rtt_estimate / 2.0

    def _sender_loop(self):
        config = self.parent.config
        try:
            while self.queue and not self.sealed and not self.reconnecting:
                # Start a batch with everything immediately available.
                batch = _Batch(open_time=self.sim.now)
                self._fill(batch)
                # Keep the batch open for the adaptive window: the server is
                # already collecting it; we model the window client-side.
                if batch.size < config.max_batch_size:
                    yield self._batch_window()
                    self._fill(batch)
                # Respect the connection's outstanding-batch window.
                while self.outstanding >= config.max_outstanding and not self.sealed:
                    waiter = self.sim.future()
                    self._window_waiters.append(waiter)
                    yield waiter
                if self.sealed:
                    for event in batch.events:
                        self.queue.appendleft(event)
                    return
                self._dispatch(batch)
        finally:
            self._sender_running = False
            if (self.queue or self._inflight) and self.sealed:
                self.parent._reroute(self)

    def _fill(self, batch: _Batch) -> None:
        config = self.parent.config
        while self.queue and batch.size < config.max_batch_size:
            event = self.queue.popleft()
            batch.events.append(event)
            batch.size += event.payload.size
            batch.event_count += event.event_count
            if len(batch.events) == 1:
                batch.first_event_number = self.next_event_number + 1
            self.next_event_number += event.event_count
            event.assigned_number = self.next_event_number
        batch.last_event_number = self.next_event_number

    def _dispatch(self, batch: _Batch) -> None:
        if not batch.events:
            return
        self.outstanding += 1
        self._inflight.append(batch)
        self.sim.process(self._send(batch))

    def _send(self, batch: _Batch):
        parent = self.parent
        config = parent.config
        event_count = batch.event_count
        first_span = batch.events[0].span if batch.events else None
        rpc_span = None
        if first_span is not None:
            batch.span = first_span.child(
                "pravega.batch",
                start=batch.open_time,
                bytes=batch.size,
                events=event_count,
            )
            rpc_span = batch.span.child(
                "segmentstore.rpc_append",
                actor=self.location.store_host,
                bytes=batch.size,
                segment=self.location.segment_number,
            )
        # Client CPU: serialization + copy, serialized on the writer's core.
        cpu_time = (
            config.per_request_cpu
            + event_count * config.per_event_cpu
            + batch.size / config.cpu_bandwidth
        )
        yield parent._cpu.delay(cpu_time)
        payload = Payload.concat([e.payload for e in batch.events])
        store = parent._stores[self.location.store_host]
        sent_at = self.sim.now
        try:
            result = yield store.rpc_append(
                parent.host,
                self.location.qualified_name,
                payload,
                writer_id=parent.writer_id,
                event_number=batch.last_event_number,
                event_count=event_count,
                span=rpc_span,
            )
        except SegmentSealedError:
            if batch.span is not None:
                batch.span.annotate("segment-sealed")
                batch.span.finish()
            self.sealed = True
            if batch in self._inflight:
                self._inflight.remove(batch)
            self.outstanding -= 1
            self._release_window()
            # Put the batch's events back at the front, in order, and
            # re-route everything to the successors.
            for event in reversed(batch.events):
                self.queue.appendleft(event)
            parent._reroute(self)
            return
        except (ContainerOfflineError, SegmentError) as exc:
            if batch.span is not None:
                batch.span.annotate("rpc-error", error=type(exc).__name__)
                batch.span.finish()
            if batch in self._inflight:
                self._inflight.remove(batch)
            self.outstanding -= 1
            self._release_window()
            # Requeue in order; a single reconnect drains everything.
            for event in reversed(batch.events):
                self.queue.appendleft(event)
            parent._schedule_reconnect(self, exc)
            return
        rtt = self.sim.now - sent_at
        self.rtt_estimate += 0.3 * (rtt - self.rtt_estimate)
        if batch in self._inflight:
            self._inflight.remove(batch)
        self.outstanding -= 1
        self._release_window()
        parent.events_written += event_count
        parent.bytes_written += batch.size
        if batch.span is not None:
            if rpc_span is not None:
                batch.span.absorb(rpc_span)
            batch.span.finish()
            for event in batch.events:
                if event.span is not None:
                    event.span.absorb(batch.span)
        # Batch-level ack fan-out: one shared (read-only) result dict for
        # the whole batch instead of an allocation per event.
        ack = {"segment": self.location.segment_number, "duplicate": result.duplicate}
        for event in batch.events:
            if not event.future._done:
                event.future.set_result(ack)

    def drain_pending(self) -> List[_PendingEvent]:
        """All not-yet-acknowledged events in original order (re-route)."""
        pending: List[_PendingEvent] = []
        for batch in self._inflight:
            pending.extend(batch.events)
        self._inflight.clear()
        pending.extend(self.queue)
        self.queue.clear()
        return pending


class EventStreamWriter:
    """Writes events to a stream with per-routing-key ordering."""

    _writer_counter = 0

    def __init__(
        self,
        sim: Simulator,
        controller: ControllerClient,
        stores: Dict[str, "SegmentStore"],  # noqa: F821 - avoid import cycle
        scope: str,
        stream: str,
        host: str,
        config: Optional[WriterConfig] = None,
        writer_id: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.controller = controller
        self._stores = stores
        self.scope = scope
        self.stream = stream
        self.host = host
        self.config = config or WriterConfig()
        if writer_id is None:
            EventStreamWriter._writer_counter += 1
            writer_id = f"writer-{EventStreamWriter._writer_counter}"
        self.writer_id = writer_id
        self._segment_writers: Dict[int, _SegmentWriter] = {}
        self._locations: List[SegmentLocation] = []
        #: routing key -> covering location; cleared on every refresh
        self._key_cache: Dict[str, SegmentLocation] = {}
        self._ready: Optional[SimFuture] = None
        self._cpu = FifoServer(sim, name=f"cpu:{writer_id}")
        self._round_robin = 0
        self.events_written = 0
        self.bytes_written = 0
        #: events written and not yet acknowledged; flush() waits on it
        self._unacked = Drain(sim)
        #: optional repro.obs.Tracer; None keeps the write path untraced
        self.tracer = None
        #: extra attributes stamped on every root write span (e.g. the
        #: bench harness sets {"tenant": name} for per-tenant attribution)
        self.span_attrs: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Segment discovery / routing
    # ------------------------------------------------------------------
    def _ensure_ready(self) -> SimFuture:
        if self._ready is None:
            self._ready = self.sim.process(self._refresh_segments())
        return self._ready

    def _refresh_segments(self):
        locations = yield self.controller.get_active_segments(self.scope, self.stream)
        self._locations = sorted(locations, key=lambda l: l.key_range.low)
        self._key_cache.clear()
        for location in self._locations:
            if location.segment_number not in self._segment_writers:
                self._segment_writers[location.segment_number] = _SegmentWriter(
                    self, location
                )

    def _segment_for_key(self, routing_key: Optional[str]) -> SegmentLocation:
        if not self._locations:
            raise WriterError("writer not initialized")
        if routing_key is None:
            # No routing key: spread events round-robin (no order guarantee).
            self._round_robin = (self._round_robin + 1) % len(self._locations)
            return self._locations[self._round_robin]
        cached = self._key_cache.get(routing_key)
        if cached is not None:
            return cached
        position = routing_key_position(routing_key)
        for location in self._locations:
            if location.key_range.contains(position):
                self._key_cache[routing_key] = location
                return location
        raise WriterError(f"no active segment covers position {position}")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def write_event(self, data: bytes, routing_key: Optional[str] = None) -> SimFuture:
        """Write one event; resolves when the event is durable."""
        return self._write(frame_event(data), 1, routing_key)

    def write_synthetic_events(
        self, count: int, event_size: int, routing_key: Optional[str] = None
    ) -> SimFuture:
        """Benchmark fast path: ``count`` fixed-size events as one unit.

        The group travels through the same batching, dedup and routing
        machinery as individual events but costs O(1) Python objects.
        With no routing key, events round-robin across the active
        segments — so the group is split into per-segment shares, exactly
        like ``count`` individual keyless events would be.
        """
        framed = frame_synthetic_event(event_size).size
        if routing_key is not None or count == 1:
            total = count * framed
            if total <= self.config.max_batch_size or count == 1:
                return self._write(Payload.synthetic(total), count, routing_key)
            # Oversized bulk group: split so batch-size limits hold.
            per_piece = max(self.config.max_batch_size // framed, 1)
            pending = []
            remaining = count
            while remaining > 0:
                share = min(per_piece, remaining)
                remaining -= share
                pending.append(
                    self._write(Payload.synthetic(share * framed), share, routing_key)
                )
            return all_of(self.sim, pending)

        return self.sim.process(self._write_spread(count, framed))

    def _write_spread(self, count: int, framed: int):
        """A keyless group: one share per active segment (round-robin)."""
        yield self._ensure_ready()
        segments = max(len(self._locations), 1)
        base, remainder = divmod(count, segments)
        pending = []
        for i in range(segments):
            share = base + (1 if i < remainder else 0)
            if share <= 0:
                continue
            pending.append(self._write(Payload.synthetic(share * framed), share, None))
        yield all_of(self.sim, pending)

    def _write(
        self, payload: Payload, event_count: int, routing_key: Optional[str]
    ) -> SimFuture:
        fut = self.sim.future()
        span = None
        if self.tracer is not None:
            span = self.tracer.span(
                "pravega.write",
                actor=self.writer_id,
                bytes=payload.size,
                events=event_count,
                **self.span_attrs,
            )
            if span is not None:
                fut.add_callback(lambda f, s=span: s.finish())
        event = _PendingEvent(
            payload, event_count, fut, self.sim.now, routing_key, span=span
        )
        self._unacked.add(fut)
        self.sim.process(self._route(event))
        return fut

    def _route(self, event: _PendingEvent):
        """Hand ``event`` to the writer of the segment covering its key."""
        yield self._ensure_ready()
        location = self._segment_for_key(event.routing_key)
        writer = self._segment_writers[location.segment_number]
        if writer.sealed:
            yield from self._refresh_segments()
            location = self._segment_for_key(event.routing_key)
            writer = self._segment_writers[location.segment_number]
        writer.enqueue(event)

    def flush(self) -> SimFuture:
        """Resolves when every previously written event is acknowledged."""
        return self._unacked.wait()

    # ------------------------------------------------------------------
    # Scale / failure handling
    # ------------------------------------------------------------------
    def _reroute(self, segment_writer: _SegmentWriter) -> None:
        """A segment was sealed: move its pending events to the successors
        (which the controller guarantees exist before the seal, Fig. 2b)."""
        pending = segment_writer.drain_pending()
        if not pending:
            return

        def run():
            # The controller activates the new epoch *after* sealing the old
            # segments (Fig. 2b); a refresh can race ahead of step 3, so
            # retry until the successors become visible.
            sealed_number = segment_writer.location.segment_number
            for attempt in range(20):
                yield self._refresh_wrapper()
                if all(l.segment_number != sealed_number for l in self._locations):
                    break
                yield self.sim.timeout(0.005 * (attempt + 1))
            for event in pending:
                location = self._segment_for_key(event.routing_key)
                target = self._segment_writers[location.segment_number]
                if target is segment_writer:
                    event.future.set_exception(
                        WriterError("sealed segment still active after refresh")
                    )
                    continue
                target.enqueue(event)

        self.sim.process(run())

    def _refresh_wrapper(self):
        return self.sim.process(self._refresh_segments())

    def _schedule_reconnect(self, segment_writer: _SegmentWriter, error: Exception) -> None:
        """Start (at most one) reconnection for the segment writer."""
        if segment_writer.reconnecting:
            return
        segment_writer.reconnecting = True
        self.sim.process(self._reconnect(segment_writer, error))

    def _reconnect(self, segment_writer: _SegmentWriter, error: Exception):
        """Reconnection handshake (§3.2): wait for every in-flight batch
        to resolve, ask the store for the last event number persisted for
        this writer id, then resend exactly the events the store never
        made durable."""
        # Let all outstanding batches finish failing (they requeue their
        # events in order).
        while segment_writer.outstanding > 0:
            yield self.sim.timeout(0.005)
        for attempt in range(self.config.max_retries):
            yield self.sim.timeout(0.02 * (2**attempt))
            yield self._refresh_wrapper()
            location = next(
                (
                    l
                    for l in self._locations
                    if l.segment_number == segment_writer.location.segment_number
                ),
                None,
            )
            if location is None:
                # Segment no longer active (scaled away while we were down).
                for event in segment_writer.drain_pending():
                    target_location = self._segment_for_key(event.routing_key)
                    self._segment_writers[target_location.segment_number].enqueue(event)
                return
            store = self._stores[location.store_host]
            try:
                last_number = yield store.rpc_get_attribute(
                    self.host, location.qualified_name, self.writer_id
                )
            except (ContainerOfflineError, SegmentError):
                continue
            # From here to the end of the loop body there are no yields:
            # the drain + writer replacement is atomic in simulated time,
            # so no event can slip into the retired writer.
            events = segment_writer.drain_pending()
            writer = _SegmentWriter(self, location)
            writer.next_event_number = max(last_number, 0)
            self._segment_writers[location.segment_number] = writer
            # Events the store already persisted are acknowledged
            # (duplicates of durable data); the rest resend and — because
            # order and counts are preserved — receive exactly their
            # original event numbers.
            for event in events:
                if 0 <= event.assigned_number <= last_number:
                    if not event.future.done:
                        event.future.set_result(
                            {
                                "segment": location.segment_number,
                                "duplicate": True,
                            }
                        )
                else:
                    writer.enqueue(event)
            return
        for event in segment_writer.drain_pending():
            if not event.future.done:
                event.future.set_exception(
                    WriterError(f"reconnect failed after retries: {error}")
                )
