"""Kafka producer with linger/batch-size batching (§5.1, "Client
configuration": 128 KB batch size and 1 ms linger by default; §5.3 also
evaluates 1 MB / 10 ms).

Batching is *per partition*: a batch accumulates records for one
partition and is sent when it reaches ``batch_size`` or has been open for
``linger_ms``.  With random routing keys and many partitions, records
spread thin across per-partition batches — the mechanism behind the
Fig. 6b / Fig. 9 results ("we consequently attribute the lower batching
performance observed to the use of (random) routing keys").  Without
keys the sticky partitioner fills one partition's batch at a time,
recovering batching efficiency (the "no keys" configurations of
Figs. 9-11).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.hashing import stable_hash64
from repro.common.payload import Payload
from repro.sim.core import Drain, SimFuture, Simulator
from repro.sim.resources import FifoServer
from repro.kafka.broker import KafkaCluster, TopicPartition

__all__ = ["KafkaProducerConfig", "KafkaProducer"]


@dataclass(frozen=True)
class KafkaProducerConfig:
    batch_size: int = 128 * 1024
    linger: float = 1e-3  # linger.ms
    max_in_flight: int = 5
    acks_all: bool = True
    #: idempotent producer (enable.idempotence)
    idempotent: bool = True
    per_event_cpu: float = 0.5e-6
    #: fixed client CPU per produce request (framing, syscalls, response
    #: handling) — with random keys and many partitions the producer emits
    #: many small requests, and this cost is what dilute batches pay
    per_request_cpu: float = 25e-6
    cpu_bandwidth: float = 2e9
    #: per-record framing overhead in a batch
    record_overhead: int = 12


@dataclass(slots=True)
class _Record:
    payload_size: int
    count: int
    future: SimFuture
    enqueue_time: float
    #: root trace span ("kafka.send"), None when tracing is off
    span: Optional[object] = None


@dataclass(slots=True)
class _PartitionBatch:
    records: List[_Record] = field(default_factory=list)
    size: int = 0
    open_time: float = 0.0
    closed: bool = False
    #: linger expired while the broker connection was saturated; the
    #: batch keeps accumulating until a request slot frees up
    parked: bool = False
    span: Optional[object] = None


class KafkaProducer:
    """One producer client instance."""

    _counter = 0

    def __init__(
        self,
        sim: Simulator,
        cluster: KafkaCluster,
        topic: str,
        host: str,
        config: Optional[KafkaProducerConfig] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.topic = topic
        self.host = host
        self.config = config or KafkaProducerConfig()
        KafkaProducer._counter += 1
        self.producer_id = f"producer-{KafkaProducer._counter}"
        self._sequence = 0
        self._batches: Dict[int, _PartitionBatch] = {}
        #: in-flight requests per broker connection (max.in.flight semantics)
        self._in_flight: Dict[str, int] = {}
        self._send_waiters: Dict[str, List[SimFuture]] = {}
        #: partial batches whose linger expired under max.in.flight
        #: backpressure, awaiting a free request slot per broker
        self._parked: Dict[str, Deque[Tuple[int, _PartitionBatch]]] = {}
        self._cpu = FifoServer(sim, name=f"cpu:{self.producer_id}")
        self._sticky_partition = 0
        #: one TopicPartition per partition, built on first use
        self._tps: Dict[int, TopicPartition] = {}
        #: routing key -> partition (a pure function of the key; hashed once)
        self._key_partitions: Dict[str, int] = {}
        #: records sent and not yet acknowledged; flush() waits on it
        self._unacked = Drain(sim)
        self.records_sent = 0
        self.bytes_sent = 0
        #: optional repro.obs.Tracer; None keeps the send path untraced
        self.tracer = None
        #: extra attributes stamped on every root send span (e.g. the
        #: bench harness sets {"tenant": name} for per-tenant attribution)
        self.span_attrs: Dict[str, object] = {}

    @property
    def num_partitions(self) -> int:
        return self.cluster.topics[self.topic]

    def _partition_for(self, key: Optional[str]) -> int:
        if key is not None:
            partition = self._key_partitions.get(key)
            if partition is None:
                partition = stable_hash64(key) % self.num_partitions
                self._key_partitions[key] = partition
            return partition
        # Sticky partitioner: stay on one partition until its batch closes.
        return self._sticky_partition

    def _tp(self, partition: int) -> TopicPartition:
        tp = self._tps.get(partition)
        if tp is None:
            tp = self._tps[partition] = TopicPartition(self.topic, partition)
        return tp

    # ------------------------------------------------------------------
    def send(self, size: int, key: Optional[str] = None, count: int = 1) -> SimFuture:
        """Produce ``count`` records totalling ``size`` payload bytes.

        Resolves when the broker acknowledges the containing batch(es).
        A bulk group larger than one batch is split so per-batch limits
        hold exactly as they would for individual records.
        """
        wire = size + count * self.config.record_overhead
        if count > 1 and wire > self.config.batch_size:
            return self._send_split(size, key, count, wire)
        fut = self.sim.future()
        self._unacked.add(fut)
        partition = self._partition_for(key)
        span = None
        if self.tracer is not None:
            span = self.tracer.span(
                "kafka.send",
                actor=self.producer_id,
                bytes=size,
                events=count,
                **self.span_attrs,
            )
            if span is not None:
                fut.add_callback(lambda f, s=span: s.finish())
        record = _Record(size, count, fut, self.sim.now, span=span)
        batch = self._batches.get(partition)
        if batch is None or batch.closed or batch.size + wire > self.config.batch_size:
            if batch is not None and not batch.closed:
                self._close_batch(partition, batch)
            batch = _PartitionBatch(open_time=self.sim.now)
            self._batches[partition] = batch
            # linger.ms: one timer callback per batch (a no-op if the
            # batch closed on size first)
            self.sim.schedule(
                self.config.linger, partial(self._close_batch, partition, batch)
            )
        batch.records.append(record)
        batch.size += wire
        if batch.size >= self.config.batch_size:
            self._close_batch(partition, batch)
        return fut

    def _send_split(self, size: int, key: Optional[str], count: int, wire: int) -> SimFuture:
        """Split an oversized bulk group into batch-sized sub-sends."""
        pieces = -(-wire // self.config.batch_size)
        pieces = min(pieces, count)
        base, remainder = divmod(count, pieces)
        per_event = size // count
        done = self.sim.future()
        remaining = [pieces]

        def on_piece(fut: SimFuture) -> None:
            remaining[0] -= 1
            if done.done:
                return
            if fut.exception is not None:
                done.set_exception(fut.exception)
            elif remaining[0] == 0:
                done.set_result(fut._value)

        for i in range(pieces):
            share = base + (1 if i < remainder else 0)
            if share:
                self.send(per_event * share, key, share).add_callback(on_piece)
        return done

    def _close_batch(
        self, partition: int, batch: _PartitionBatch, force: bool = False
    ) -> None:
        if batch.closed or not batch.records:
            batch.closed = True
            return
        if not force and batch.size < self.config.batch_size:
            # Accumulator semantics: a *partial* batch whose linger expires
            # while the broker connection is at max.in.flight is not sealed
            # — it parks and keeps accumulating records until a request
            # slot frees (real RecordAccumulator batches are only removed
            # by drain()).  Sealing here instead would emit a stream of
            # tiny batches that each pay the full per-request cost — fatal
            # under flush-per-message, where every batch also pays a
            # multi-millisecond fsync barrier.
            broker = self.cluster.assignments[self._tp(partition)][0]
            if self._in_flight.get(broker, 0) >= self.config.max_in_flight:
                if not batch.parked:
                    batch.parked = True
                    self._parked.setdefault(broker, deque()).append(
                        (partition, batch)
                    )
                return
        batch.closed = True
        batch.parked = False
        if self._batches.get(partition) is batch:
            del self._batches[partition]
        if partition == self._sticky_partition:
            self._sticky_partition = (self._sticky_partition + 1) % self.num_partitions
        self.sim.process(self._send_batch(partition, batch))

    def _unpark(self, broker: str) -> None:
        """A request slot freed with no sealed batch waiting: seal the
        oldest parked batch (it dispatches immediately)."""
        queue = self._parked.get(broker)
        while queue:
            partition, batch = queue.popleft()
            if batch.closed or not batch.records:
                batch.closed = True
                continue
            batch.parked = False
            self._close_batch(partition, batch, force=True)
            return

    def _send_batch(self, partition: int, batch: _PartitionBatch):
        config = self.config
        # Respect max.in.flight: the limit applies per *broker connection*
        # (one connection per broker), not per partition.
        tp = self._tp(partition)
        broker = self.cluster.assignments[tp][0]
        first_span = next(
            (r.span for r in batch.records if r.span is not None), None
        )
        produce_span = None
        if first_span is not None:
            batch.span = first_span.child(
                "kafka.batch",
                start=batch.open_time,
                bytes=batch.size,
                partition=partition,
            )
        while self._in_flight.get(broker, 0) >= config.max_in_flight:
            if batch.span is not None:
                batch.span.annotate("max-in-flight-wait")
            waiter = self.sim.future()
            self._send_waiters.setdefault(broker, []).append(waiter)
            yield waiter
        self._in_flight[broker] = self._in_flight.get(broker, 0) + 1
        try:
            records = sum(r.count for r in batch.records)
            cpu = (
                config.per_request_cpu
                + records * config.per_event_cpu
                + batch.size / config.cpu_bandwidth
            )
            yield self._cpu.delay(cpu)
            sequence = -1
            if config.idempotent:
                sequence = self._sequence
                self._sequence += 1
            if batch.span is not None:
                produce_span = batch.span.child(
                    "kafka.produce",
                    actor=broker,
                    bytes=batch.size,
                    partition=partition,
                )
            try:
                yield self.cluster.produce(
                    self.host,
                    tp,
                    Payload.synthetic(batch.size),
                    records,
                    producer_id=self.producer_id,
                    sequence=sequence,
                    acks_all=config.acks_all,
                    span=produce_span,
                )
            except Exception as exc:  # noqa: BLE001 - surface per record
                if batch.span is not None:
                    batch.span.annotate("produce-error", error=type(exc).__name__)
                    batch.span.finish()
                for record in batch.records:
                    if not record.future._done:
                        record.future.set_exception(exc)
                return
            self.records_sent += records
            self.bytes_sent += batch.size
            if batch.span is not None:
                if produce_span is not None:
                    batch.span.absorb(produce_span)
                batch.span.finish()
                for record in batch.records:
                    if record.span is not None:
                        record.span.absorb(batch.span)
            for record in batch.records:
                if not record.future._done:
                    record.future.set_result(partition)
        finally:
            self._in_flight[broker] -= 1
            waiters = self._send_waiters.get(broker)
            if waiters:
                waiters.pop(0).set_result(None)
            else:
                self._unpark(broker)

    def flush(self) -> SimFuture:
        """Resolves when every sent record has been acknowledged."""
        for partition, batch in list(self._batches.items()):
            if not batch.closed:
                self._close_batch(partition, batch)
        return self._unacked.wait()
