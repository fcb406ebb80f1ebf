"""Pulsar producer: client-side time/size batching, on or off.

"Pulsar and Kafka clients implement a batching mechanism that can be
parameterized via 'knobs' ... The goal of this feature is to improve a
producer's throughput for small messages, despite inducing extra latency
in scenarios where the workload is not throughput-oriented" (§5.1) — the
dichotomy of Fig. 6a: the Pulsar producer "is able to target either low
latency or high throughput, but not both."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from repro.common.hashing import stable_hash64
from repro.common.payload import Payload
from repro.sim.core import Drain, SimFuture, Simulator
from repro.sim.resources import FifoServer
from repro.pulsar.broker import PulsarCluster

__all__ = ["PulsarProducerConfig", "PulsarProducer"]


@dataclass(frozen=True)
class PulsarProducerConfig:
    #: enableBatching
    batching: bool = True
    #: batchingMaxPublishDelay (the paper uses 1 ms; §5.6 also tries 10 ms)
    batch_delay: float = 1e-3
    #: batchingMaxBytes (the paper uses 128 KB)
    batch_size: int = 128 * 1024
    #: maxPendingMessages per partition
    max_pending: int = 1000
    per_event_cpu: float = 0.5e-6
    #: fixed client CPU per publish request
    per_request_cpu: float = 25e-6
    cpu_bandwidth: float = 2e9


@dataclass(slots=True)
class _Record:
    size: int
    count: int
    future: SimFuture
    #: root trace span ("pulsar.send"), None when tracing is off
    span: Optional[object] = None


@dataclass(slots=True)
class _OpenBatch:
    records: List[_Record] = field(default_factory=list)
    size: int = 0
    closed: bool = False


class PulsarProducer:
    """One producer client: batching (or not) + publish pipeline."""
    _counter = 0

    def __init__(
        self,
        sim: Simulator,
        cluster: PulsarCluster,
        topic: str,
        host: str,
        config: Optional[PulsarProducerConfig] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.topic = topic
        self.host = host
        self.config = config or PulsarProducerConfig()
        PulsarProducer._counter += 1
        self.producer_id = f"pulsar-producer-{PulsarProducer._counter}"
        self._batches: Dict[int, _OpenBatch] = {}
        self._pending: Dict[int, int] = {}
        self._pending_waiters: Dict[int, list] = {}
        self._cpu = FifoServer(sim, name=f"cpu:{self.producer_id}")
        self._round_robin = 0
        #: routing key -> partition (a pure function of the key; hashed once)
        self._key_partitions: Dict[str, int] = {}
        #: records sent and not yet acknowledged; flush() waits on it
        self._unacked = Drain(sim)
        self.records_sent = 0
        self.bytes_sent = 0
        #: optional repro.obs.Tracer; None keeps the publish path untraced
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
        self._round_robin = (self._round_robin + 1) % self.num_partitions
        return self._round_robin

    # ------------------------------------------------------------------
    def send(self, size: int, key: Optional[str] = None, count: int = 1) -> SimFuture:
        """Publish ``count`` records totalling ``size`` bytes.

        Oversized bulk groups split into batch-sized pieces so client
        batching limits hold exactly as for individual records; without
        batching, every record is its own broker entry (the §5.3
        latency-oriented configuration).
        """
        if not self.config.batching and count > 1:
            # One entry per record — no client aggregation at all.
            per_event = size // count
            done = self.sim.future()
            remaining = [count]

            def on_record(record_fut: SimFuture) -> None:
                remaining[0] -= 1
                if done.done:
                    return
                if record_fut.exception is not None:
                    done.set_exception(record_fut.exception)
                elif remaining[0] == 0:
                    done.set_result(record_fut._value)

            for _ in range(count):
                self.send(per_event, key, 1).add_callback(on_record)
            return done
        if (
            self.config.batching
            and count > 1
            and size > self.config.batch_size
        ):
            pieces = min(-(-size // self.config.batch_size), count)
            base, remainder = divmod(count, pieces)
            per_event = size // count
            done = self.sim.future()
            remaining = [pieces]

            def on_piece(piece_fut: SimFuture) -> None:
                remaining[0] -= 1
                if done.done:
                    return
                if piece_fut.exception is not None:
                    done.set_exception(piece_fut.exception)
                elif remaining[0] == 0:
                    done.set_result(piece_fut._value)

            for i in range(pieces):
                share = base + (1 if i < remainder else 0)
                if share:
                    self.send(per_event * share, key, share).add_callback(on_piece)
            return done
        fut = self.sim.future()
        self._unacked.add(fut)
        partition = self._partition_for(key)
        span = None
        if self.tracer is not None:
            span = self.tracer.span(
                "pulsar.send",
                actor=self.producer_id,
                bytes=size,
                events=count,
                **self.span_attrs,
            )
            if span is not None:
                fut.add_callback(lambda f, s=span: s.finish())
        record = _Record(size, count, fut, span=span)
        if not self.config.batching:
            self.sim.process(self._publish(partition, [record], size))
            return fut
        batch = self._batches.get(partition)
        if batch is None or batch.closed:
            batch = _OpenBatch()
            self._batches[partition] = batch
            # batchingMaxPublishDelay: one timer callback per batch (a
            # no-op if the batch closed on size first)
            self.sim.schedule(
                self.config.batch_delay, partial(self._close_batch, partition, batch)
            )
        batch.records.append(record)
        batch.size += size
        if batch.size >= self.config.batch_size:
            self._close_batch(partition, batch)
        return fut

    def _close_batch(self, partition: int, batch: _OpenBatch) -> None:
        if batch.closed:
            return
        batch.closed = True
        if self._batches.get(partition) is batch:
            del self._batches[partition]
        if batch.records:
            self.sim.process(self._publish(partition, batch.records, batch.size))

    def _publish(self, partition: int, records: List[_Record], size: int):
        config = self.config
        count = sum(r.count for r in records)
        yield self._cpu.delay(
            config.per_request_cpu
            + count * config.per_event_cpu
            + size / config.cpu_bandwidth
        )
        # maxPendingMessages backpressure (per partition), event-driven.
        while self._pending.get(partition, 0) >= config.max_pending:
            waiter = self.sim.future()
            self._pending_waiters.setdefault(partition, []).append(waiter)
            yield waiter
        self._pending[partition] = self._pending.get(partition, 0) + count
        partition_name = f"{self.topic}-{partition}"
        broker = self.cluster.broker_for(partition_name)
        first_span = next((r.span for r in records if r.span is not None), None)
        publish_span = None
        if first_span is not None:
            publish_span = first_span.child(
                "pulsar.publish", actor=broker.name, bytes=size, partition=partition
            )
        try:
            yield broker.publish(
                self.host,
                partition_name,
                Payload.synthetic(size),
                count,
                span=publish_span,
            )
        except Exception as exc:  # noqa: BLE001 - fail the records
            if publish_span is not None:
                publish_span.annotate("publish-error", error=type(exc).__name__)
            for record in records:
                if not record.future._done:
                    record.future.set_exception(exc)
            return
        finally:
            self._pending[partition] -= count
            waiters = self._pending_waiters.get(partition)
            if waiters and self._pending[partition] < config.max_pending:
                waiters.pop(0).set_result(None)
        self.records_sent += count
        self.bytes_sent += size
        if publish_span is not None:
            # Shared publish: every record in the batch experiences the
            # full broker round trip.
            for record in records:
                if record.span is not None:
                    record.span.absorb(publish_span)
        for record in records:
            if not record.future._done:
                record.future.set_result(partition)

    def flush(self) -> SimFuture:
        """Resolves when every sent record has been acknowledged."""
        for partition, batch in list(self._batches.items()):
            self._close_batch(partition, batch)
        return self._unacked.wait()
