"""Uniform system adapters for the benchmark harness.

One adapter per system under test (Pravega / Kafka / Pulsar), each
deploying the Table 1 topology and exposing the same producer/consumer
surface to the load generator:

* ``setup(partitions)`` — create the topic/stream
* ``new_producer(host)`` — returns an object with
  ``send_group(partition_index, count, size) -> SimFuture`` and ``flush()``
* ``new_consumer(host, partitions)`` — returns an object with
  ``receive() -> SimFuture[(partition, count, bytes)]``

``slice_factor`` implements the representative-slice scaling used for the
high-parallelism experiments (Figs. 10-11): simulating 1/k of the
partitions at 1/k of the load against devices with 1/k bandwidth and k×
per-op costs is exactly load-equivalent for our linear device models,
and keeps very large configurations (5 000 partitions, 100 writers)
tractable.  Reported rates are scaled back up by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.common.errors import ReproError
from repro.bookkeeper.bookie import Bookie
from repro.bookkeeper.client import BookKeeperCluster
from repro.lts import FileSystemLTS, LtsSpec
from repro.pravega import (
    PravegaCluster,
    PravegaClusterConfig,
    ScalingPolicy,
    StreamConfiguration,
)
from repro.pravega.client.reader import ReaderConfig
from repro.pravega.client.writer import WriterConfig
from repro.pravega.container import CacheSpec, ContainerConfig
from repro.pravega.segment_store import SegmentStoreConfig

#: same 128 MB per-container capacity as the default spec, but with 64 KB
#: simulation blocks (16x fewer block operations) — the Fig. 4 layout is
#: exercised at full 4 KB granularity by the unit/property tests; benches
#: only need the capacity/eviction behaviour
BENCH_CACHE = CacheSpec(block_size=65536, blocks_per_buffer=32, max_buffers=64)
from repro.kafka import (
    KafkaBroker,
    KafkaCluster,
    KafkaConsumer,
    KafkaConsumerGroup,
    KafkaProducer,
    KafkaProducerConfig,
)
from repro.pulsar import (
    PulsarBroker,
    PulsarBrokerConfig,
    PulsarCluster,
    PulsarConsumer,
    PulsarProducer,
    PulsarProducerConfig,
)
from repro.sim import DiskSpec, Network, NetworkSpec, Simulator
from repro.sim.disk import Disk
from repro.zookeeper import ZookeeperService
from repro.bench.keys import modulo_key_table, range_key_table

__all__ = [
    "scaled_disk_spec",
    "scaled_network_spec",
    "PravegaAdapter",
    "KafkaAdapter",
    "PulsarAdapter",
]


def scaled_disk_spec(spec: DiskSpec, k: float) -> DiskSpec:
    if k == 1:
        return spec
    return DiskSpec(
        bandwidth=spec.bandwidth / k,
        op_latency=spec.op_latency * k,
        file_switch_latency=spec.file_switch_latency * k,
        fsync_latency=spec.fsync_latency * k,
        name=spec.name,
    )


def scaled_network_spec(spec: NetworkSpec, k: float) -> NetworkSpec:
    if k == 1:
        return spec
    return NetworkSpec(
        bandwidth=spec.bandwidth / k,
        rtt=spec.rtt,
        per_message_overhead=spec.per_message_overhead * k,
        local_latency=spec.local_latency,
    )


def scaled_lts_spec(spec: LtsSpec, k: float) -> LtsSpec:
    if k == 1:
        return spec
    return LtsSpec(
        per_stream_bandwidth=spec.per_stream_bandwidth,
        aggregate_bandwidth=spec.aggregate_bandwidth / k,
        op_latency=spec.op_latency,
        name=spec.name,
    )


# ----------------------------------------------------------------------
# Pravega
# ----------------------------------------------------------------------
class _PravegaProducer:
    def __init__(
        self,
        adapter: "PravegaAdapter",
        host: str,
        stream: str = "stream",
        keys: Optional[List[str]] = None,
        span_attrs: Optional[dict] = None,
    ) -> None:
        self.writer = adapter.cluster.create_writer(
            host, "bench", stream, adapter.writer_config
        )
        self.writer.tracer = adapter.tracer
        if span_attrs:
            self.writer.span_attrs = span_attrs
        self.keys = adapter.keys if keys is None else keys

    def send_group(self, partition: Optional[int], count: int, size: int):
        key = None if partition is None else self.keys[partition]
        return self.writer.write_synthetic_events(count, size, routing_key=key)

    def flush(self):
        return self.writer.flush()


class _PravegaConsumer:
    def __init__(
        self,
        adapter: "PravegaAdapter",
        host: str,
        index: int,
        size: int,
        group=None,
        reader_prefix: str = "bench-reader",
    ) -> None:
        self.reader = adapter.cluster.create_reader(
            host,
            f"{reader_prefix}-{index}",
            adapter.reader_group if group is None else group,
            ReaderConfig(fixed_event_size=size),
        )
        sim = adapter.sim
        sim.run_until_complete(self.reader.join(), timeout=60)

    def receive(self):
        return self.reader.sim.process(self._receive())

    def _receive(self):
        batch = yield self.reader.read_next()
        return batch.segment_number, batch.event_count, batch.byte_count


class PravegaAdapter:
    """Deploys the Table 1 Pravega topology behind the uniform bench surface."""

    name = "Pravega"

    def __init__(
        self,
        sim: Simulator,
        lts_kind: str = "efs",
        journal_sync: bool = True,
        num_containers: int = 8,
        writer_config: Optional[WriterConfig] = None,
        slice_factor: float = 1.0,
        scaling_policy: Optional[ScalingPolicy] = None,
    ) -> None:
        self.sim = sim
        self.slice_factor = slice_factor
        self.tracer = None
        base = PravegaClusterConfig()
        lts_spec = None
        if slice_factor != 1 and lts_kind == "efs":
            lts_spec = scaled_lts_spec(FileSystemLTS(Simulator()).spec, slice_factor)
        config = PravegaClusterConfig(
            num_segment_stores=3,
            num_containers=num_containers,
            lts_kind=lts_kind,
            journal_sync=journal_sync,
            store=SegmentStoreConfig(container=ContainerConfig(cache=BENCH_CACHE)),
            disk=scaled_disk_spec(base.disk, slice_factor),
            network=scaled_network_spec(base.network, slice_factor),
            lts_spec=lts_spec,
        )
        self.cluster = PravegaCluster.build(sim, config)
        self.writer_config = writer_config or WriterConfig()
        self.scaling_policy = scaling_policy
        self.keys: List[str] = []
        self.reader_group = None
        self.partitions = 0
        self._controller = None

    def _ensure_started(self):
        """Start the cluster and create the bench scope exactly once.

        Returns the (single) controller client — ``setup`` and
        ``create_tenant`` share it so the simulated event sequence for
        single-stream runs is unchanged from before tenants existed."""
        if self._controller is None:
            sim = self.sim
            sim.run_until_complete(self.cluster.start(), timeout=300)
            self._controller = self.cluster.controller_client("bench-0")
            sim.run_until_complete(self._controller.create_scope("bench"))
        return self._controller

    def setup(self, partitions: int) -> None:
        client = self._ensure_started()
        policy = self.scaling_policy or ScalingPolicy.fixed(partitions)
        self.sim.run_until_complete(
            client.create_stream(
                "bench", "stream", StreamConfiguration(scaling=policy)
            )
        )
        self.partitions = partitions
        self.keys = range_key_table(partitions)

    def create_tenant(self, name: str, partitions: int, scaling=None):
        """Provision one tenant stream (``bench/<name>``) on the shared
        cluster and return its producer/consumer surface."""
        client = self._ensure_started()
        policy = scaling or ScalingPolicy.fixed(partitions)
        self.sim.run_until_complete(
            client.create_stream(
                "bench", name, StreamConfiguration(scaling=policy)
            )
        )
        return _PravegaTenant(self, name, partitions)

    def new_producer(self, host: str) -> _PravegaProducer:
        return _PravegaProducer(self, host)

    def new_consumer(self, host: str, index: int, event_size: int) -> _PravegaConsumer:
        if self.reader_group is None:
            self.reader_group = self.sim.run_until_complete(
                self.cluster.create_reader_group("bench-0", "bench-group", "bench", "stream"),
                timeout=60,
            )
        return _PravegaConsumer(self, host, index, event_size)

    @property
    def crashed(self) -> bool:
        return False

    def lts_backlog_bytes(self) -> int:
        total = 0
        for store in self.cluster.stores.values():
            for container in store.containers.values():
                total += container.storage_writer.backlog_bytes
        return total

    def drive_bytes_written(self) -> int:
        return sum(b.journal_disk.bytes_written for b in self.cluster.bk_cluster.bookies.values())


class _PravegaTenant:
    """One tenant's stream on a shared Pravega cluster."""

    def __init__(self, adapter: PravegaAdapter, tenant: str, partitions: int) -> None:
        self.adapter = adapter
        self.tenant = tenant
        self.name = f"Pravega/{tenant}"
        self.stream = tenant
        self.partitions = partitions
        self.keys = range_key_table(partitions)
        self.reader_group = None
        self.span_attrs = {"tenant": tenant}

    def new_producer(self, host: str) -> _PravegaProducer:
        return _PravegaProducer(
            self.adapter,
            host,
            stream=self.stream,
            keys=self.keys,
            span_attrs=self.span_attrs,
        )

    def new_consumer(self, host: str, index: int, event_size: int) -> _PravegaConsumer:
        if self.reader_group is None:
            self.reader_group = self.adapter.sim.run_until_complete(
                self.adapter.cluster.create_reader_group(
                    "bench-0", f"{self.tenant}-group", "bench", self.stream
                ),
                timeout=60,
            )
        return _PravegaConsumer(
            self.adapter,
            host,
            index,
            event_size,
            group=self.reader_group,
            reader_prefix=f"{self.tenant}-reader",
        )

    @property
    def crashed(self) -> bool:
        return False


# ----------------------------------------------------------------------
# Kafka
# ----------------------------------------------------------------------
class _KafkaProducerHandle:
    def __init__(
        self,
        adapter: "KafkaAdapter",
        host: str,
        topic: str = "topic",
        keys: Optional[List[str]] = None,
        span_attrs: Optional[dict] = None,
    ) -> None:
        self.producer = KafkaProducer(
            adapter.sim, adapter.cluster, topic, host, adapter.producer_config
        )
        self.producer.tracer = adapter.tracer
        if span_attrs:
            self.producer.span_attrs = span_attrs
        self.keys = adapter.keys if keys is None else keys

    def send_group(self, partition: Optional[int], count: int, size: int):
        key = None if partition is None else self.keys[partition]
        return self.producer.send(count * size, key=key, count=count)

    def flush(self):
        return self.producer.flush()


class _KafkaConsumerHandle:
    def __init__(self, adapter: "KafkaAdapter", host: str, group=None) -> None:
        self.consumer = KafkaConsumer(
            adapter.sim,
            adapter.cluster,
            adapter.group if group is None else group,
            host,
        )

    def receive(self):
        return self.consumer.sim.process(self._receive())

    def _receive(self):
        while True:
            batches = yield self.consumer.poll()
            if batches:
                partition = batches[0].partition
                count = sum(b.record_count for b in batches)
                nbytes = sum(b.byte_count for b in batches)
                return partition, count, nbytes


class KafkaAdapter:
    """Deploys the Table 1 Kafka topology behind the uniform bench surface."""

    name = "Kafka"

    def __init__(
        self,
        sim: Simulator,
        flush_every_message: bool = False,
        producer_config: Optional[KafkaProducerConfig] = None,
        slice_factor: float = 1.0,
    ) -> None:
        self.sim = sim
        self.slice_factor = slice_factor
        self.tracer = None
        network = Network(sim, scaled_network_spec(NetworkSpec(), slice_factor))
        self.cluster = KafkaCluster(sim, network)
        disk_spec = scaled_disk_spec(DiskSpec(), slice_factor)
        for i in range(3):
            self.cluster.add_broker(
                KafkaBroker(
                    sim,
                    f"broker-{i}",
                    network,
                    disk_spec=disk_spec,
                    flush_every_message=flush_every_message,
                )
            )
        self.producer_config = producer_config or KafkaProducerConfig()
        self.keys: List[str] = []
        self.group: Optional[KafkaConsumerGroup] = None

    def setup(self, partitions: int) -> None:
        self.cluster.create_topic("topic", partitions)
        self.keys = modulo_key_table(partitions)
        self.group = KafkaConsumerGroup(self.cluster, "topic", "bench-group")

    def create_tenant(self, name: str, partitions: int, scaling=None):
        """Provision one tenant topic on the shared brokers.  Kafka has
        no auto-scaling; ``scaling`` is accepted for surface parity and
        ignored (the fixed-partition baseline of the experiments)."""
        self.cluster.create_topic(name, partitions)
        return _KafkaTenant(self, name, partitions)

    def new_producer(self, host: str) -> _KafkaProducerHandle:
        return _KafkaProducerHandle(self, host)

    def new_consumer(self, host: str, index: int, event_size: int) -> _KafkaConsumerHandle:
        return _KafkaConsumerHandle(self, host)

    @property
    def crashed(self) -> bool:
        return any(not b.alive for b in self.cluster.brokers.values())

    def drive_bytes_written(self) -> int:
        return sum(b.disk.bytes_written for b in self.cluster.brokers.values())


class _KafkaTenant:
    """One tenant's topic on a shared Kafka cluster."""

    def __init__(self, adapter: KafkaAdapter, tenant: str, partitions: int) -> None:
        self.adapter = adapter
        self.tenant = tenant
        self.name = f"Kafka/{tenant}"
        self.topic = tenant
        self.keys = modulo_key_table(partitions)
        self.group = KafkaConsumerGroup(adapter.cluster, tenant, f"{tenant}-group")
        self.span_attrs = {"tenant": tenant}

    def new_producer(self, host: str) -> _KafkaProducerHandle:
        return _KafkaProducerHandle(
            self.adapter,
            host,
            topic=self.topic,
            keys=self.keys,
            span_attrs=self.span_attrs,
        )

    def new_consumer(self, host: str, index: int, event_size: int) -> _KafkaConsumerHandle:
        return _KafkaConsumerHandle(self.adapter, host, group=self.group)

    @property
    def crashed(self) -> bool:
        return self.adapter.crashed


# ----------------------------------------------------------------------
# Pulsar
# ----------------------------------------------------------------------
class _PulsarProducerHandle:
    def __init__(
        self,
        adapter: "PulsarAdapter",
        host: str,
        topic: str = "topic",
        keys: Optional[List[str]] = None,
        span_attrs: Optional[dict] = None,
    ) -> None:
        self.producer = PulsarProducer(
            adapter.sim, adapter.cluster, topic, host, adapter.producer_config
        )
        self.producer.tracer = adapter.tracer
        if span_attrs:
            self.producer.span_attrs = span_attrs
        self.keys = adapter.keys if keys is None else keys

    def send_group(self, partition: Optional[int], count: int, size: int):
        key = None if partition is None else self.keys[partition]
        return self.producer.send(count * size, key=key, count=count)

    def flush(self):
        return self.producer.flush()


class _PulsarConsumerHandle:
    def __init__(
        self,
        adapter: "PulsarAdapter",
        host: str,
        partitions: List[int],
        topic: str = "topic",
    ) -> None:
        self.consumer = PulsarConsumer(
            adapter.sim, adapter.cluster, topic, host, partitions=partitions
        )

    def receive(self):
        return self.consumer.sim.process(self._receive())

    def _receive(self):
        while True:
            batch = yield self.consumer.receive()
            if batch.record_count:
                return batch.partition, batch.record_count, batch.byte_count


class PulsarAdapter:
    """Deploys the Table 1 Pulsar topology behind the uniform bench surface."""

    name = "Pulsar"

    def __init__(
        self,
        sim: Simulator,
        tiering: bool = True,
        broker_config: Optional[PulsarBrokerConfig] = None,
        producer_config: Optional[PulsarProducerConfig] = None,
        slice_factor: float = 1.0,
    ) -> None:
        self.sim = sim
        self.slice_factor = slice_factor
        self.tracer = None
        network = Network(sim, scaled_network_spec(NetworkSpec(), slice_factor))
        bk = BookKeeperCluster(sim, network)
        lts_spec = scaled_lts_spec(
            LtsSpec(
                per_stream_bandwidth=160e6,
                aggregate_bandwidth=1000e6,
                op_latency=15e-3,
                name="s3",
            ),
            slice_factor,
        )
        self.lts = FileSystemLTS(sim, lts_spec)
        base = broker_config or PulsarBrokerConfig()
        if not tiering:
            base = replace(base, ledger_rollover_bytes=2**62)
        if slice_factor != 1:
            base = replace(
                base,
                per_entry_cpu=base.per_entry_cpu * slice_factor,
                cpu_bandwidth=base.cpu_bandwidth / slice_factor,
                memory_limit=int(base.memory_limit / slice_factor),
                ledger_rollover_bytes=int(base.ledger_rollover_bytes / slice_factor)
                if tiering
                else base.ledger_rollover_bytes,
            )
        self.broker_config = base
        self.cluster = PulsarCluster(sim, network, bk, self.lts, base)
        disk_spec = scaled_disk_spec(DiskSpec(), slice_factor)
        for i in range(3):
            name = f"pulsar-{i}"
            bk.add_bookie(Bookie(sim, name, Disk(sim, disk_spec)))
            self.cluster.add_broker(
                PulsarBroker(sim, name, network, bk, self.lts, base)
            )
        self.producer_config = producer_config or PulsarProducerConfig()
        self.keys: List[str] = []
        self.partitions = 0
        #: set by the runner before consumers are created
        self.total_consumers = 1

    def setup(self, partitions: int) -> None:
        self.cluster.create_topic("topic", partitions)
        self.keys = modulo_key_table(partitions)
        self.partitions = partitions

    def create_tenant(self, name: str, partitions: int, scaling=None):
        """Provision one tenant topic on the shared brokers (``scaling``
        accepted for surface parity; Pulsar partitions are fixed)."""
        self.cluster.create_topic(name, partitions)
        return _PulsarTenant(self, name, partitions)

    def new_producer(self, host: str) -> _PulsarProducerHandle:
        return _PulsarProducerHandle(self, host)

    def new_consumer(self, host: str, index: int, event_size: int) -> _PulsarConsumerHandle:
        mine = [
            p for p in range(self.partitions) if p % self.total_consumers == index
        ]
        return _PulsarConsumerHandle(self, host, mine or [0])

    @property
    def crashed(self) -> bool:
        return self.cluster.any_broker_crashed

    def unoffloaded_backlog(self) -> int:
        return self.cluster.unoffloaded_backlog()

    def drive_bytes_written(self) -> int:
        return sum(
            b.journal_disk.bytes_written
            for b in self.cluster.bk_cluster.bookies.values()
        )


class _PulsarTenant:
    """One tenant's topic on a shared Pulsar cluster."""

    def __init__(self, adapter: PulsarAdapter, tenant: str, partitions: int) -> None:
        self.adapter = adapter
        self.tenant = tenant
        self.name = f"Pulsar/{tenant}"
        self.topic = tenant
        self.partitions = partitions
        self.keys = modulo_key_table(partitions)
        self.span_attrs = {"tenant": tenant}
        #: set by the workload engine before consumers are created
        self.total_consumers = 1

    def new_producer(self, host: str) -> _PulsarProducerHandle:
        return _PulsarProducerHandle(
            self.adapter,
            host,
            topic=self.topic,
            keys=self.keys,
            span_attrs=self.span_attrs,
        )

    def new_consumer(self, host: str, index: int, event_size: int) -> _PulsarConsumerHandle:
        mine = [
            p for p in range(self.partitions) if p % self.total_consumers == index
        ]
        return _PulsarConsumerHandle(self.adapter, host, mine or [0], topic=self.topic)

    @property
    def crashed(self) -> bool:
        return self.adapter.crashed


def attach_tracer(adapter, tracer) -> None:
    """Wire a tracer into an already-built adapter (the one way to
    attach one).

    Must run before ``setup()``: Pravega containers are created lazily
    by the stores and inherit the tracer from their segment store, and
    producers read ``adapter.tracer`` when the runner creates them.
    """
    adapter.tracer = tracer
    stores = getattr(getattr(adapter, "cluster", None), "stores", None)
    if stores:
        for store in stores.values():
            store.tracer = tracer
