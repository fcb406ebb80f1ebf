"""Kafka consumer groups: partition assignment + fetch loop."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.core import SimFuture, Simulator
from repro.kafka.broker import KafkaCluster, TopicPartition
from repro.kafka.log import LogRecordBatch

__all__ = ["KafkaConsumerGroup", "KafkaConsumer", "ConsumedBatch"]


@dataclass
class ConsumedBatch:
    partition: int
    base_offset: int
    record_count: int
    byte_count: int
    read_time: float


class KafkaConsumerGroup:
    """Static round-robin partition assignment (rebalance on membership)."""

    def __init__(self, cluster: KafkaCluster, topic: str, group_id: str) -> None:
        self.cluster = cluster
        self.topic = topic
        self.group_id = group_id
        self.members: List["KafkaConsumer"] = []

    def join(self, consumer: "KafkaConsumer") -> None:
        self.members.append(consumer)
        self._rebalance()

    def _rebalance(self) -> None:
        partitions = list(range(self.cluster.topics[self.topic]))
        for member in self.members:
            member.assigned = []
        for i, partition in enumerate(partitions):
            if self.members:
                self.members[i % len(self.members)].assigned.append(partition)


class KafkaConsumer:
    """One consumer: fetch loop over its assigned partitions."""

    def __init__(
        self,
        sim: Simulator,
        cluster: KafkaCluster,
        group: KafkaConsumerGroup,
        host: str,
        fetch_max_bytes: int = 1024 * 1024,
        start_offsets: Optional[Dict[int, int]] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.group = group
        self.host = host
        self.fetch_max_bytes = fetch_max_bytes
        self.assigned: List[int] = []
        self.offsets: Dict[int, int] = dict(start_offsets or {})
        self._cursor = 0
        self.records_read = 0
        self.bytes_read = 0
        group.join(self)

    def poll(self) -> SimFuture:
        """Fetch from the next assigned partition (round-robin).

        Resolves with a list of :class:`ConsumedBatch` (possibly empty when
        the long poll timed out with no data).
        """

        def run():
            if not self.assigned:
                yield self.sim.timeout(0.05)
                return []
            self._cursor = (self._cursor + 1) % len(self.assigned)
            partition = self.assigned[self._cursor]
            offset = self.offsets.get(partition, 0)
            tp = TopicPartition(self.group.topic, partition)
            batches, next_offset, nbytes = yield self.cluster.fetch(
                self.host, tp, offset, self.fetch_max_bytes
            )
            self.offsets[partition] = next_offset
            consumed = []
            for batch in batches:
                consumed.append(
                    ConsumedBatch(
                        partition=partition,
                        base_offset=batch.base_offset,
                        record_count=batch.record_count,
                        byte_count=batch.payload.size,
                        read_time=self.sim.now,
                    )
                )
                self.records_read += batch.record_count
                self.bytes_read += batch.payload.size
            return consumed

        return self.sim.process(run())
