"""Kafka brokers: leader-follower replication, produce/fetch RPCs.

Replication matches the paper's configuration (Table 1): 3 replicas,
``acks=all`` with ``min.insync.replicas=2`` — a produce is acknowledged
once the leader and at least one follower have the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import KafkaError, NotEnoughReplicasError
from repro.common.payload import Payload
from repro.sim.core import SimFuture, Simulator
from repro.sim.disk import Disk, DiskSpec, PageCache
from repro.sim.network import Network
from repro.kafka.log import BATCH_OVERHEAD, LogRecordBatch, PartitionLog

__all__ = ["KafkaBroker", "KafkaCluster", "TopicPartition"]

RPC_OVERHEAD = 64


@dataclass(frozen=True)
class TopicPartition:
    topic: str
    partition: int

    @property
    def log_name(self) -> str:
        return f"{self.topic}-{self.partition}"


class KafkaBroker:
    """One broker: a drive, a page cache, and hosted partition replicas."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        network: Network,
        disk_spec: Optional[DiskSpec] = None,
        flush_every_message: bool = False,
        request_processing_time: float = 30e-6,
    ) -> None:
        self.sim = sim
        self.name = name
        self.network = network
        self.disk = Disk(sim, disk_spec or DiskSpec())
        self.page_cache = PageCache(sim, self.disk)
        self.flush_every_message = flush_every_message
        self.request_processing_time = request_processing_time
        self.logs: Dict[TopicPartition, PartitionLog] = {}
        self.alive = True
        #: fault-injection hook (repro.faults.FaultEngine); unwired by default
        self.faults = None
        #: tail-fetch waiters per partition
        self._fetch_waiters: Dict[TopicPartition, List[Tuple[int, SimFuture]]] = {}
        #: per partition, the append callback that wakes its fetchers
        #: (bound once here, not per append)
        self._wakers: Dict[TopicPartition, Callable[[SimFuture], None]] = {}

    def host_replica(self, tp: TopicPartition) -> PartitionLog:
        log = PartitionLog(
            self.sim,
            tp.log_name,
            self.disk,
            self.page_cache,
            flush_every_message=self.flush_every_message,
        )
        self.logs[tp] = log
        self._wakers[tp] = partial(self._wake_fetchers, tp)
        return log

    def append_local(
        self, tp: TopicPartition, payload: Payload, record_count: int,
        producer_id: str = "", sequence: int = -1, span=None
    ) -> SimFuture:
        if self.faults is not None:
            self.faults.node_op(self.name)
        if not self.alive:
            fut = self.sim.future()
            fut.set_exception(KafkaError(f"broker {self.name} is down"))
            return fut
        log = self.logs[tp]
        if span is None:
            # Keep the untraced call signature unchanged (tests wrap
            # PartitionLog.append with span-less fakes).
            result = log.append(payload, record_count, producer_id, sequence)
        else:
            result = log.append(
                payload, record_count, producer_id, sequence, span=span
            )
        result.add_callback(self._wakers[tp])
        return result

    def _wake_fetchers(self, tp: TopicPartition, _append: SimFuture) -> None:
        waiters = self._fetch_waiters.get(tp)
        if not waiters:
            return
        log = self.logs[tp]
        remaining = []
        for offset, fut in waiters:
            if offset < log.leo:
                if not fut.done:
                    fut.set_result(None)
            else:
                remaining.append((offset, fut))
        self._fetch_waiters[tp] = remaining

    def crash(self, lose_unsynced: bool = False) -> None:
        """Fail-stop; with ``lose_unsynced`` the page-cache-dirty tail of
        every hosted log is discarded (power loss without flush)."""
        self.alive = False
        if lose_unsynced:
            for log in self.logs.values():
                log.lose_unsynced_tail()

    def restart(self) -> None:
        self.alive = True

    def wait_for_data(self, tp: TopicPartition, offset: int) -> SimFuture:
        fut = self.sim.future()
        log = self.logs.get(tp)
        if log is not None and offset < log.leo:
            fut.set_result(None)
        else:
            self._fetch_waiters.setdefault(tp, []).append((offset, fut))
        return fut


class KafkaCluster:
    """Topic/partition metadata plus the produce/fetch protocol."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        replication_factor: int = 3,
        min_insync_replicas: int = 2,
        replication_poll_delay: float = 0.3e-3,
    ) -> None:
        self.sim = sim
        self.network = network
        self.replication_factor = replication_factor
        self.min_insync_replicas = min_insync_replicas
        #: followers replicate by *fetching* from the leader; this models
        #: the extra fetch-round latency vs a push design like Bookkeeper's
        self.replication_poll_delay = replication_poll_delay
        self.brokers: Dict[str, KafkaBroker] = {}
        #: partition -> [leader, follower, ...]
        self.assignments: Dict[TopicPartition, List[str]] = {}
        self.topics: Dict[str, int] = {}

    def add_broker(self, broker: KafkaBroker) -> None:
        self.brokers[broker.name] = broker

    def create_topic(self, topic: str, partitions: int) -> None:
        names = sorted(self.brokers)
        if len(names) < self.replication_factor:
            raise NotEnoughReplicasError(
                f"{len(names)} brokers < replication factor {self.replication_factor}"
            )
        self.topics[topic] = partitions
        for partition in range(partitions):
            tp = TopicPartition(topic, partition)
            start = partition % len(names)
            replicas = [
                names[(start + i) % len(names)]
                for i in range(self.replication_factor)
            ]
            self.assignments[tp] = replicas
            for name in replicas:
                self.brokers[name].host_replica(tp)

    def leader(self, tp: TopicPartition) -> KafkaBroker:
        return self.brokers[self.assignments[tp][0]]

    # ------------------------------------------------------------------
    # Produce path
    # ------------------------------------------------------------------
    def produce(
        self,
        client_host: str,
        tp: TopicPartition,
        payload: Payload,
        record_count: int,
        producer_id: str = "",
        sequence: int = -1,
        acks_all: bool = True,
        span=None,
    ) -> SimFuture:
        """Send a record batch to the partition leader; replicate; ack.

        Resolves once ``min.insync.replicas`` replicas (including the
        leader) have the batch — with the per-replica durability mode the
        brokers were configured with.
        """
        return self.sim.process(self._produce(
            client_host, tp, self.assignments[tp], payload, record_count,
            producer_id, sequence, acks_all, span,
        ))

    def _produce(
        self, client_host, tp, replicas, payload, record_count, producer_id,
        sequence, acks_all, span,
    ):
        leader = self.brokers[replicas[0]]
        wire = payload.size + BATCH_OVERHEAD + RPC_OVERHEAD
        if span is not None:
            t_request = self.sim.now
        yield self.network.delay(client_host, leader.name, wire)
        if span is not None:
            span.component("network", self.sim.now - t_request)
        if not leader.alive:
            if span is not None:
                span.annotate("leader-down")
                span.finish()
            raise KafkaError(f"leader {leader.name} is down")
        yield leader.request_processing_time
        append_span = None
        if span is not None:
            append_span = span.child(
                "kafka.log.append", actor=leader.name, bytes=payload.size
            )
        leader_done = leader.append_local(
            tp, payload, record_count, producer_id, sequence, span=append_span
        )
        needed = (self.min_insync_replicas - 1) if acks_all else 0
        follower_acks = _FollowerAcks(
            self.sim, self.network, leader.name, tp, payload, record_count,
            producer_id, sequence, wire, needed, len(replicas) - 1,
        )
        if needed == 0:
            follower_acks.set_result(None)
        self._start_fetch_rounds(follower_acks, replicas)
        yield leader_done
        if span is not None:
            if append_span is not None:
                span.absorb(append_span)
            t_leader = self.sim.now
        yield follower_acks
        if span is not None:
            # Incremental wait for the in-sync followers beyond the
            # leader's own append (they replicate concurrently).
            span.component("quorum", self.sim.now - t_leader)
            t_reply = self.sim.now
        yield self.network.delay(leader.name, client_host, RPC_OVERHEAD)
        if span is not None:
            span.component("network", self.sim.now - t_reply)
            span.finish()
        return self.brokers[replicas[0]].logs[tp].leo

    def _start_fetch_rounds(self, acks: "_FollowerAcks", replicas: List[str]) -> None:
        """Follower-fetch round: the batch leaves the leader only when each
        follower's next fetch arrives (its poll timer carries the follower)."""
        fetch = acks.fetch
        delay = self.replication_poll_delay
        for name in replicas[1:]:
            self.sim.timeout(delay, self.brokers[name]).add_callback(fetch)

    # ------------------------------------------------------------------
    # Fetch path (consumers)
    # ------------------------------------------------------------------
    def fetch(
        self,
        client_host: str,
        tp: TopicPartition,
        offset: int,
        max_bytes: int = 1024 * 1024,
        max_wait: float = 0.5,
    ) -> SimFuture:
        """Consumer fetch with long polling (fetch.min.bytes=1).

        Resolves with (batches, next_offset, bytes).
        """
        leader = self.leader(tp)

        def run():
            yield self.network.delay(client_host, leader.name, RPC_OVERHEAD)
            if not leader.alive:
                raise KafkaError(f"leader {leader.name} is down")
            yield leader.request_processing_time
            log = leader.logs[tp]
            if offset >= log.leo:
                wait = leader.wait_for_data(tp, offset)
                timeout = self.sim.timeout(max_wait)
                done = self.sim.future()
                wait.add_callback(lambda f: done.set_result(None) if not done.done else None)
                timeout.add_callback(lambda f: done.set_result(None) if not done.done else None)
                yield done
            batches: List[LogRecordBatch] = []
            taken = 0
            next_offset = offset
            for batch in log.read(offset):
                if taken + batch.payload.size > max_bytes and batches:
                    break
                batches.append(batch)
                taken += batch.payload.size + BATCH_OVERHEAD
                next_offset = batch.last_offset + 1
            yield self.network.delay(leader.name, client_host, RPC_OVERHEAD + taken)
            return batches, next_offset, taken

        return self.sim.process(run())


class _FollowerAcks(SimFuture):
    """The in-sync wait of one produce: resolves once ``needed`` followers
    have the batch, fails once more followers failed than that allows.

    One object per produce instead of a state dict plus closures per
    follower.  :meth:`fetch` is the callback of every follower's poll
    timer, which resolves with that follower; the object itself is the
    callback of the leader -> follower transfer, which resolves with the
    follower too (so the batch is appended there), and of that append,
    which resolves with the batch or an error (so it is counted).
    """

    __slots__ = (
        "network", "leader", "tp", "payload", "record_count", "producer_id",
        "sequence", "wire", "needed", "tolerated", "acked", "failed",
    )

    def __init__(
        self, sim: Simulator, network: Network, leader: str, tp: TopicPartition,
        payload: Payload, record_count: int, producer_id: str, sequence: int,
        wire: int, needed: int, followers: int,
    ) -> None:
        SimFuture.__init__(self, sim)
        self.network = network
        self.leader = leader
        self.tp = tp
        self.payload = payload
        self.record_count = record_count
        self.producer_id = producer_id
        self.sequence = sequence
        self.wire = wire
        self.needed = needed
        self.tolerated = followers - needed
        self.acked = 0
        self.failed = 0

    def fetch(self, poll: SimFuture) -> None:
        follower = poll._value
        self.network.transfer(
            self.leader, follower.name, self.wire, payload=follower
        ).add_callback(self)

    def __call__(self, fut: SimFuture) -> None:
        exc = fut._exception
        if exc is None and isinstance(fut._value, KafkaBroker):
            # the batch reached the follower: append it there
            fut._value.append_local(
                self.tp, self.payload, self.record_count, self.producer_id,
                self.sequence,
            ).add_callback(self)
            return
        if exc is None:
            self.acked += 1
        else:
            self.failed += 1
        if self._done:
            return
        if self.acked >= self.needed:
            self.set_result(None)
        elif self.failed > self.tolerated:
            self.set_exception(
                NotEnoughReplicasError(f"{self.tp}: in-sync replicas unavailable")
            )
