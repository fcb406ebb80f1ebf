"""Pulsar-like baseline: brokers over Bookkeeper, one managed ledger per
topic partition, client-side batching, and tiered-storage offloading that
is *not* integrated with the write path.

Behavioural properties taken from the paper's evaluation:

* the broker relays each producer batch as one Bookkeeper entry; with
  random routing keys across many partitions, client batches carry few
  events, so the entry rate explodes and the broker CPU saturates
  (Figs. 6a, 9, 10b, 11);
* with ``ackQuorum < ensemble`` the broker buffers entries that the
  slowest bookie has not confirmed; under high parallelism this buffer
  grows until the broker fails with an out-of-memory error — the
  instability of Fig. 10b, avoided by the paper's "favorable"
  configuration (ackQ=3, no routing keys);
* ledger rollover + offloadThreshold=0 + deleteLag=0 move closed ledgers
  to LTS, but producers are never throttled when the offloader lags, so
  the un-offloaded backlog can grow without bound (Figs. 7a, 12);
* dispatch to consumers is batched on a timer, putting a floor on
  end-to-end latency (Fig. 8a: no p95 under ~12 ms).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import BrokerCrashedError, PulsarError
from repro.common.payload import Payload
from repro.bookkeeper.client import BookKeeperCluster, LedgerHandle
from repro.lts.base import LongTermStorage
from repro.sim.core import SimFuture, Simulator
from repro.sim.network import Network
from repro.sim.resources import FifoServer

__all__ = ["PulsarBrokerConfig", "PulsarBroker", "ManagedLedger", "PulsarCluster"]

RPC_OVERHEAD = 64


@dataclass(frozen=True)
class PulsarBrokerConfig:
    #: Bookkeeper replication (Table 1: e=3, wQ=3, aQ=2; "favorable" aQ=3)
    ensemble_size: int = 3
    write_quorum: int = 3
    ack_quorum: int = 2
    #: broker CPU cost per relayed entry
    per_entry_cpu: float = 45e-6
    cpu_bandwidth: float = 2.5e9
    #: unconfirmed-replication buffer that crashes the broker when exceeded
    memory_limit: int = 512 * 1024 * 1024
    #: roll the current ledger after this many bytes (1-5 min in the paper;
    #: sized here so rollover happens during benchmark runs)
    ledger_rollover_bytes: int = 256 * 1024 * 1024
    #: consumer dispatch batching interval (e2e latency floor, Fig. 8a)
    dispatch_interval: float = 10e-3
    #: offloader threads per broker
    offload_threads: int = 2
    request_processing_time: float = 30e-6


@dataclass(slots=True)
class _LedgerRecord:
    handle: LedgerHandle
    first_offset: int
    size: int = 0
    closed: bool = False
    offloaded: bool = False
    lts_object: Optional[str] = None
    deleted_from_bk: bool = False


@dataclass(slots=True)
class _EntryIndex:
    """Partition offset -> (ledger record, entry size, record count)."""

    offset: int
    size: int
    records: int
    ledger: _LedgerRecord


class ManagedLedger:
    """One partition's sequence of Bookkeeper ledgers (+ offloaded tail)."""

    def __init__(self, broker: "PulsarBroker", name: str) -> None:
        self.broker = broker
        self.name = name
        self.ledgers: List[_LedgerRecord] = []
        self.entries: List[_EntryIndex] = []
        #: parallel list of entry offsets (bisect index for reads)
        self.entry_offsets: List[int] = []
        #: next byte offset within the partition
        self.length = 0
        self.records = 0
        self._open_new_ledger()

    def _open_new_ledger(self) -> _LedgerRecord:
        config = self.broker.config
        handle = self.broker.bk_client.create_ledger(
            ensemble_size=config.ensemble_size,
            write_quorum=config.write_quorum,
            ack_quorum=config.ack_quorum,
        )
        record = _LedgerRecord(handle=handle, first_offset=self.length)
        self.ledgers.append(record)
        return record

    @property
    def current(self) -> _LedgerRecord:
        return self.ledgers[-1]

    def maybe_rollover(self) -> None:
        if self.current.size >= self.broker.config.ledger_rollover_bytes:
            self.current.closed = True
            self.current.handle.close()
            self._open_new_ledger()
            self.broker.schedule_offload(self)

    def unoffloaded_backlog(self) -> int:
        """Closed-but-not-yet-offloaded bytes (grows without bound when the
        offloader lags — no backpressure, Fig. 12)."""
        return sum(l.size for l in self.ledgers if l.closed and not l.offloaded)


class PulsarBroker:
    """One broker (colocated with a bookie in Table 1's deployment)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        network: Network,
        bk_cluster: BookKeeperCluster,
        lts: LongTermStorage,
        config: Optional[PulsarBrokerConfig] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.network = network
        self.bk_client = bk_cluster.client(name)
        self.lts = lts
        self.config = config or PulsarBrokerConfig()
        self.cpu = FifoServer(sim, name=f"cpu:{name}")
        self.ledgers: Dict[str, ManagedLedger] = {}
        self.alive = True
        #: fault-injection hook (repro.faults.FaultEngine); unwired by default
        self.faults = None
        #: bytes sent to bookies but not yet confirmed by *all* replicas
        self.replication_buffer = 0
        self._offload_queue: List[Tuple[ManagedLedger, _LedgerRecord]] = []
        self._offload_workers = 0
        #: dispatch waiters per partition: (offset, future)
        self._dispatch_waiters: Dict[str, List[Tuple[int, SimFuture]]] = {}
        self._dispatcher_running: Dict[str, bool] = {}
        self.entries_written = 0
        self.bytes_written = 0
        self.bytes_offloaded = 0

    # ------------------------------------------------------------------
    def host_partition(self, partition_name: str) -> ManagedLedger:
        ledger = ManagedLedger(self, partition_name)
        self.ledgers[partition_name] = ledger
        return ledger

    def crash(self, reason: str = "out of memory") -> None:
        self.alive = False
        for waiters in self._dispatch_waiters.values():
            for _, fut in waiters:
                if not fut.done:
                    fut.set_exception(BrokerCrashedError(f"{self.name}: {reason}"))
        self._dispatch_waiters.clear()

    def restart(self) -> None:
        self.alive = True

    # ------------------------------------------------------------------
    # Produce path
    # ------------------------------------------------------------------
    def publish(
        self,
        client_host: str,
        partition: str,
        payload: Payload,
        record_count: int,
        span=None,
    ) -> SimFuture:
        """One producer batch -> one Bookkeeper entry."""
        return self.sim.process(
            self._publish(client_host, partition, payload, record_count, span)
        )

    def _publish(self, client_host, partition, payload, record_count, span):
        if span is not None:
            t_request = self.sim.now
        yield self.network.delay(
            client_host, self.name, payload.size + RPC_OVERHEAD
        )
        if span is not None:
            span.component("network", self.sim.now - t_request)
        if self.faults is not None:
            self.faults.node_op(self.name)
        if not self.alive:
            if span is not None:
                span.annotate("broker-down")
                span.finish()
            raise BrokerCrashedError(self.name)
        yield self.config.request_processing_time
        # Track replication memory from entry *receipt*: bytes held by
        # the broker — queued for its CPU, in flight to bookies, or
        # awaiting the full write quorum — all occupy the pending
        # buffer.  Counting only post-CPU entries hid the dominant
        # overload mode: a CPU-saturated broker accumulates its
        # backlog upstream of the bookie write path and never
        # reached the old (post-CPU) limit check.
        self.replication_buffer += payload.size
        if self.replication_buffer > self.config.memory_limit:
            self.crash("replication buffer exceeded memory limit")
            if span is not None:
                span.annotate("replication-buffer-oom")
                span.finish()
            raise BrokerCrashedError(self.name)
        yield self.cpu.delay(
            self.config.per_entry_cpu + payload.size / self.config.cpu_bandwidth
        )
        if not self.alive:
            # Crashed (OOM or injected fault) while this entry sat in
            # the CPU queue; it must not reach a dead broker's ledger.
            if span is not None:
                span.annotate("broker-down")
                span.finish()
            raise BrokerCrashedError(self.name)
        managed = self.ledgers[partition]
        ledger = managed.current
        offset = managed.length
        managed.length += payload.size
        managed.records += record_count
        ledger.size += payload.size
        managed.entries.append(
            _EntryIndex(offset, payload.size, record_count, ledger)
        )
        managed.entry_offsets.append(offset)
        append = managed.current.handle.append(payload, span=span)
        # ackQuorum acks complete `append`; the *full* write quorum is
        # what frees the buffer.  With aQ == wQ they coincide; with
        # aQ < wQ the slowest bookie's lag keeps memory occupied — we
        # model the lag as an extra journal-backlog delay on the
        # slowest bookie.
        lag = None
        if self.config.ack_quorum < self.config.write_quorum:
            lag = self._slowest_bookie_lag()
        append.add_callback(_BufferRelease(self, payload.size, lag))
        yield append
        self.entries_written += 1
        self.bytes_written += payload.size
        managed.maybe_rollover()
        self._wake_dispatch(partition)
        if span is not None:
            t_reply = self.sim.now
        yield self.network.delay(self.name, client_host, RPC_OVERHEAD)
        if span is not None:
            span.component("network", self.sim.now - t_reply)
            span.finish()
        return offset

    def _slowest_bookie_lag(self) -> float:
        """Extra time until the slowest replica confirms, estimated from
        the maximum journal backlog across the ensemble's bookies."""
        cluster = self.bk_client.cluster
        backlog = 0.0
        for bookie in cluster.bookies.values():
            backlog = max(backlog, bookie.journal_disk.backlog_seconds())
        return backlog

    # ------------------------------------------------------------------
    # Offloader (best-effort, no backpressure)
    # ------------------------------------------------------------------
    def schedule_offload(self, managed: ManagedLedger) -> None:
        for record in managed.ledgers:
            if record.closed and not record.offloaded and (
                (managed, record) not in self._offload_queue
            ):
                self._offload_queue.append((managed, record))
        self._kick_offloaders()

    def _kick_offloaders(self) -> None:
        while (
            self._offload_workers < self.config.offload_threads
            and self._offload_queue
        ):
            managed, record = self._offload_queue.pop(0)
            self._offload_workers += 1
            self.sim.process(self._offload(managed, record))

    def _offload(self, managed: ManagedLedger, record: _LedgerRecord):
        try:
            name = f"pulsar/{managed.name}/ledger-{record.handle.ledger_id}"
            yield self.lts.write_chunk(name, Payload.synthetic(record.size))
            record.offloaded = True
            record.lts_object = name
            self.bytes_offloaded += record.size
            # offloadDeleteLag=0: remove from Bookkeeper immediately.
            yield self.bk_client.delete_ledger(record.handle.ledger_id)
            record.deleted_from_bk = True
        finally:
            self._offload_workers -= 1
            self._kick_offloaders()

    # ------------------------------------------------------------------
    # Dispatch path (consumers)
    # ------------------------------------------------------------------
    def _wake_dispatch(self, partition: str) -> None:
        if self._dispatcher_running.get(partition):
            return
        if self._dispatch_waiters.get(partition):
            self._dispatcher_running[partition] = True
            self.sim.process(self._dispatch_timer(partition))

    def _dispatch_timer(self, partition: str):
        # Batched dispatch: deliveries go out on the dispatch interval.
        yield self.config.dispatch_interval
        self._dispatcher_running[partition] = False
        managed = self.ledgers.get(partition)
        if managed is None:
            return
        waiters = self._dispatch_waiters.get(partition, [])
        remaining = []
        for offset, fut in waiters:
            if offset < managed.length:
                if not fut.done:
                    fut.set_result(None)
            else:
                remaining.append((offset, fut))
        self._dispatch_waiters[partition] = remaining
        if remaining:
            self._wake_dispatch(partition)

    def wait_for_data(self, partition: str, offset: int) -> SimFuture:
        fut = self.sim.future()
        managed = self.ledgers.get(partition)
        if managed is not None and offset < managed.length:
            # Still pays the dispatch batching delay.
            self.sim.schedule(
                self.config.dispatch_interval / 2.0, lambda: fut.set_result(None)
            )
            return fut
        self._dispatch_waiters.setdefault(partition, []).append((offset, fut))
        self._wake_dispatch(partition)
        return fut

    def read(self, client_host: str, partition: str, offset: int, max_bytes: int) -> SimFuture:
        """Consumer read: tail from BK/cache, historical from LTS objects.

        Historical reads of offloaded ledgers go through the broker's
        offload reader, which fetches one ledger object at a time per
        broker (no cross-ledger readahead) — the mechanism behind Fig. 12's
        limited catch-up throughput.
        """

        def run():
            yield self.network.delay(client_host, self.name, RPC_OVERHEAD)
            if not self.alive:
                raise BrokerCrashedError(self.name)
            yield self.config.request_processing_time
            managed = self.ledgers[partition]
            if offset >= managed.length:
                yield self.wait_for_data(partition, offset)
            # Locate entries starting at offset.
            taken = 0
            records = 0
            fetched_ledgers = set()
            entries = managed.entries
            # Entries are offset-sorted: bisect to the start instead of
            # scanning the partition's whole history per read.
            start = bisect_right(managed.entry_offsets, offset) - 1
            if start < 0:
                start = 0
            for i in range(start, len(entries)):
                entry = entries[i]
                if entry.offset + entry.size <= offset:
                    continue
                if taken >= max_bytes:
                    break
                ledger = entry.ledger
                if ledger.offloaded and ledger.deleted_from_bk:
                    if ledger.lts_object not in fetched_ledgers:
                        fetched_ledgers.add(ledger.lts_object)
                        yield self._offload_read(ledger)
                yield self.cpu.delay(self.config.per_entry_cpu / 4)
                taken += entry.size
                records += entry.records
            yield self.network.delay(self.name, client_host, RPC_OVERHEAD + taken)
            return records, taken, offset + taken

        return self.sim.process(run())

    def _offload_read(self, ledger: _LedgerRecord) -> SimFuture:
        """Serialized per broker: one offloaded-ledger fetch at a time."""

        def run():
            while self._offload_read_busy:
                yield 0.001
            self._offload_read_busy = True
            try:
                yield self.lts.read_chunk(ledger.lts_object)
            finally:
                self._offload_read_busy = False

        return self.sim.process(run())

    _offload_read_busy = False


class _BufferRelease:
    """Frees one entry's bytes from the broker's replication buffer once
    the full write quorum has it: the callback of the entry's append,
    which with ``lag`` (aQ < wQ) first re-arms itself as a timer for the
    slowest bookie's lag."""

    __slots__ = ("broker", "size", "lag")

    def __init__(self, broker: PulsarBroker, size: int, lag: Optional[float]) -> None:
        self.broker = broker
        self.size = size
        self.lag = lag

    def __call__(self, _append: Optional[SimFuture] = None) -> None:
        lag = self.lag
        if lag is not None:
            self.lag = None
            self.broker.sim.schedule(lag, self)
            return
        broker = self.broker
        broker.replication_buffer = max(0, broker.replication_buffer - self.size)


class PulsarCluster:
    """Topic metadata + broker registry."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        bk_cluster: BookKeeperCluster,
        lts: LongTermStorage,
        config: Optional[PulsarBrokerConfig] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.bk_cluster = bk_cluster
        self.lts = lts
        self.config = config or PulsarBrokerConfig()
        self.brokers: Dict[str, PulsarBroker] = {}
        self.topics: Dict[str, int] = {}
        #: partition name -> broker name
        self.assignments: Dict[str, str] = {}

    def add_broker(self, broker: PulsarBroker) -> None:
        self.brokers[broker.name] = broker

    def create_topic(self, topic: str, partitions: int) -> None:
        names = sorted(self.brokers)
        self.topics[topic] = partitions
        for partition in range(partitions):
            name = f"{topic}-{partition}"
            owner = names[partition % len(names)]
            self.assignments[name] = owner
            self.brokers[owner].host_partition(name)

    def broker_for(self, partition_name: str) -> PulsarBroker:
        return self.brokers[self.assignments[partition_name]]

    def unoffloaded_backlog(self) -> int:
        return sum(
            ledger.unoffloaded_backlog()
            for broker in self.brokers.values()
            for ledger in broker.ledgers.values()
        )

    @property
    def any_broker_crashed(self) -> bool:
        return any(not b.alive for b in self.brokers.values())
