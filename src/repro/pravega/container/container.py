"""The segment container (§4.1–§4.4).

Containers "do the heavy lifting on segments": every modification is
converted into an operation, multiplexed into the container's single WAL
log, applied to in-memory state (read index + block cache) once durable,
tiered to LTS by the storage writer, and periodically snapshotted via
metadata-checkpoint operations so a recovering container can rebuild its
exact pre-crash state by replaying the WAL (§4.4).

State discipline: **metadata** (segment lengths, attributes, seals, table
contents) is updated *speculatively at admission* — admission order is
WAL sequence order, so the metadata always reflects a prefix of the
operation sequence and checkpoint snapshots taken at admission are
consistent.  **Data-plane effects** (cache/read-index population, tail
read completion, tiering) happen at *apply* time, after the WAL ack.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import (
    ConditionalUpdateError,
    ContainerOfflineError,
    SegmentExistsError,
    SegmentNotFoundError,
    SegmentSealedError,
    StreamError,
)
from repro.common.metrics import MetricsRegistry, RateMeter
from repro.common.payload import Payload
from repro.bookkeeper.client import BookKeeperClient
from repro.lts.base import LongTermStorage
from repro.pravega.container.cache import BlockCache, CacheFullError, CacheSpec
from repro.pravega.container.durable_log import DataFrame, DurableLog, DurableLogConfig
from repro.pravega.container.operations import (
    OP_HEADER_SIZE,
    AppendOperation,
    CreateSegmentOperation,
    DeleteSegmentOperation,
    MetadataCheckpointOperation,
    Operation,
    OperationType,
    SealSegmentOperation,
    TableUpdateOperation,
    TruncateSegmentOperation,
)
from repro.pravega.container.read_index import CacheManager, SegmentReadIndex
from repro.pravega.container.storage_writer import (
    StorageWriter,
    StorageWriterConfig,
)
from repro.sim.core import SimFuture, Simulator
from repro.zookeeper.service import ZkClient

__all__ = [
    "ContainerConfig",
    "ServingConfig",
    "SegmentState",
    "SegmentInfo",
    "ReadResult",
    "AppendResult",
    "SegmentContainer",
]


@dataclass(frozen=True)
class ServingConfig:
    """Read-path serving-tier policy knobs (DESIGN.md §13).

    Both default off; scenarios opt in per cluster.
    """

    #: single-flight coalescing of LTS chunk fetches: concurrent readers
    #: (and read-ahead) of the same cold chunk share one storage read
    coalesce_lts_fetches: bool = False
    #: CacheManager admission of LTS-fetched runs: "always" admits
    #: directly; "second_touch" starts runs on probation (a one-pass
    #: mass replay cannot evict the tail working set)
    admission_policy: str = "always"


@dataclass(frozen=True)
class ContainerConfig:
    durable_log: DurableLogConfig = field(default_factory=DurableLogConfig)
    storage: StorageWriterConfig = field(default_factory=StorageWriterConfig)
    cache: CacheSpec = field(default_factory=CacheSpec)
    #: read-path serving-tier policies (coalescing, admission)
    serving: ServingConfig = field(default_factory=ServingConfig)
    #: take a metadata checkpoint every this many operations ...
    checkpoint_interval_ops: int = 20_000
    #: ... or this many seconds, whichever comes first
    checkpoint_interval_time: float = 10.0
    #: chunks prefetched in parallel on historical reads (Fig. 12)
    readahead_chunks: int = 4
    #: estimated serialized size of a metadata checkpoint
    checkpoint_size: int = 64 * 1024


@dataclass
class SegmentState:
    """Container-side metadata for one segment."""

    name: str
    is_table: bool = False
    #: truncation point: reads below this offset fail
    start_offset: int = 0
    #: admission-time (speculative) write offset
    length: int = 0
    #: applied (readable) length
    applied_length: int = 0
    sealed: bool = False
    deleted: bool = False
    #: segment attributes (§3.2): writer id -> last event number
    attributes: Dict[str, int] = field(default_factory=dict)
    #: table contents when is_table: key -> (value, version)
    table: Dict[str, Tuple[Any, int]] = field(default_factory=dict)


@dataclass(frozen=True)
class SegmentInfo:
    name: str
    length: int
    start_offset: int
    sealed: bool
    is_table: bool


@dataclass(frozen=True)
class AppendResult:
    offset: int
    duplicate: bool = False


@dataclass(frozen=True)
class ReadResult:
    payload: Payload
    offset: int
    end_of_segment: bool = False


class _AppendAck(SimFuture):
    """A fast-path append's result, registered as the callback of its own
    WAL future: one object per append instead of future + partial + bound
    method."""

    __slots__ = ("container", "op")

    def __init__(self, container: "SegmentContainer", op: AppendOperation) -> None:
        super().__init__(container.sim)
        self.container = container
        self.op = op

    def __call__(self, wal: SimFuture) -> None:
        exc = wal.exception
        if exc is not None:
            container = self.container
            container._unapplied_bytes -= self.op.payload.size
            container.storage_writer.release_check()
            self.set_exception(exc)
        else:
            self.set_result(AppendResult(offset=self.op.offset))


class SegmentContainer:
    """One unit of data-plane parallelism (§2.2)."""

    def __init__(
        self,
        sim: Simulator,
        container_id: int,
        bk_client: BookKeeperClient,
        zk: ZkClient,
        lts: LongTermStorage,
        config: Optional[ContainerConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults=None,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.container_id = container_id
        self.config = config or ContainerConfig()
        self.metrics = metrics or MetricsRegistry()
        #: fault-injection hook (repro.faults.FaultEngine); unwired by default
        self.faults = faults
        #: optional repro.obs.Tracer (spans arrive via append kwargs; the
        #: tracer itself is only needed for background tiering spans)
        self.tracer = tracer
        self.segments: Dict[str, SegmentState] = {}
        self.cache = BlockCache(self.config.cache)
        self.cache_manager = CacheManager(
            self.cache, admission=self.config.serving.admission_policy
        )
        self.cache_manager.eviction_counter = self.metrics.counter("cache.evictions")
        self.read_indexes: Dict[str, SegmentReadIndex] = {}
        self.durable_log = DurableLog(
            sim,
            container_id,
            bk_client,
            zk,
            self.config.durable_log,
            apply_callback=self._apply,
            faults=faults,
        )
        self.durable_log.on_fatal = self._on_wal_failure
        self.storage_writer = StorageWriter(
            sim, container_id, lts, self.config.storage, faults=faults
        )
        self.storage_writer.tracer = tracer
        self.storage_writer.on_flush = self._on_flush
        self.storage_writer.on_truncation_candidate = self._on_truncation_candidate
        self.storage_writer.external_backlog_provider = lambda: self._unapplied_bytes
        self.cache_manager.flushed_offset_provider = self.storage_writer.flushed_offset
        #: bytes admitted to the WAL but not yet applied (counts toward
        #: the ingestion throttle watermarks)
        self._unapplied_bytes = 0
        self._applies_since_evict = 0
        #: parked tail reads per segment: waiter future -> (offset,
        #: max_bytes), each resolved with a ReadResult by the append
        #: fan-out.  Insertion-ordered; O(1) deregistration when a reader
        #: detaches mid-wait (cancel_tail_read).
        self._tail_waiters: Dict[str, Dict[SimFuture, Tuple[int, int]]] = {}
        #: single-flight LTS fetches in progress: (segment, chunk) -> future
        self._inflight_fetches: Dict[Tuple[str, str], SimFuture] = {}
        self._event_rates: Dict[str, RateMeter] = {}
        self._byte_rates: Dict[str, RateMeter] = {}
        #: per-segment (event meter, byte meter) pairs plus prebound hot
        #: counters — the per-append path skips the registry lookups
        self._rate_pairs: Dict[str, Tuple[RateMeter, RateMeter]] = {}
        self._append_count = self.metrics.counter("append.count")
        self._append_bytes = self.metrics.counter("append.bytes")
        self._read_cache_bytes = self.metrics.counter("read.cache_bytes")
        self._read_cache_hits = self.metrics.counter("read.cache_hits")
        self._read_cache_misses = self.metrics.counter("read.cache_misses")
        self._read_lts_ops = self.metrics.counter("read.lts_fetch_ops")
        self._read_coalesced = self.metrics.counter("read.coalesced_fetches")
        self._ops_since_checkpoint = 0
        self._last_checkpoint_sequence = -1
        self._checkpoint_running = False
        self._recovering = False
        self._online = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def online(self) -> bool:
        return self._online

    def start(self) -> SimFuture:
        """Fresh start (no prior state expected)."""

        def run():
            yield self.durable_log.start()
            self._online = True
            self.sim.process(self._checkpoint_timer())

        return self.sim.process(run())

    def recover(self) -> SimFuture:
        """Recovery (§4.4): fence the old WAL, restore the last metadata
        checkpoint, replay subsequent operations, then come online."""

        def run():
            frames, new_log = yield DurableLog.recover(
                self.sim,
                self.container_id,
                self.durable_log.bk_client,
                self.durable_log.zk,
                self.config.durable_log,
                faults=self.faults,
            )
            self.durable_log = new_log
            self.durable_log.apply_callback = self._apply
            self.durable_log.on_fatal = self._on_wal_failure
            operations: List[Operation] = [
                op for frame in frames for op in frame.operations
            ]
            # Find the last checkpoint and restore its snapshot.
            start_index = 0
            for i in range(len(operations) - 1, -1, -1):
                op = operations[i]
                if op.op_type is OperationType.CHECKPOINT and op.snapshot is not None:
                    self._restore_snapshot(op.snapshot)
                    self._last_checkpoint_sequence = op.sequence_number
                    start_index = i + 1
                    break
            self._recovering = True
            try:
                # Operations *before* the checkpoint are retained in the WAL
                # only because their data was not yet flushed to LTS: re-feed
                # their data-plane effects (cache + tiering), metadata comes
                # from the snapshot.
                for op in operations[:start_index]:
                    if op.op_type is OperationType.APPEND:
                        self._apply_append(op)  # type: ignore[arg-type]
                # Operations after the checkpoint replay fully.
                for op in operations[start_index:]:
                    self._replay(op)
            finally:
                self._recovering = False
            self._online = True
            self.sim.process(self._checkpoint_timer())
            return len(operations) - start_index

        return self.sim.process(run())

    def shutdown(self, failure: Optional[BaseException] = None) -> None:
        """Fail-stop (severe error or lost ownership): stop everything."""
        if not self._online and self.durable_log._failure is not None:
            return
        self._online = False
        self.durable_log.shutdown(failure)
        self.storage_writer.stop()
        for waiters in self._tail_waiters.values():
            for fut in waiters:
                if not fut.done:
                    fut.set_exception(
                        failure or ContainerOfflineError(str(self.container_id))
                    )
        self._tail_waiters.clear()
        self._inflight_fetches.clear()

    def _on_wal_failure(self, failure: BaseException) -> None:
        """A fatal WAL error (fencing / quorum loss) fail-stops the
        container (§4.4): "no further operation is allowed"."""
        if self._online:
            self.shutdown(failure)

    # ------------------------------------------------------------------
    # Admission helpers
    # ------------------------------------------------------------------
    def _require_online(self) -> None:
        if not self._online:
            raise ContainerOfflineError(f"container {self.container_id} offline")

    def _state(self, segment: str) -> SegmentState:
        state = self.segments.get(segment)
        if state is None or state.deleted:
            raise SegmentNotFoundError(segment)
        return state

    def _fail(self, exc: BaseException) -> SimFuture:
        fut = self.sim.future()
        fut.set_exception(exc)
        return fut

    # ------------------------------------------------------------------
    # Segment lifecycle operations
    # ------------------------------------------------------------------
    def create_segment(self, segment: str, is_table: bool = False) -> SimFuture:
        try:
            self._require_online()
        except ContainerOfflineError as exc:
            return self._fail(exc)
        if segment in self.segments and not self.segments[segment].deleted:
            return self._fail(SegmentExistsError(segment))
        state = SegmentState(name=segment, is_table=is_table)
        self.segments[segment] = state
        self.storage_writer.track_segment(segment)
        op = CreateSegmentOperation(segment, is_table=is_table)
        self._count_op()
        return self.durable_log.add(op)

    def seal_segment(self, segment: str) -> SimFuture:
        try:
            self._require_online()
            state = self._state(segment)
        except (ContainerOfflineError, SegmentNotFoundError) as exc:
            return self._fail(exc)
        if not state.sealed:
            state.sealed = True
            self._count_op()
            return self.durable_log.add(SealSegmentOperation(segment))
        done = self.sim.future()
        done.set_result(None)
        return done

    def truncate_segment(self, segment: str, offset: int) -> SimFuture:
        try:
            self._require_online()
            state = self._state(segment)
        except (ContainerOfflineError, SegmentNotFoundError) as exc:
            return self._fail(exc)
        if offset < state.start_offset or offset > state.length:
            return self._fail(
                StreamError(
                    f"truncate {segment} at {offset}: outside "
                    f"[{state.start_offset}, {state.length}]"
                )
            )
        state.start_offset = offset
        op = TruncateSegmentOperation(segment, offset=offset)
        self._count_op()
        return self.durable_log.add(op)

    def delete_segment(self, segment: str) -> SimFuture:
        try:
            self._require_online()
            state = self._state(segment)
        except (ContainerOfflineError, SegmentNotFoundError) as exc:
            return self._fail(exc)
        state.deleted = True
        self._count_op()
        return self.durable_log.add(DeleteSegmentOperation(segment))

    def get_info(self, segment: str) -> SegmentInfo:
        state = self._state(segment)
        return SegmentInfo(
            name=segment,
            length=state.applied_length,
            start_offset=state.start_offset,
            sealed=state.sealed,
            is_table=state.is_table,
        )

    def get_attribute(self, segment: str, writer_id: str) -> int:
        """Last event number persisted for ``writer_id`` (§3.2 handshake)."""
        return self._state(segment).attributes.get(writer_id, -1)

    # ------------------------------------------------------------------
    # Append path (§4.1)
    # ------------------------------------------------------------------
    def append(
        self,
        segment: str,
        payload: Payload,
        writer_id: str = "",
        event_number: int = -1,
        event_count: int = 1,
        span=None,
    ) -> SimFuture:
        """Append bytes; resolves with :class:`AppendResult` once durable.

        Duplicate batches (same writer, event number not advancing) are
        acknowledged without re-appending — exactly-once via segment
        attributes (§3.2).  Admission passes through the storage writer's
        throttle gate: if the LTS backlog is too large, the append waits
        (integrated tiering backpressure, §4.3).
        """
        try:
            self._require_online()
            state = self._state(segment)
        except (ContainerOfflineError, SegmentNotFoundError) as exc:
            return self._fail(exc)
        if state.sealed:
            return self._fail(SegmentSealedError(segment))
        if writer_id:
            last = state.attributes.get(writer_id, -1)
            if event_number >= 0 and event_number <= last:
                done = self.sim.future()
                done.set_result(AppendResult(offset=-1, duplicate=True))
                return done

        # Hot path: admission can proceed immediately (throttle gate open,
        # cache healthy) and tracing is off — admit synchronously and chain
        # the ack off the WAL future, skipping the per-append process.
        if (
            span is None
            and not self.storage_writer.throttled
            and not self.cache.overflowing
        ):
            op = AppendOperation(
                segment,
                payload=payload,
                writer_id=writer_id,
                event_number=event_number,
                event_count=event_count,
            )
            op.offset = state.length
            state.length += payload.size
            if writer_id and event_number >= 0:
                state.attributes[writer_id] = event_number
            self._track_rates(segment, event_count, payload.size)
            self._count_op()
            self._unapplied_bytes += payload.size
            result = _AppendAck(self, op)
            self.durable_log.add(op).add_callback(result)
            return result

        return self.sim.process(
            self._admit_append(
                segment, payload, writer_id, event_number, event_count, span
            )
        )

    def _admit_append(
        self, segment, payload, writer_id, event_number, event_count, span
    ):
        """The waiting append path: tracing on, throttle gate closed or
        cache overflowing."""
        append_span = None
        if span is not None:
            append_span = span.child(
                "container.append",
                actor=f"container-{self.container_id}",
                segment=segment,
                bytes=payload.size,
            )
        gate = self.storage_writer.admission_gate()
        if not gate.done:
            self.metrics.counter("append.throttled").add()
            if append_span is not None:
                append_span.annotate("admission-throttled")
            yield gate
        # Cache pressure also throttles ingestion: unflushed data is
        # pinned, so an overflowing cache means tiering is behind.
        while self.cache.overflowing and self._online:
            self.metrics.counter("append.cache_throttled").add()
            self.cache_manager.advance_generation()
            self.cache_manager.maybe_evict()
            yield self.sim.timeout(0.005)
        # Re-validate after a potential wait.
        current = self._state(segment)
        if current.sealed:
            raise SegmentSealedError(segment)
        op = AppendOperation(
            segment,
            payload=payload,
            writer_id=writer_id,
            event_number=event_number,
            event_count=event_count,
        )
        op.offset = current.length
        current.length += payload.size
        if writer_id and event_number >= 0:
            current.attributes[writer_id] = event_number
        self._track_rates(segment, event_count, payload.size)
        self._count_op()
        self._unapplied_bytes += payload.size
        if append_span is not None:
            op.trace_span = append_span
        try:
            yield self.durable_log.add(op)
        except BaseException:
            self._unapplied_bytes -= payload.size
            self.storage_writer.release_check()
            if append_span is not None:
                append_span.annotate("wal-error")
                append_span.finish()
            raise
        if append_span is not None:
            append_span.finish()
            span.absorb(append_span)
        return AppendResult(offset=op.offset)

    def _track_rates(self, segment: str, events: int, nbytes: int) -> None:
        now = self.sim.now
        pair = self._rate_pairs.get(segment)
        if pair is None:
            pair = (RateMeter(half_life=2.0), RateMeter(half_life=2.0))
            self._rate_pairs[segment] = pair
            self._event_rates[segment] = pair[0]
            self._byte_rates[segment] = pair[1]
        pair[0].record(now, events)
        pair[1].record(now, nbytes)
        self._append_count.add()
        self._append_bytes.add(nbytes)

    def load_report(self) -> Dict[str, Tuple[float, float]]:
        """Per-segment (events/s, bytes/s) for the auto-scale feedback loop."""
        now = self.sim.now
        report = {}
        for segment, meter in self._event_rates.items():
            state = self.segments.get(segment)
            if state is None or state.deleted or state.sealed:
                continue
            report[segment] = (
                meter.decay_to(now),
                self._byte_rates[segment].decay_to(now),
            )
        return report

    # ------------------------------------------------------------------
    # Table operations (§2.2 key-value API; used for stream metadata)
    # ------------------------------------------------------------------
    def table_update(
        self, segment: str, updates: Dict[str, Tuple[Any, Optional[int]]]
    ) -> SimFuture:
        """Atomically apply a batch of conditional updates.

        ``updates`` maps key -> (value, expected_version); expected_version
        None means unconditional; value None means removal.  All-or-nothing:
        if any condition fails, the whole transaction fails (§4.3).
        Resolves with {key: new_version}.
        """
        try:
            self._require_online()
            state = self._state(segment)
        except (ContainerOfflineError, SegmentNotFoundError) as exc:
            return self._fail(exc)
        if not state.is_table:
            return self._fail(StreamError(f"{segment} is not a table segment"))
        # Validate all conditions against the speculative table state.
        for key, (value, expected) in updates.items():
            current = state.table.get(key)
            current_version = current[1] if current is not None else -1
            if expected is not None and expected != current_version:
                return self._fail(
                    ConditionalUpdateError(
                        f"{segment}[{key}]: expected v{expected}, "
                        f"found v{current_version}"
                    )
                )
        versions: Dict[str, int] = {}
        for key, (value, _) in updates.items():
            current = state.table.get(key)
            current_version = current[1] if current is not None else -1
            if value is None:
                state.table.pop(key, None)
                versions[key] = -1
            else:
                state.table[key] = (value, current_version + 1)
                versions[key] = current_version + 1
        op = TableUpdateOperation(segment, updates=dict(updates))
        state.length += op.serialized_size - OP_HEADER_SIZE
        self._count_op()

        def run():
            yield self.durable_log.add(op)
            return versions

        return self.sim.process(run())

    def table_get(self, segment: str, keys: List[str]) -> Dict[str, Tuple[Any, int]]:
        """Read table entries (key -> (value, version)); missing keys absent."""
        state = self._state(segment)
        if not state.is_table:
            raise StreamError(f"{segment} is not a table segment")
        return {key: state.table[key] for key in keys if key in state.table}

    def table_keys(self, segment: str) -> List[str]:
        state = self._state(segment)
        return sorted(state.table.keys())

    # ------------------------------------------------------------------
    # Apply (data-plane effects after WAL ack)
    # ------------------------------------------------------------------
    def _read_index(self, segment: str) -> SegmentReadIndex:
        index = self.read_indexes.get(segment)
        if index is None:
            index = SegmentReadIndex(segment, self.cache, self.cache_manager)
            self.read_indexes[segment] = index
        return index

    def _apply(self, op: Operation) -> None:
        if op.op_type is OperationType.APPEND:
            self._apply_append(op)  # type: ignore[arg-type]
        elif op.op_type is OperationType.DELETE:
            self._apply_delete(op.segment)
        elif op.op_type is OperationType.TRUNCATE:
            index = self.read_indexes.get(op.segment)
            if index is not None:
                index.truncate_below(op.offset)  # type: ignore[attr-defined]
            self.sim.process(self._drop_chunks(op.segment, op.offset))  # type: ignore[attr-defined]
        # CREATE / SEAL / TABLE_UPDATE / CHECKPOINT have no data-plane effect:
        # their metadata was updated at admission.
        state = self.segments.get(op.segment)
        if state is not None and op.op_type is OperationType.SEAL:
            self._complete_tail_waiters(op.segment, force_eos=True)

    def _apply_append(self, op: AppendOperation) -> None:
        if not self._recovering:
            self._unapplied_bytes = max(0, self._unapplied_bytes - op.payload.size)
        state = self.segments.get(op.segment)
        if state is None:
            return
        try:
            self._read_index(op.segment).append(op.offset, op.payload)
        except CacheFullError:
            self.cache_manager.make_room()
            self._read_index(op.segment).append(op.offset, op.payload)
        state.applied_length = max(state.applied_length, op.offset + op.payload.size)
        flushed = self.storage_writer.flushed_offset(op.segment)
        if op.offset + op.payload.size > flushed:
            self.storage_writer.add(
                op.segment, op.offset, op.payload, op.sequence_number
            )
        self._complete_tail_waiters(op.segment)
        # Full eviction scans are O(entries); amortize them.
        self._applies_since_evict += 1
        if (
            self._applies_since_evict >= 64
            or self.cache_manager.utilization > 0.95
        ):
            self._applies_since_evict = 0
            self.cache_manager.advance_generation()
            self.cache_manager.maybe_evict()
        self.storage_writer.release_check()

    def _apply_delete(self, segment: str) -> None:
        index = self.read_indexes.pop(segment, None)
        if index is not None:
            index.drop_all()
            self.cache_manager.unregister(index)
        self.sim.process(self._delete_chunks(segment))

    def _drop_chunks(self, segment: str, offset: int):
        yield self.storage_writer.truncate_segment(segment, offset)

    def _delete_chunks(self, segment: str):
        yield self.storage_writer.delete_segment(segment)

    def _replay(self, op: Operation) -> None:
        """Re-apply a recovered operation (metadata + data plane)."""
        if op.op_type is OperationType.CREATE:
            self.segments[op.segment] = SegmentState(
                name=op.segment, is_table=op.is_table  # type: ignore[attr-defined]
            )
            self.storage_writer.track_segment(op.segment)
        elif op.op_type is OperationType.APPEND:
            state = self.segments.get(op.segment)
            if state is None:
                return
            state.length = max(state.length, op.offset + op.payload.size)  # type: ignore[attr-defined]
            if op.writer_id and op.event_number >= 0:  # type: ignore[attr-defined]
                state.attributes[op.writer_id] = max(  # type: ignore[attr-defined]
                    state.attributes.get(op.writer_id, -1), op.event_number  # type: ignore[attr-defined]
                )
            self._apply_append(op)  # type: ignore[arg-type]
        elif op.op_type is OperationType.SEAL:
            state = self.segments.get(op.segment)
            if state is not None:
                state.sealed = True
        elif op.op_type is OperationType.TRUNCATE:
            state = self.segments.get(op.segment)
            if state is not None:
                state.start_offset = max(state.start_offset, op.offset)  # type: ignore[attr-defined]
        elif op.op_type is OperationType.DELETE:
            state = self.segments.get(op.segment)
            if state is not None:
                state.deleted = True
            self._apply_delete(op.segment)
        elif op.op_type is OperationType.TABLE_UPDATE:
            state = self.segments.get(op.segment)
            if state is None:
                return
            for key, (value, _) in op.updates.items():  # type: ignore[attr-defined]
                current = state.table.get(key)
                version = current[1] if current is not None else -1
                if value is None:
                    state.table.pop(key, None)
                else:
                    state.table[key] = (value, version + 1)
        # CHECKPOINT: nothing — an earlier checkpoint was already restored.

    # ------------------------------------------------------------------
    # Read path (§4.2)
    # ------------------------------------------------------------------
    def read(self, segment: str, offset: int, max_bytes: int) -> SimFuture:
        """Read up to ``max_bytes`` from ``offset``; resolves with a
        :class:`ReadResult`.  Three outcomes:

        * cache hit — an already-resolved future;
        * at the segment's end — end-of-segment if sealed, otherwise a
          bare future parked in the tail-waiter table and resolved by the
          append fan-out (:meth:`cancel_tail_read` withdraws it);
        * cache miss — one process that fetches from LTS (with parallel
          read-ahead), then serves the read from the cache or raises.
        """
        try:
            self._require_online()
            state = self._state(segment)
        except (ContainerOfflineError, SegmentNotFoundError) as exc:
            return self._fail(exc)
        if offset < state.start_offset:
            return self._fail(
                StreamError(f"read below truncation point of {segment}")
            )
        available = state.applied_length - offset
        if available <= 0:
            done = self.sim.future()
            if state.sealed:
                done.set_result(ReadResult(Payload.empty(), offset, end_of_segment=True))
                return done
            waiters = self._tail_waiters.get(segment)
            if waiters is None:
                waiters = self._tail_waiters[segment] = {}
            waiters[done] = (offset, max_bytes)
            return done
        cached = self._read_index(segment).read_cached(offset, min(max_bytes, available))
        if cached is not None and cached.size > 0:
            self._read_cache_hits.add()
            self._read_cache_bytes.add(cached.size)
            done = self.sim.future()
            done.set_result(ReadResult(cached, offset))
            return done
        return self.sim.process(self._read_miss(segment, offset, max_bytes))

    def _read_miss(self, segment: str, offset: int, max_bytes: int):
        """A cache miss: fetch the chunk covering ``offset`` from LTS and
        prefetch the next chunks in parallel (Fig. 12), then serve the
        read from the cache."""
        state = self._state(segment)
        want = min(max_bytes, state.applied_length - offset)
        index = self._read_index(segment)
        cached = index.read_cached(offset, want)
        if cached is not None and cached.size > 0:
            # A fetch that landed in a same-instant event ordered before
            # this process's start filled the run since read() missed.
            self._read_cache_hits.add()
            self._read_cache_bytes.add(cached.size)
            return ReadResult(cached, offset)
        self._read_cache_misses.add()
        yield from self._fetch_from_lts(segment, offset)
        cached = index.read_cached(offset, want)
        if cached is None or cached.size == 0:
            raise StreamError(
                f"data unavailable at {segment}@{offset} "
                f"(applied={state.applied_length}, "
                f"flushed={self.storage_writer.flushed_offset(segment)})"
            )
        self.metrics.counter("read.lts_bytes").add(cached.size)
        return ReadResult(cached, offset)

    def _fetch_from_lts(self, segment: str, offset: int):
        chunks = self.storage_writer.chunks_for_range(segment, offset, 1)
        if not chunks:
            # Data not in a chunk: nothing to fetch (caller will fail).
            return
        index = self._read_index(segment)
        all_chunks = self.storage_writer.chunks.get(segment, [])
        position = all_chunks.index(chunks[0])
        coalesce = self.config.serving.coalesce_lts_fetches
        # Read-ahead in parallel (the Fig. 12 mechanism), best-effort: the
        # target chunk is mandatory; prefetched chunks are dropped rather
        # than evicting actively-served data from a full cache.
        readahead = all_chunks[position + 1 : position + 1 + self.config.readahead_chunks]
        for chunk in readahead:
            if index.cached_range_end(chunk.start_offset) is None:
                if coalesce and (segment, chunk.chunk_name) in self._inflight_fetches:
                    continue
                self.sim.process(self._prefetch(index, chunk))
        target = chunks[0]
        shared = key = None
        if coalesce:
            key = (segment, target.chunk_name)
            shared = self._inflight_fetches.get(key)
            if shared is not None:
                # Single-flight: join the fetch already in flight (a
                # concurrent reader's, or our own earlier read-ahead).
                self._read_coalesced.add()
                yield shared
                return
            shared = self._inflight_fetches[key] = self.sim.future()
        try:
            payload = yield from self._read_lts_chunk(target)
            self.cache_manager.advance_generation()
            try:
                index.insert_fetched(target.start_offset, payload)
            except CacheFullError:
                self.cache_manager.make_room()
                index.insert_fetched(target.start_offset, payload)
        except BaseException as exc:
            # Every coalesced waiter sees the leader's failure.
            if shared is not None and not shared.done:
                shared.set_exception(exc)
            raise
        else:
            if shared is not None and not shared.done:
                shared.set_result(None)
        finally:
            if shared is not None and self._inflight_fetches.get(key) is shared:
                del self._inflight_fetches[key]

    def _prefetch(self, index: SegmentReadIndex, chunk) -> "Generator":
        shared = None
        if self.config.serving.coalesce_lts_fetches:
            key = (index.segment, chunk.chunk_name)
            if key in self._inflight_fetches:
                return
            shared = self._inflight_fetches[key] = self.sim.future()
        try:
            payload = yield from self._read_lts_chunk(chunk)
            if index.cached_range_end(chunk.start_offset) is None:
                try:
                    index.insert_fetched(chunk.start_offset, payload)
                except CacheFullError:
                    if self.cache_manager.make_room():
                        try:
                            index.insert_fetched(chunk.start_offset, payload)
                        except CacheFullError:
                            pass  # cache too small for read-ahead; drop it
        except BaseException as exc:
            if shared is not None and not shared.done:
                shared.set_exception(exc)
            raise
        else:
            if shared is not None and not shared.done:
                shared.set_result(None)
        finally:
            if shared is not None and self._inflight_fetches.get(key) is shared:
                del self._inflight_fetches[key]

    def _read_lts_chunk(self, chunk) -> "Generator":
        """One LTS chunk read: injected fault delay, op count, storage
        read.  Run inline (``yield from``) by the fetching process."""
        if self.faults is not None:
            extra = self.faults.lts_op(f"container-{self.container_id}")
            if extra:
                yield self.sim.timeout(extra)
        self._read_lts_ops.add()
        return (yield self.storage_writer.lts.read_chunk(chunk.chunk_name))

    def cancel_tail_read(self, segment: str, fut: SimFuture) -> None:
        """Drop a parked tail-read future (client cancelled the read)."""
        waiters = self._tail_waiters.get(segment)
        if waiters is not None:
            waiters.pop(fut, None)

    def _complete_tail_waiters(self, segment: str, force_eos: bool = False) -> None:
        waiters = self._tail_waiters.get(segment)
        if not waiters:
            return
        if force_eos:
            for fut, (offset, _max_bytes) in waiters.items():
                fut.set_result(ReadResult(Payload.empty(), offset, end_of_segment=True))
            waiters.clear()
            return
        state = self.segments.get(segment)
        length = state.applied_length if state is not None else 0
        ready = [
            (fut, offset, max_bytes)
            for fut, (offset, max_bytes) in waiters.items()
            if offset < length
        ]
        if not ready:
            return
        for fut, _, _ in ready:
            del waiters[fut]
        # Shared tail fan-out: every parked reader waits at (one of a
        # handful of) distinct offsets, so one append's payload is read
        # from the cache once per distinct (offset, want) and the same
        # ReadResult resolves every waiter, in registration order —
        # per-reader delivery work does not scale with payload size.
        index = self.read_indexes.get(segment)
        shared: Dict[Tuple[int, int], Optional[ReadResult]] = {}
        for fut, offset, max_bytes in ready:
            key = (offset, min(max_bytes, length - offset))
            if key in shared:
                result = shared[key]
            else:
                result = None
                if index is not None:
                    cached = index.read_cached(offset, key[1])
                    if cached is not None and cached.size > 0:
                        result = ReadResult(cached, offset)
                shared[key] = result
            if result is not None:
                self._read_cache_hits.add()
                self._read_cache_bytes.add(result.payload.size)
                fut.set_result(result)
            else:
                # Woken past the cache (rare: the run was evicted between
                # apply and fan-out) — fall back to a full read, chained
                # into the parked future.
                self._chain(self.read(segment, offset, max_bytes), fut)

    @staticmethod
    def _chain(src: SimFuture, dst: SimFuture) -> None:
        def copy(f: SimFuture) -> None:
            if dst.done:
                return
            if f._exception is not None:
                dst.set_exception(f._exception)
            else:
                dst.set_result(f._value)

        src.add_callback(copy)

    # ------------------------------------------------------------------
    # Flush / truncation feedback
    # ------------------------------------------------------------------
    def _on_flush(self, segment: str, flushed_offset: int) -> None:
        self.metrics.counter("tier.flushes").add()

    def _on_truncation_candidate(self, flushed_sequence: int) -> None:
        if self._last_checkpoint_sequence < 0:
            return
        up_to = min(flushed_sequence, self._last_checkpoint_sequence - 1)
        if up_to >= 0:
            self.durable_log.truncate(up_to)

    # ------------------------------------------------------------------
    # Metadata checkpoints (§4.4)
    # ------------------------------------------------------------------
    def _count_op(self) -> None:
        self._ops_since_checkpoint += 1
        if self._ops_since_checkpoint >= self.config.checkpoint_interval_ops:
            self._take_checkpoint()

    def _checkpoint_timer(self):
        while self._online:
            yield self.sim.timeout(self.config.checkpoint_interval_time)
            if not self._online:
                return
            if self._ops_since_checkpoint > 0:
                self._take_checkpoint()

    def _take_checkpoint(self) -> None:
        if self._checkpoint_running or not self.durable_log.online:
            return
        self._checkpoint_running = True
        self._ops_since_checkpoint = 0
        op = MetadataCheckpointOperation(
            segment="",
            snapshot=self._snapshot(),
            snapshot_size=self.config.checkpoint_size,
        )
        fut = self.durable_log.add(op)

        def done(result: SimFuture) -> None:
            self._checkpoint_running = False
            if result.exception is None:
                self._last_checkpoint_sequence = op.sequence_number
                self.metrics.counter("checkpoints").add()
                # A fresh checkpoint may unlock WAL truncation.
                self._on_truncation_candidate(
                    self.storage_writer.truncation_sequence()
                )

        fut.add_callback(done)

    def _snapshot(self) -> dict:
        return {
            "segments": {
                name: copy.deepcopy(state) for name, state in self.segments.items()
            },
            "storage": self.storage_writer.snapshot(),
        }

    def _restore_snapshot(self, snapshot: dict) -> None:
        self.segments = {
            name: copy.deepcopy(state)
            for name, state in snapshot["segments"].items()
        }
        for state in self.segments.values():
            # applied state re-derives from replay; lengths in the snapshot
            # were speculative-at-admission and are authoritative.
            state.applied_length = min(state.applied_length, state.length)
        self.storage_writer.restore(snapshot["storage"])
        for segment in self.segments:
            self.storage_writer.track_segment(segment)

    # ------------------------------------------------------------------
