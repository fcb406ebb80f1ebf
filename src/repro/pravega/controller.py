"""The Pravega control plane (§2.2, §3.1).

The controller orchestrates stream lifecycle operations (create, seal,
truncate, scale, delete), maintains the segment metadata that orders
segments across scaling epochs (successors/predecessors), enforces stream
policies (retention and auto-scaling via the data-plane feedback loop),
and answers clients' metadata queries (active segments, successors,
segment-to-store mapping).

Stream metadata is persisted in Pravega itself through the key-value
table API built on top of segments (§2.2) — the `_system` scope hosts a
table segment per controller; the coordination service only stores the
container-assignment map and election state, "meaning that Zookeeper is
not a bottleneck."
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import (
    StreamError,
    StreamExistsError,
    StreamNotFoundError,
    StreamSealedError,
)
from repro.common.keyspace import KeyRange, is_partition, merge_ranges, split_range
from repro.common.metrics import MetricsRegistry
from repro.pravega.model import (
    EpochRecord,
    RetentionType,
    ScaleType,
    ScalingPolicy,
    SegmentRecord,
    StreamConfiguration,
    segment_qualified_name,
)
from repro.pravega.segment_store import SegmentStoreCluster
from repro.sim.core import SimFuture, Simulator, all_of
from repro.sim.network import Network

__all__ = ["ControllerConfig", "StreamMetadata", "Controller", "SegmentLocation"]

SYSTEM_SCOPE = "_system"


@dataclass(frozen=True)
class ControllerConfig:
    #: auto-scale feedback loop polling interval (seconds)
    scale_poll_interval: float = 2.0
    #: a segment's rate must exceed target * this factor to split
    split_threshold_factor: float = 1.1
    #: two adjacent segments both under target * this factor merge
    merge_threshold_factor: float = 0.45
    #: minimum age before a segment is eligible for scaling (seconds)
    segment_min_age: float = 10.0
    #: retention enforcement interval (seconds)
    retention_poll_interval: float = 30.0
    #: processing latency per controller request
    request_processing_time: float = 100e-6


@dataclass
class StreamMetadata:
    scope: str
    name: str
    config: StreamConfiguration
    segments: Dict[int, SegmentRecord] = field(default_factory=dict)
    epochs: List[EpochRecord] = field(default_factory=list)
    next_segment_number: int = 0
    sealed: bool = False
    deleted: bool = False
    #: head-of-stream truncation offsets: segment number -> offset
    truncation: Dict[int, int] = field(default_factory=dict)
    #: periodic stream cuts for time-based retention: (time, {segment: offset})
    retention_cuts: List[Tuple[float, Dict[int, int]]] = field(default_factory=list)

    @property
    def scoped_name(self) -> str:
        return f"{self.scope}/{self.name}"

    def active_segments(self) -> List[SegmentRecord]:
        current = self.epochs[-1]
        return [self.segments[number] for number in current.active_segments]

    def check_key_space_invariant(self) -> bool:
        """Active segment ranges must exactly partition [0, 1)."""
        return is_partition(r.key_range for r in self.active_segments())


@dataclass(frozen=True)
class SegmentLocation:
    """What a client needs to talk to a segment."""

    segment_number: int
    qualified_name: str
    key_range: KeyRange
    store_host: str


class Controller:
    """A controller instance (the control plane)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        store_cluster: SegmentStoreCluster,
        host: str = "controller",
        config: Optional[ControllerConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.store_cluster = store_cluster
        self.host = host
        self.config = config or ControllerConfig()
        self.metrics = metrics or MetricsRegistry()
        self.streams: Dict[str, StreamMetadata] = {}
        self.scopes: set[str] = set()
        self._scale_loop_running = False
        self._retention_loop_running = False
        self._metadata_table = f"{SYSTEM_SCOPE}/_tables/streams-{host}"
        self._metadata_ready = False
        #: scale event log for experiments (time, stream, kind, details)
        self.scale_events: List[Tuple[float, str, str, str]] = []
        #: per-poll load observations for auto-scaled streams (time,
        #: stream, active segments, total events/s, total bytes/s) —
        #: lets experiments correlate scale decisions with offered load
        self.load_samples: List[Tuple[float, str, int, float, float]] = []

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def bootstrap(self) -> SimFuture:
        """Create the system metadata table and start policy loops."""

        def run():
            store = self.store_cluster.store_for_segment(self._metadata_table)
            yield store.rpc_create_segment(self.host, self._metadata_table, is_table=True)
            self._metadata_ready = True
            self.start_policy_loops()

        return self.sim.process(run())

    def start_policy_loops(self) -> None:
        if not self._scale_loop_running:
            self._scale_loop_running = True
            self.sim.process(self._auto_scale_loop())
        if not self._retention_loop_running:
            self._retention_loop_running = True
            self.sim.process(self._retention_loop())

    def _persist_stream(self, metadata: StreamMetadata):
        """Write the stream record to the system table (self-hosted metadata)."""
        if not self._metadata_ready:
            return None
        record = json.dumps(
            {
                "scope": metadata.scope,
                "name": metadata.name,
                "epoch": len(metadata.epochs) - 1,
                "segments": sorted(
                    s.segment_number for s in metadata.active_segments()
                ),
                "sealed": metadata.sealed,
            }
        ).encode()
        store = self.store_cluster.store_for_segment(self._metadata_table)
        return store.rpc_table_update(
            self.host, self._metadata_table, {metadata.scoped_name: (record, None)}
        )

    # ------------------------------------------------------------------
    # Scope / stream lifecycle
    # ------------------------------------------------------------------
    def create_scope(self, scope: str) -> SimFuture:
        fut = self.sim.future()
        self.scopes.add(scope)
        self.sim.schedule(
            self.config.request_processing_time, lambda: fut.set_result(scope)
        )
        return fut

    def _metadata(self, scope: str, stream: str) -> StreamMetadata:
        metadata = self.streams.get(f"{scope}/{stream}")
        if metadata is None or metadata.deleted:
            raise StreamNotFoundError(f"{scope}/{stream}")
        return metadata

    def create_stream(
        self, scope: str, stream: str, config: Optional[StreamConfiguration] = None
    ) -> SimFuture:
        """Create the stream: initial segments partition [0, 1) evenly."""
        config = config or StreamConfiguration()
        key = f"{scope}/{stream}"

        def run():
            if key in self.streams and not self.streams[key].deleted:
                raise StreamExistsError(key)
            metadata = StreamMetadata(scope, stream, config)
            count = max(config.scaling.min_segments, 1)
            ranges = (
                [KeyRange.full()]
                if count == 1
                else split_range(KeyRange.full(), count)
            )
            numbers = []
            creations = []
            for key_range in ranges:
                record = SegmentRecord(
                    segment_number=metadata.next_segment_number,
                    key_range=key_range,
                    creation_epoch=0,
                    creation_time=self.sim.now,
                )
                metadata.segments[record.segment_number] = record
                numbers.append(record.segment_number)
                metadata.next_segment_number += 1
                qualified = record.qualified_name(scope, stream)
                store = self.store_cluster.store_for_segment(qualified)
                creations.append(store.rpc_create_segment(self.host, qualified))
            yield all_of(self.sim, creations)
            metadata.epochs.append(EpochRecord(0, numbers, self.sim.now))
            self.streams[key] = metadata
            persist = self._persist_stream(metadata)
            if persist is not None:
                yield persist
            return metadata

        return self.sim.process(run())

    def seal_stream(self, scope: str, stream: str) -> SimFuture:
        def run():
            metadata = self._metadata(scope, stream)
            seals = []
            for record in metadata.active_segments():
                qualified = record.qualified_name(scope, stream)
                store = self.store_cluster.store_for_segment(qualified)
                seals.append(store.rpc_seal_segment(self.host, qualified))
                record.sealed = True
            yield all_of(self.sim, seals)
            metadata.sealed = True
            persist = self._persist_stream(metadata)
            if persist is not None:
                yield persist

        return self.sim.process(run())

    def delete_stream(self, scope: str, stream: str) -> SimFuture:
        def run():
            metadata = self._metadata(scope, stream)
            if not metadata.sealed:
                raise StreamError(f"{scope}/{stream} must be sealed before deletion")
            deletions = []
            for record in metadata.segments.values():
                qualified = record.qualified_name(scope, stream)
                store = self.store_cluster.store_for_segment(qualified)
                deletions.append(store.rpc_delete_segment(self.host, qualified))
            yield all_of(self.sim, deletions)
            metadata.deleted = True

        return self.sim.process(run())

    # ------------------------------------------------------------------
    # Metadata queries (client-facing)
    # ------------------------------------------------------------------
    def get_active_segments(self, scope: str, stream: str) -> List[SegmentLocation]:
        """Synchronous core; clients go through ControllerClient for latency."""
        metadata = self._metadata(scope, stream)
        locations = []
        for record in metadata.active_segments():
            qualified = record.qualified_name(scope, stream)
            store = self.store_cluster.store_for_segment(qualified)
            locations.append(
                SegmentLocation(
                    record.segment_number, qualified, record.key_range, store.name
                )
            )
        return locations

    def get_successors(
        self, scope: str, stream: str, segment_number: int
    ) -> Dict[int, List[int]]:
        """Successors of a sealed segment -> their predecessor lists (§3.3)."""
        metadata = self._metadata(scope, stream)
        record = metadata.segments.get(segment_number)
        if record is None:
            raise StreamNotFoundError(f"segment {segment_number} of {scope}/{stream}")
        return {
            successor: list(metadata.segments[successor].predecessors)
            for successor in record.successors
        }

    def get_location(self, scope: str, stream: str, segment_number: int) -> SegmentLocation:
        metadata = self._metadata(scope, stream)
        record = metadata.segments[segment_number]
        qualified = record.qualified_name(scope, stream)
        store = self.store_cluster.store_for_segment(qualified)
        return SegmentLocation(
            record.segment_number, qualified, record.key_range, store.name
        )

    def head_segments(self, scope: str, stream: str) -> List[SegmentLocation]:
        """Epoch-0 (or oldest unretired) segments, for readers starting at head."""
        metadata = self._metadata(scope, stream)
        first_epoch = metadata.epochs[0]
        return [
            self.get_location(scope, stream, number)
            for number in first_epoch.active_segments
            if number in metadata.segments
        ]

    # ------------------------------------------------------------------
    # Scaling (§3.1, Fig. 2)
    # ------------------------------------------------------------------
    def scale_stream(
        self,
        scope: str,
        stream: str,
        seal_segments: List[int],
        new_ranges: List[KeyRange],
    ) -> SimFuture:
        """Manual/automatic scale: seal ``seal_segments``, create successors
        covering ``new_ranges`` (which must exactly partition the sealed
        key space).  Successor segments are created *before* the sealed
        segments stop accepting appends (Fig. 2b ordering), and writers
        only move over once the seal is visible.
        """

        def run():
            metadata = self._metadata(scope, stream)
            if metadata.sealed:
                raise StreamSealedError(f"{scope}/{stream}")
            current_epoch = metadata.epochs[-1]
            for number in seal_segments:
                if number not in current_epoch.active_segments:
                    raise StreamError(
                        f"segment {number} is not active in epoch {current_epoch.epoch}"
                    )
            sealed_ranges = [metadata.segments[n].key_range for n in seal_segments]
            target_range = merge_ranges(sealed_ranges)
            if not is_partition(new_ranges, of=target_range):
                raise StreamError("new ranges do not partition the sealed key space")

            # 1. Create the successor segments (no appends allowed yet by
            #    the writer protocol: they are not visible as active).
            new_numbers: List[int] = []
            creations = []
            epoch = current_epoch.epoch + 1
            for key_range in sorted(new_ranges):
                record = SegmentRecord(
                    segment_number=metadata.next_segment_number,
                    key_range=key_range,
                    creation_epoch=epoch,
                    creation_time=self.sim.now,
                    predecessors=[
                        n
                        for n in seal_segments
                        if metadata.segments[n].key_range.overlaps(key_range)
                    ],
                )
                metadata.segments[record.segment_number] = record
                new_numbers.append(record.segment_number)
                metadata.next_segment_number += 1
                qualified = record.qualified_name(scope, stream)
                store = self.store_cluster.store_for_segment(qualified)
                creations.append(store.rpc_create_segment(self.host, qualified))
            yield all_of(self.sim, creations)

            # 2. Seal the old segments: in-flight appends to them fail with
            #    SegmentSealedError and writers re-route to successors.
            seals = []
            for number in seal_segments:
                record = metadata.segments[number]
                record.sealed = True
                record.successors = [
                    n
                    for n in new_numbers
                    if metadata.segments[n].key_range.overlaps(record.key_range)
                ]
                qualified = record.qualified_name(scope, stream)
                store = self.store_cluster.store_for_segment(qualified)
                seals.append(store.rpc_seal_segment(self.host, qualified))
            yield all_of(self.sim, seals)

            # 3. Activate the new epoch.
            active = [
                n for n in current_epoch.active_segments if n not in seal_segments
            ] + new_numbers
            metadata.epochs.append(EpochRecord(epoch, sorted(active), self.sim.now))
            assert metadata.check_key_space_invariant()
            persist = self._persist_stream(metadata)
            if persist is not None:
                yield persist
            kind = "scale-up" if len(new_ranges) > len(seal_segments) else "scale-down"
            self.scale_events.append(
                (
                    self.sim.now,
                    f"{scope}/{stream}",
                    kind,
                    f"sealed {seal_segments} -> created {new_numbers}",
                )
            )
            self.metrics.counter(f"scale.{kind}").add()
            return new_numbers

        return self.sim.process(run())

    # ------------------------------------------------------------------
    # Auto-scaling feedback loop (§3.1, §5.8)
    # ------------------------------------------------------------------
    def _auto_scale_loop(self):
        config = self.config
        while True:
            yield self.sim.timeout(config.scale_poll_interval)
            # Gather per-segment load reports from the data plane.
            load: Dict[str, Tuple[float, float]] = {}
            for store in self.store_cluster.stores.values():
                if store.alive:
                    load.update(store.load_report())
            for metadata in list(self.streams.values()):
                if metadata.deleted or metadata.sealed:
                    continue
                policy = metadata.config.scaling
                if policy.scale_type is ScaleType.FIXED:
                    continue
                self._record_load_sample(metadata, load)
                yield from self._evaluate_stream_scaling(metadata, policy, load)

    def _record_load_sample(
        self,
        metadata: StreamMetadata,
        load: Dict[str, Tuple[float, float]],
    ) -> None:
        """Log one (time, stream, segments, rates) observation.

        Pure bookkeeping on data already gathered by the poll — no
        simulation events, so enabling it cannot perturb timing."""
        active = metadata.active_segments()
        events_rate = 0.0
        bytes_rate = 0.0
        for record in active:
            qualified = record.qualified_name(metadata.scope, metadata.name)
            ev, by = load.get(qualified, (0.0, 0.0))
            events_rate += ev
            bytes_rate += by
        self.load_samples.append(
            (
                self.sim.now,
                f"{metadata.scope}/{metadata.name}",
                len(active),
                events_rate,
                bytes_rate,
            )
        )

    def _segment_rate(
        self,
        metadata: StreamMetadata,
        record: SegmentRecord,
        policy: ScalingPolicy,
        load: Dict[str, Tuple[float, float]],
    ) -> float:
        qualified = record.qualified_name(metadata.scope, metadata.name)
        events_rate, bytes_rate = load.get(qualified, (0.0, 0.0))
        if policy.scale_type is ScaleType.BY_RATE_IN_EVENTS_PER_SEC:
            return events_rate
        return bytes_rate

    def _evaluate_stream_scaling(
        self,
        metadata: StreamMetadata,
        policy: ScalingPolicy,
        load: Dict[str, Tuple[float, float]],
    ):
        config = self.config
        now = self.sim.now
        active = metadata.active_segments()
        # Scale-up: split the hottest over-target segment.
        hottest: Optional[SegmentRecord] = None
        hottest_rate = 0.0
        for record in active:
            if now - record.creation_time < config.segment_min_age:
                continue
            rate = self._segment_rate(metadata, record, policy, load)
            if rate > policy.target_rate * config.split_threshold_factor and rate > hottest_rate:
                hottest, hottest_rate = record, rate
        if hottest is not None:
            parts = min(
                max(policy.scale_factor, 2),
                max(2, int(hottest_rate / max(policy.target_rate, 1e-9))),
            )
            yield self.scale_stream(
                metadata.scope,
                metadata.name,
                [hottest.segment_number],
                split_range(hottest.key_range, parts),
            )
            return
        # Scale-down: merge adjacent cold segments (both under threshold).
        if len(active) > policy.min_segments:
            ordered = sorted(active, key=lambda r: r.key_range.low)
            for left, right in zip(ordered, ordered[1:]):
                if len(active) <= policy.min_segments:
                    break
                if (
                    now - left.creation_time < config.segment_min_age
                    or now - right.creation_time < config.segment_min_age
                ):
                    continue
                left_rate = self._segment_rate(metadata, left, policy, load)
                right_rate = self._segment_rate(metadata, right, policy, load)
                threshold = policy.target_rate * config.merge_threshold_factor
                if left_rate < threshold and right_rate < threshold:
                    merged = merge_ranges([left.key_range, right.key_range])
                    yield self.scale_stream(
                        metadata.scope,
                        metadata.name,
                        [left.segment_number, right.segment_number],
                        [merged],
                    )
                    return

    # ------------------------------------------------------------------
    # Retention (§2.1)
    # ------------------------------------------------------------------
    def truncate_stream(
        self, scope: str, stream: str, cut: Dict[int, int]
    ) -> SimFuture:
        """Truncate at a stream cut (segment number -> offset)."""

        def run():
            metadata = self._metadata(scope, stream)
            truncations = []
            for segment_number, offset in cut.items():
                record = metadata.segments.get(segment_number)
                if record is None:
                    continue
                qualified = record.qualified_name(scope, stream)
                store = self.store_cluster.store_for_segment(qualified)
                truncations.append(
                    store.rpc_truncate_segment(self.host, qualified, offset)
                )
                metadata.truncation[segment_number] = max(
                    metadata.truncation.get(segment_number, 0), offset
                )
            yield all_of(self.sim, truncations)

        return self.sim.process(run())

    def _retention_loop(self):
        while True:
            yield self.sim.timeout(self.config.retention_poll_interval)
            for metadata in list(self.streams.values()):
                if metadata.deleted or metadata.sealed:
                    continue
                policy = metadata.config.retention
                if policy.retention_type is RetentionType.SIZE:
                    yield from self._enforce_size_retention(metadata, int(policy.limit))
                elif policy.retention_type is RetentionType.TIME:
                    yield from self._enforce_time_retention(metadata, policy.limit)

    def _enforce_size_retention(self, metadata: StreamMetadata, limit: int):
        """Truncate the stream head so retained bytes stay under ``limit``."""
        sizes: Dict[int, Tuple[int, int]] = {}
        total = 0
        for record in metadata.active_segments():
            qualified = record.qualified_name(metadata.scope, metadata.name)
            store = self.store_cluster.store_for_segment(qualified)
            try:
                info = yield store.rpc_get_info(self.host, qualified)
            except Exception:  # noqa: BLE001 - skip unreachable segments
                continue
            retained = info.length - info.start_offset
            sizes[record.segment_number] = (info.start_offset, info.length)
            total += retained
        if total <= limit:
            return
        excess = total - limit
        cut: Dict[int, int] = {}
        for segment_number, (start, length) in sizes.items():
            retained = length - start
            share = int(excess * (retained / max(total, 1)))
            cut[segment_number] = min(start + share, length)
        yield self.truncate_stream(metadata.scope, metadata.name, cut)
        self.metrics.counter("retention.truncations").add()

    def _enforce_time_retention(self, metadata: StreamMetadata, max_age: float):
        """Truncate everything older than ``max_age`` seconds.

        Each retention tick records a stream cut (segment lengths at that
        instant); once a recorded cut is older than the limit, the stream
        is truncated up to the newest such cut — so data is kept for at
        least ``max_age`` and at most ``max_age`` + one poll interval.
        """
        cut: Dict[int, int] = {}
        for record in metadata.active_segments():
            qualified = record.qualified_name(metadata.scope, metadata.name)
            store = self.store_cluster.store_for_segment(qualified)
            try:
                info = yield store.rpc_get_info(self.host, qualified)
            except Exception:  # noqa: BLE001 - skip unreachable segments
                continue
            cut[record.segment_number] = info.length
        metadata.retention_cuts.append((self.sim.now, cut))
        deadline = self.sim.now - max_age
        expired = [c for c in metadata.retention_cuts if c[0] <= deadline]
        if not expired:
            return
        newest_time, newest_cut = expired[-1]
        metadata.retention_cuts = [
            c for c in metadata.retention_cuts if c[0] > deadline
        ]
        if newest_cut:
            yield self.truncate_stream(metadata.scope, metadata.name, newest_cut)
            self.metrics.counter("retention.truncations").add()
