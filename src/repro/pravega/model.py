"""Stream and segment data model (§2.1).

Streams are durable, elastic, append-only, unbounded sequences of bytes
organized into scopes.  Internally a stream is divided into segments —
shards of the stream's routing-key space — and the set of *active*
segments changes over time through scale events.  The controller tracks
segments in *epochs*: each scale event seals some segments and creates
successors whose key ranges exactly partition the sealed ranges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.keyspace import KeyRange

__all__ = [
    "ScaleType",
    "ScalingPolicy",
    "RetentionType",
    "RetentionPolicy",
    "StreamConfiguration",
    "SegmentRecord",
    "EpochRecord",
    "segment_qualified_name",
    "StreamCut",
]


class ScaleType(enum.Enum):
    """How a stream scales: fixed parallelism or rate-driven (§2.1)."""
    FIXED = "fixed"
    BY_RATE_IN_EVENTS_PER_SEC = "events_rate"
    BY_RATE_IN_BYTES_PER_SEC = "bytes_rate"


@dataclass(frozen=True)
class ScalingPolicy:
    """Auto-scaling policy of a stream (§2.1, §3.1).

    ``target_rate`` is events/s or bytes/s per segment depending on
    ``scale_type``; ``scale_factor`` is how many successors a hot segment
    splits into; ``min_segments`` bounds scale-down.
    """

    scale_type: ScaleType = ScaleType.FIXED
    target_rate: float = 0.0
    scale_factor: int = 2
    min_segments: int = 1

    @classmethod
    def fixed(cls, num_segments: int) -> "ScalingPolicy":
        return cls(ScaleType.FIXED, 0.0, 2, num_segments)

    @classmethod
    def by_event_rate(
        cls, events_per_sec: float, scale_factor: int = 2, min_segments: int = 1
    ) -> "ScalingPolicy":
        return cls(
            ScaleType.BY_RATE_IN_EVENTS_PER_SEC, events_per_sec, scale_factor, min_segments
        )

    @classmethod
    def by_byte_rate(
        cls, bytes_per_sec: float, scale_factor: int = 2, min_segments: int = 1
    ) -> "ScalingPolicy":
        return cls(
            ScaleType.BY_RATE_IN_BYTES_PER_SEC, bytes_per_sec, scale_factor, min_segments
        )


class RetentionType(enum.Enum):
    """What bounds retained data: nothing, total size, or age (§2.1)."""
    NONE = "none"
    SIZE = "size"
    TIME = "time"


@dataclass(frozen=True)
class RetentionPolicy:
    """Automatic stream truncation policy (§2.1)."""

    retention_type: RetentionType = RetentionType.NONE
    #: bytes (SIZE) or seconds (TIME) to retain
    limit: float = 0.0

    @classmethod
    def none(cls) -> "RetentionPolicy":
        return cls(RetentionType.NONE, 0.0)

    @classmethod
    def by_size(cls, max_bytes: int) -> "RetentionPolicy":
        return cls(RetentionType.SIZE, float(max_bytes))

    @classmethod
    def by_time(cls, max_seconds: float) -> "RetentionPolicy":
        return cls(RetentionType.TIME, max_seconds)


@dataclass(frozen=True)
class StreamConfiguration:
    scaling: ScalingPolicy = field(default_factory=lambda: ScalingPolicy.fixed(1))
    retention: RetentionPolicy = field(default_factory=RetentionPolicy.none)


def segment_qualified_name(scope: str, stream: str, segment_number: int) -> str:
    """The globally unique name a segment store identifies a segment by."""
    return f"{scope}/{stream}/{segment_number}"


@dataclass
class SegmentRecord:
    """Controller-side metadata for one stream segment."""

    segment_number: int
    key_range: KeyRange
    #: epoch in which the segment was created
    creation_epoch: int
    #: simulated time of creation
    creation_time: float = 0.0
    sealed: bool = False
    #: segment numbers this segment replaced (empty for epoch-0 segments)
    predecessors: List[int] = field(default_factory=list)
    #: segment numbers that replaced this segment (set when sealed by scale)
    successors: List[int] = field(default_factory=list)

    def qualified_name(self, scope: str, stream: str) -> str:
        return segment_qualified_name(scope, stream, self.segment_number)


@dataclass
class EpochRecord:
    """One scaling epoch: the set of active segments between scale events."""

    epoch: int
    active_segments: List[int]
    start_time: float = 0.0


@dataclass(frozen=True)
class StreamCut:
    """A consistent position in a stream: segment number -> offset."""

    positions: tuple  # tuple of (segment_number, offset) pairs, sorted

    @classmethod
    def of(cls, positions: Dict[int, int]) -> "StreamCut":
        return cls(tuple(sorted(positions.items())))
