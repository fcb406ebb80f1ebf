"""Segment-container operations (§4.1).

"In the segment store, every request that modifies a segment is converted
into an operation and queued up for processing.  There are multiple types
of operations, each indicating a different modification to the segment."
All operations of a container are multiplexed into its single WAL log.

These are plain ``__slots__`` classes rather than dataclasses: an
:class:`AppendOperation` is allocated for every admitted append, so the
per-instance dict and ``__post_init__`` dispatch are measurable overhead
on the message path.  ``op_type`` is a class attribute (one per subclass,
never per instance).
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional

from repro.common.payload import Payload

__all__ = [
    "OperationType",
    "Operation",
    "AppendOperation",
    "CreateSegmentOperation",
    "SealSegmentOperation",
    "TruncateSegmentOperation",
    "DeleteSegmentOperation",
    "TableUpdateOperation",
    "MetadataCheckpointOperation",
    "OP_HEADER_SIZE",
]

#: serialized header per operation in a WAL data frame
OP_HEADER_SIZE = 32


class OperationType(enum.Enum):
    APPEND = "append"
    CREATE = "create"
    SEAL = "seal"
    TRUNCATE = "truncate"
    MERGE = "merge"
    DELETE = "delete"
    TABLE_UPDATE = "table_update"
    CHECKPOINT = "checkpoint"


class Operation:
    """Base class; ``sequence_number`` is assigned by the durable log."""

    __slots__ = ("segment", "sequence_number", "trace_span")

    #: overridden by each subclass; never assigned per instance
    op_type: OperationType = None  # type: ignore[assignment]

    def __init__(self, segment: str) -> None:
        self.segment = segment
        self.sequence_number = -1
        #: trace span attached at admission (repro.obs), None when untraced
        self.trace_span: Optional[object] = None

    @property
    def serialized_size(self) -> int:
        return OP_HEADER_SIZE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(segment={self.segment!r}, "
            f"seq={self.sequence_number})"
        )


class AppendOperation(Operation):
    """An append of ``payload`` bytes to a segment.

    Carries the writer's dedup state: the ⟨writer id, event number⟩ pair is
    persisted in the segment's attributes as part of processing the append
    (§3.2), so duplicates can be detected after reconnects.
    """

    __slots__ = ("payload", "writer_id", "event_number", "event_count", "offset")

    op_type = OperationType.APPEND

    def __init__(
        self,
        segment: str,
        payload: Optional[Payload] = None,
        writer_id: str = "",
        event_number: int = -1,
        event_count: int = 1,
    ) -> None:
        self.segment = segment
        self.sequence_number = -1
        self.trace_span = None
        self.payload = payload if payload is not None else Payload.empty()
        self.writer_id = writer_id
        self.event_number = event_number
        self.event_count = event_count
        #: assigned by the container at admission: segment offset of this append
        self.offset = -1

    @property
    def serialized_size(self) -> int:
        return OP_HEADER_SIZE + self.payload.size


class CreateSegmentOperation(Operation):
    __slots__ = ("is_table",)

    op_type = OperationType.CREATE

    def __init__(self, segment: str, is_table: bool = False) -> None:
        super().__init__(segment)
        #: non-empty for table segments (key-value API, §2.2)
        self.is_table = is_table


class SealSegmentOperation(Operation):
    __slots__ = ()

    op_type = OperationType.SEAL


class TruncateSegmentOperation(Operation):
    __slots__ = ("offset",)

    op_type = OperationType.TRUNCATE

    def __init__(self, segment: str, offset: int = 0) -> None:
        super().__init__(segment)
        self.offset = offset


class DeleteSegmentOperation(Operation):
    __slots__ = ()

    op_type = OperationType.DELETE


class TableUpdateOperation(Operation):
    """A serialized batch of key-value table updates (§4.3).

    ``updates`` maps key -> (value, expected_version or None); a None value
    means removal.  All updates in one operation commit atomically.
    """

    __slots__ = ("updates",)

    op_type = OperationType.TABLE_UPDATE

    def __init__(self, segment: str, updates: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(segment)
        self.updates = updates if updates is not None else {}

    @property
    def serialized_size(self) -> int:
        payload = 0
        for key, (value, _) in self.updates.items():
            payload += len(str(key)) + 16
            if value is None:
                continue
            try:
                payload += len(value)
            except TypeError:
                payload += 16  # scalar values serialize small
        return OP_HEADER_SIZE + payload


class MetadataCheckpointOperation(Operation):
    """A snapshot of the container metadata (§4.4).

    Recovery reads the last checkpoint and replays subsequent operations.
    """

    __slots__ = ("snapshot", "snapshot_size")

    op_type = OperationType.CHECKPOINT

    def __init__(
        self,
        segment: str,
        snapshot: Optional[Any] = None,
        snapshot_size: int = 0,
    ) -> None:
        super().__init__(segment)
        self.snapshot = snapshot
        self.snapshot_size = snapshot_size

    @property
    def serialized_size(self) -> int:
        return OP_HEADER_SIZE + self.snapshot_size
