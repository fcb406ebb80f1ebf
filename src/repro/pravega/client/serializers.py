"""Event wire framing.

"Applications make sense of events using (de)serializers as internally
Pravega does not keep the notion of events (i.e., Pravega does not
internally track event boundaries)" (§2.1).  Applications hand the
client bytes; the client frames each event with a small header, and the
segment store only ever sees bytes.

Two framing modes exist, matching the :class:`~repro.common.payload.Payload`
duality: real content uses an 8-byte length prefix and round-trips exactly;
synthetic (size-only) events carry just their framed size, and fixed-size
deserialization recovers event boundaries arithmetically — which is what
the benchmark workloads (fixed event sizes, as in OpenMessaging Benchmark)
need.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.common.errors import ReproError
from repro.common.payload import Payload

__all__ = [
    "EVENT_HEADER_SIZE",
    "frame_event",
    "frame_synthetic_event",
    "unframe_events",
    "framed_size",
]

EVENT_HEADER_SIZE = 8


def framed_size(event_bytes: int) -> int:
    return EVENT_HEADER_SIZE + event_bytes


def frame_event(data: bytes) -> Payload:
    """Length-prefix framing for real event content."""
    return Payload.of(struct.pack(">Q", len(data)) + data)


def frame_synthetic_event(event_bytes: int) -> Payload:
    """Framed synthetic event of ``event_bytes`` application bytes."""
    return Payload.synthetic(framed_size(event_bytes))


def unframe_events(buffer: bytes) -> Tuple[List[bytes], int]:
    """Split a real byte buffer into complete events.

    Returns (events, consumed_bytes); a trailing partial frame is left
    unconsumed for the caller to buffer.
    """
    events: List[bytes] = []
    position = 0
    while position + EVENT_HEADER_SIZE <= len(buffer):
        (length,) = struct.unpack_from(">Q", buffer, position)
        end = position + EVENT_HEADER_SIZE + length
        if end > len(buffer):
            break
        events.append(buffer[position + EVENT_HEADER_SIZE : end])
        position = end
    return events, position


def unframe_fixed(size_bytes: int, event_size: int) -> Tuple[int, int]:
    """Event boundaries for synthetic fixed-size events.

    Returns (event_count, consumed_bytes) for a run of ``size_bytes`` of
    framed events each ``framed_size(event_size)`` long.
    """
    framed = framed_size(event_size)
    if framed <= 0:
        raise ReproError("event size must be positive")
    count = size_bytes // framed
    return count, count * framed
