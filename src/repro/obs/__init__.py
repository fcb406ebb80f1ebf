"""Observability: simulated-time distributed tracing (Dapper-style).

``Tracer``/``Span`` record a span tree over the sim clock; the exporter
emits Chrome trace-event JSON (loadable in Perfetto / chrome://tracing)
and the critical-path analyzer decomposes each event's ack latency into
additive components (network / fsync / quorum / queueing).

Tracing is zero-cost when disabled: components hold ``tracer = None`` by
default and every hook is guarded by an ``is not None`` check, so the
untraced hot paths execute exactly the same instruction stream as before
this subsystem existed.
"""

from repro.obs.tracer import Span, Tracer
from repro.obs.export import to_chrome_trace, export_chrome_trace
from repro.obs.critical_path import (
    COMPONENTS,
    WRITE_ROOT_NAMES,
    event_records,
    median_record,
    summarize,
)

__all__ = [
    "Span",
    "Tracer",
    "to_chrome_trace",
    "export_chrome_trace",
    "COMPONENTS",
    "WRITE_ROOT_NAMES",
    "event_records",
    "median_record",
    "summarize",
]
