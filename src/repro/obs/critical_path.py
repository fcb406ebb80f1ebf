"""Critical-path analysis over the span tree.

Every root write span carries accrued ``network`` / ``fsync`` /
``quorum`` component time (shared spans are absorbed into each waiter,
so components are per-event additive); queueing is the residual, making

    network + fsync + quorum + queueing == measured ack latency

hold *exactly* for every event.  The per-figure headline — "where does
the p50 go?" — is the decomposition of the median-by-total event, whose
component sum therefore reconstructs the measured p50 by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.tracer import Tracer

__all__ = [
    "COMPONENTS",
    "WRITE_ROOT_NAMES",
    "event_records",
    "median_record",
    "summarize",
]

COMPONENTS = ("network", "fsync", "quorum", "queueing")

#: root span names of the three systems' client write paths
WRITE_ROOT_NAMES = ("pravega.write", "kafka.send", "pulsar.send")


def event_records(
    tracer: Tracer, window: Optional[Tuple[float, float]] = None
) -> List[Dict[str, float]]:
    """One decomposition record per finished root write span.

    ``window=(start, end)`` restricts to events *sent* inside the
    measurement window, matching what the benchmark histogram records.
    """
    records: List[Dict[str, float]] = []
    for span in tracer.spans:
        if span.parent is not None or span.name not in WRITE_ROOT_NAMES:
            continue
        if span.end is None:
            continue
        if window is not None and not (window[0] <= span.start < window[1]):
            continue
        total = span.end - span.start
        network = span.components.get("network", 0.0)
        fsync = span.components.get("fsync", 0.0)
        quorum = span.components.get("quorum", 0.0)
        records.append(
            {
                "name": span.name,
                "span_id": float(span.span_id),
                "total": total,
                "network": network,
                "fsync": fsync,
                "quorum": quorum,
                "queueing": total - network - fsync - quorum,
            }
        )
    return records


def median_record(records: List[Dict[str, float]]) -> Optional[Dict[str, float]]:
    """The decomposition of the median-by-total-latency event.

    Uses the same linear-interpolation rank as
    :func:`repro.common.metrics.percentile`, so the reconstructed total
    equals the latency histogram's p50 when both saw the same samples.
    Interpolating each bucket with the same weight keeps the
    decomposition additive: the interpolated components still sum
    exactly to the interpolated total.
    """
    if not records:
        return None
    ordered = sorted(records, key=lambda record: record["total"])
    rank = 0.5 * (len(ordered) - 1)
    low = int(rank)
    if low == rank:
        return ordered[low]
    weight = rank - low
    lo, hi = ordered[low], ordered[low + 1]
    blended = {"name": lo["name"], "span_id": lo["span_id"]}
    for key in ("total",) + COMPONENTS:
        blended[key] = lo[key] * (1 - weight) + hi[key] * weight
    return blended


def summarize(
    tracer: Tracer, window: Optional[Tuple[float, float]] = None
) -> Dict[str, float]:
    """Aggregate decomposition: event count, p50 event breakdown, means."""
    records = event_records(tracer, window=window)
    summary: Dict[str, float] = {"events": float(len(records))}
    if not records:
        return summary
    median = median_record(records)
    summary["p50.total"] = median["total"]
    for kind in COMPONENTS:
        summary[f"p50.{kind}"] = median[kind]
        summary[f"mean.{kind}"] = sum(r[kind] for r in records) / len(records)
    summary["mean.total"] = sum(r["total"] for r in records) / len(records)
    return summary
