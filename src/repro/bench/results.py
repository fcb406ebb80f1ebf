"""Benchmark result containers and plain-text reporting.

Every figure bench prints the same kind of table: one row per
configuration with achieved throughput and latency percentiles, plus a
"paper" column stating the claim being reproduced so the output is
self-auditing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.metrics import LatencyHistogram, TimeSeries

__all__ = ["BenchResult", "Table", "fmt_rate", "fmt_bytes_rate", "fmt_latency"]


@dataclass
class BenchResult:
    """Outcome of one workload run."""

    label: str = ""
    #: offered load, events/s
    target_rate: float = 0.0
    #: measured events/s acknowledged during the measurement window
    produce_rate: float = 0.0
    #: measured bytes/s acknowledged (application payload bytes)
    produce_mbps: float = 0.0
    #: measured events/s consumed
    consume_rate: float = 0.0
    consume_mbps: float = 0.0
    write_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    e2e_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    errors: int = 0
    crashed: bool = False
    #: free-form extra measurements (backlog bytes, segment counts, ...)
    extra: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, TimeSeries] = field(default_factory=dict)

    def summary(self) -> Dict[str, float]:
        return {
            "target_eps": self.target_rate,
            "produce_eps": self.produce_rate,
            "produce_MBps": self.produce_mbps / 1e6,
            "write_p50_ms": self.write_latency.p50 * 1e3,
            "write_p95_ms": self.write_latency.p95 * 1e3,
            "e2e_p95_ms": self.e2e_latency.p95 * 1e3,
            "errors": float(self.errors),
        }


def fmt_rate(events_per_sec: float) -> str:
    if math.isnan(events_per_sec):
        return "-"
    if events_per_sec >= 1e6:
        return f"{events_per_sec / 1e6:.2f}M e/s"
    if events_per_sec >= 1e3:
        return f"{events_per_sec / 1e3:.1f}k e/s"
    return f"{events_per_sec:.0f} e/s"


def fmt_bytes_rate(bytes_per_sec: float) -> str:
    if math.isnan(bytes_per_sec):
        return "-"
    return f"{bytes_per_sec / 1e6:.1f} MB/s"


def fmt_latency(seconds: float) -> str:
    if math.isnan(seconds):
        return "-"
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    return f"{seconds * 1e3:.2f} ms"


class Table:
    """Minimal fixed-width table renderer for bench output."""

    def __init__(self, columns: List[str], title: str = "") -> None:
        self.title = title
        self.columns = columns
        self.rows: List[List[str]] = []

    def add(self, *cells: object) -> None:
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.render())
        print()
