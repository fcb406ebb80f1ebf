"""Measurement utilities: counters, rate meters, latency histograms and
time series.

The benchmark harness reports the same statistics as OpenMessaging
Benchmark (p50/p95/p99 latency, throughput in events/s and bytes/s), and
Fig. 13 additionally needs time-series probes (per-segment-store write
load, segment counts, p50 latency over time), which the paper generated
from Pravega's metrics exports.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "RateMeter",
    "LatencyHistogram",
    "TimeSeries",
    "MetricsRegistry",
    "percentile",
]


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Linear-interpolation percentile of an already-sorted list."""
    if not sorted_values:
        return float("nan")
    if fraction <= 0:
        return sorted_values[0]
    if fraction >= 1:
        return sorted_values[-1]
    rank = fraction * (len(sorted_values) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return sorted_values[low]
    weight = rank - low
    return sorted_values[low] * (1 - weight) + sorted_values[high] * weight


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        self.value += amount


#: hoisted out of RateMeter (two calls per append); the expressions keep
#: their evaluation order, so every rate stays bit-identical
_LN2 = math.log(2.0)


class RateMeter:
    """Tracks an exponentially-weighted rate of events/bytes per second.

    Pravega's data plane uses per-segment rate trackers to feed the
    auto-scaling policy (two-minute / ten-minute style windows in the real
    system); we expose the same shape with a configurable half-life.
    """

    def __init__(self, half_life: float = 10.0) -> None:
        self.half_life = half_life
        self._rate = 0.0
        self._last_time: Optional[float] = None

    @property
    def rate(self) -> float:
        return self._rate

    def record(self, now: float, amount: float) -> None:
        if self._last_time is None:
            self._last_time = now
            self._rate = 0.0
        # Out-of-order samples (now < _last_time) are clamped onto the
        # same-instant path; rewinding the meter's clock would make the
        # next sample's elapsed span the rewound gap twice.
        elapsed = max(now - self._last_time, 0.0)
        if elapsed == 0.0:
            # Same-instant samples accumulate into the current estimate via
            # a small nominal interval to avoid division by zero.
            elapsed = 1e-6
        instantaneous = amount / elapsed
        alpha = 1.0 - math.exp(-elapsed * _LN2 / self.half_life)
        self._rate += alpha * (instantaneous - self._rate)
        self._last_time = max(self._last_time, now)

    def decay_to(self, now: float) -> float:
        """Rate estimate at ``now`` assuming no events since the last record."""
        if self._last_time is None:
            return 0.0
        elapsed = max(now - self._last_time, 0.0)
        decay = math.exp(-elapsed * _LN2 / self.half_life)
        return self._rate * decay


class LatencyHistogram:
    """Latency recorder with exact percentiles.

    Samples are kept sorted; memory is bounded by reservoir sampling once
    ``max_samples`` is exceeded (uniform reservoir, deterministic stride).
    """

    def __init__(self, name: str = "", max_samples: int = 200_000) -> None:
        self.name = name
        self.max_samples = max_samples
        self._sorted: List[float] = []
        self.count = 0
        self.total = 0.0
        self._stride = 1
        self._phase = 0
        self._max = float("-inf")

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        # Track the max exactly: reservoir halving keeps even indices only,
        # so the largest sample (and with it the reported max) could
        # silently shrink once the stride starts skipping records.
        if value > self._max:
            self._max = value
        self._phase += 1
        if self._phase < self._stride:
            return
        self._phase = 0
        insort(self._sorted, value)
        if len(self._sorted) > self.max_samples:
            # Halve the reservoir deterministically and double the stride.
            self._sorted = self._sorted[::2]
            self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, fraction: float) -> float:
        return percentile(self._sorted, fraction)

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def max(self) -> float:
        return self._max if self.count else float("nan")

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


@dataclass
class TimeSeries:
    """An append-only series of (time, value) samples."""

    name: str = ""
    samples: List[Tuple[float, float]] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        self.samples.append((time, value))

    def values(self) -> List[float]:
        return [v for _, v in self.samples]

    def at(self, time: float) -> float:
        """Most recent value at or before ``time`` (steps interpolation)."""
        if not self.samples:
            return float("nan")
        index = bisect_right(self.samples, (time, float("inf"))) - 1
        if index < 0:
            return float("nan")
        return self.samples[index][1]

    def window_mean(self, start: float, end: float) -> float:
        values = [v for t, v in self.samples if start <= t <= end]
        return sum(values) / len(values) if values else float("nan")


class MetricsRegistry:
    """A flat namespace of metrics, one per component instance."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def counters(self) -> Dict[str, float]:
        return {name: c.value for name, c in self._counters.items()}

    def names(self) -> Iterable[str]:
        yield from self._counters
        yield from self._series
