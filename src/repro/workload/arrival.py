"""Deterministic, sim-seeded arrival processes.

The benchmark driver (``bench/runner.py``) historically offered one
traffic shape: a constant open-loop rate.  Realistic evaluations of
auto-scaling and tiering need time-varying load — "sustainable
throughput" surveys (Karimov et al.) treat the arrival process as part
of the workload definition, not an afterthought.  This module provides
the rate functions the figures and examples drive:

* :class:`Constant` — the classic OMB fixed rate
* :class:`Poisson` — stochastic counts around a (possibly time-varying)
  mean rate
* :class:`Diurnal` — sinusoidal day/night cycle (trough -> peak -> trough)
* :class:`MMPP` — 2-state Markov-modulated Poisson process (bursty)
* :class:`FlashCrowd` — baseline with a sudden spike (rise/hold/fall)

Every process separates its *shape* (``rate(t)``, pure and stateless)
from its *sampler* (``sampler(seed, fraction)``), the stateful object a
producer uses to draw per-tick event counts.  Samplers are seeded with
:func:`repro.common.hashing.stable_hash64`, so counts are bit-identical
across runs and across ``--jobs`` fan-out, and never consult wall-clock
or global RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.common.hashing import stable_hash64

__all__ = [
    "ArrivalProcess",
    "ArrivalSampler",
    "Constant",
    "Poisson",
    "Diurnal",
    "MMPP",
    "FlashCrowd",
]


class ArrivalSampler:
    """Stateful per-producer event counter.

    ``events(t0, t1)`` returns how many events this producer generates in
    the simulated interval ``[t0, t1)``.  Implementations carry their own
    state (fractional-event carry, RNG, modulation phase) and must be
    deterministic functions of (process, seed, call sequence).
    """

    def events(self, t0: float, t1: float) -> int:  # pragma: no cover
        raise NotImplementedError


class ArrivalProcess:
    """A rate function ``rate(t)`` (events/second) plus sampling."""

    def rate(self, t: float) -> float:  # pragma: no cover
        raise NotImplementedError

    @property
    def peak_rate(self) -> float:
        """An upper bound on ``rate(t)`` (sizing backlog caps, capacity)."""
        raise NotImplementedError  # pragma: no cover

    def mean_events(self, t0: float, t1: float) -> float:
        """Expected events in ``[t0, t1)`` (trapezoid; exact for linear
        pieces, and ticks are short relative to any curvature here)."""
        return 0.5 * (self.rate(t0) + self.rate(t1)) * (t1 - t0)

    def mean_rate(self, t0: float, t1: float, steps: int = 256) -> float:
        """Average rate over ``[t0, t1]`` by deterministic integration."""
        if t1 <= t0:
            return self.rate(t0)
        dt = (t1 - t0) / steps
        total = 0.0
        for i in range(steps):
            total += self.mean_events(t0 + i * dt, t0 + (i + 1) * dt)
        return total / (t1 - t0)

    def sampler(self, seed: int, fraction: float = 1.0) -> ArrivalSampler:
        """Sampler for one producer carrying ``fraction`` of the load."""
        return _CarrySampler(self, fraction)


class _CarrySampler(ArrivalSampler):
    """Deterministic integration with fractional-event carry."""

    __slots__ = ("process", "fraction", "carry")

    def __init__(self, process: ArrivalProcess, fraction: float) -> None:
        self.process = process
        self.fraction = fraction
        self.carry = 0.0

    def events(self, t0: float, t1: float) -> int:
        self.carry += self.process.mean_events(t0, t1) * self.fraction
        count = int(self.carry)
        if count:
            self.carry -= count
        return count


def _poisson_draw(rng, lam: float) -> int:
    """One Poisson(lam) variate from ``rng`` (Knuth for small means,
    rounded-normal beyond — means here are per-tick, so small)."""
    if lam <= 0.0:
        return 0
    if lam > 64.0:
        return max(0, int(round(rng.gauss(lam, math.sqrt(lam)))))
    limit = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


class _PoissonSampler(ArrivalSampler):
    __slots__ = ("process", "fraction", "rng")

    def __init__(self, process: ArrivalProcess, fraction: float, rng) -> None:
        self.process = process
        self.fraction = fraction
        self.rng = rng

    def events(self, t0: float, t1: float) -> int:
        return _poisson_draw(
            self.rng, self.process.mean_events(t0, t1) * self.fraction
        )


def _seeded_rng(seed: int, tag: str):
    import random

    return random.Random(stable_hash64(f"workload:{tag}:{seed}"))


# ----------------------------------------------------------------------
# Shapes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Constant(ArrivalProcess):
    """Fixed rate — the legacy driver behaviour."""

    rate_eps: float

    def rate(self, t: float) -> float:
        return self.rate_eps

    @property
    def peak_rate(self) -> float:
        return self.rate_eps


@dataclass(frozen=True)
class Poisson(ArrivalProcess):
    """Poisson counts around a mean shape (default: constant rate).

    ``Poisson(1000.0)`` is a homogeneous Poisson process;
    ``Poisson(Diurnal(...))`` modulates the mean by any other shape.
    """

    mean: "ArrivalProcess | float"

    def _shape(self) -> ArrivalProcess:
        if isinstance(self.mean, ArrivalProcess):
            return self.mean
        return Constant(float(self.mean))

    def rate(self, t: float) -> float:
        return self._shape().rate(t)

    @property
    def peak_rate(self) -> float:
        return self._shape().peak_rate

    def sampler(self, seed: int, fraction: float = 1.0) -> ArrivalSampler:
        return _PoissonSampler(
            self._shape(), fraction, _seeded_rng(seed, "poisson")
        )


@dataclass(frozen=True)
class Diurnal(ArrivalProcess):
    """Sinusoidal cycle: trough at ``t = phase``, peak half a period later.

    ``rate(t) = trough + (peak - trough) * (1 - cos(2pi (t - phase)/period)) / 2``
    """

    trough_eps: float
    peak_eps: float
    period: float
    phase: float = 0.0

    def rate(self, t: float) -> float:
        swing = (self.peak_eps - self.trough_eps) / 2.0
        omega = 2.0 * math.pi * (t - self.phase) / self.period
        return self.trough_eps + swing * (1.0 - math.cos(omega))

    @property
    def peak_rate(self) -> float:
        return max(self.peak_eps, self.trough_eps)


@dataclass(frozen=True)
class FlashCrowd(ArrivalProcess):
    """Baseline load with one sudden spike (linear rise, hold, fall)."""

    base_eps: float
    spike_eps: float
    at: float
    rise: float = 1.0
    hold: float = 5.0
    fall: float = 5.0

    def rate(self, t: float) -> float:
        if t < self.at or t >= self.at + self.rise + self.hold + self.fall:
            return self.base_eps
        dt = t - self.at
        if dt < self.rise:
            return self.base_eps + (self.spike_eps - self.base_eps) * dt / self.rise
        if dt < self.rise + self.hold:
            return self.spike_eps
        frac = (dt - self.rise - self.hold) / self.fall
        return self.spike_eps + (self.base_eps - self.spike_eps) * frac

    @property
    def peak_rate(self) -> float:
        return max(self.base_eps, self.spike_eps)


@dataclass(frozen=True)
class MMPP(ArrivalProcess):
    """2-state Markov-modulated Poisson process (quiet/burst).

    The modulating chain dwells exponentially in each state
    (``mean_dwell[i]`` seconds) and emits Poisson counts at
    ``rates_eps[i]`` while there.  ``rate(t)`` reports the *stationary*
    mean (dwell-weighted) since the modulation is random; ``peak_rate``
    is the burst-state rate.
    """

    rates_eps: Tuple[float, float]
    mean_dwell: Tuple[float, float] = (8.0, 2.0)

    def rate(self, t: float) -> float:
        d0, d1 = self.mean_dwell
        r0, r1 = self.rates_eps
        return (r0 * d0 + r1 * d1) / (d0 + d1)

    @property
    def peak_rate(self) -> float:
        return max(self.rates_eps)

    def sampler(self, seed: int, fraction: float = 1.0) -> ArrivalSampler:
        return _MMPPSampler(self, fraction, _seeded_rng(seed, "mmpp"))


class _MMPPSampler(ArrivalSampler):
    __slots__ = ("process", "fraction", "rng", "state", "residual")

    def __init__(self, process: MMPP, fraction: float, rng) -> None:
        self.process = process
        self.fraction = fraction
        self.rng = rng
        self.state = 0
        self.residual = rng.expovariate(1.0 / process.mean_dwell[0])

    def events(self, t0: float, t1: float) -> int:
        remaining = t1 - t0
        lam = 0.0
        while remaining > 0.0:
            span = min(remaining, self.residual)
            lam += self.process.rates_eps[self.state] * span
            self.residual -= span
            remaining -= span
            if self.residual <= 0.0:
                self.state = 1 - self.state
                self.residual = self.rng.expovariate(
                    1.0 / self.process.mean_dwell[self.state]
                )
        return _poisson_draw(self.rng, lam * self.fraction)
