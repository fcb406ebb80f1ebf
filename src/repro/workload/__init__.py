"""repro.workload — multi-tenant traffic patterns, key skew, SLOs.

Layers on top of the benchmark driver (``repro.bench``):

* :mod:`~repro.workload.arrival` — deterministic, sim-seeded arrival
  processes (constant, Poisson, diurnal, MMPP, flash crowd);
* :mod:`~repro.workload.skew` — the Zipf key-popularity model plugged
  into the driver's key spreading;
* :mod:`~repro.workload.slo` — per-tenant windowed SLO evaluation with
  error-budget / burn-rate accounting;
* :mod:`~repro.workload.tenants` — N tenants, each with its own stream,
  pattern, event size and SLO, multiplexed through one simulation, plus
  scale-event/offered-load correlation.

Import direction: workload imports bench, never the reverse — the
driver only duck-types ``ArrivalProcess`` / ``KeySkew``.
"""

from repro.workload.arrival import (
    ArrivalProcess,
    ArrivalSampler,
    Constant,
    Diurnal,
    FlashCrowd,
    MMPP,
    Poisson,
)
from repro.workload.skew import KeyRouter, KeySkew, ZipfSkew
from repro.workload.slo import (
    SloSpec,
    SloTracker,
    capacity_report,
    saturation_margin,
    sustainable_verdict,
)
from repro.workload.tenants import (
    MultiTenantResult,
    TenantSpec,
    correlate_scale_events,
    run_tenants,
)

__all__ = [
    "ArrivalProcess",
    "ArrivalSampler",
    "Constant",
    "Poisson",
    "Diurnal",
    "MMPP",
    "FlashCrowd",
    "KeySkew",
    "KeyRouter",
    "ZipfSkew",
    "SloSpec",
    "SloTracker",
    "capacity_report",
    "saturation_margin",
    "sustainable_verdict",
    "TenantSpec",
    "MultiTenantResult",
    "run_tenants",
    "correlate_scale_events",
]
