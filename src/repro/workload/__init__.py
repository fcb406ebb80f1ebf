"""repro.workload — multi-tenant traffic patterns, key skew, SLOs.

Layers on top of the benchmark driver (``repro.bench``):

* :mod:`~repro.workload.arrival` — deterministic, sim-seeded arrival
  processes (constant, Poisson, ramp, diurnal, MMPP, flash crowd,
  piecewise replay) composable by superposition;
* :mod:`~repro.workload.skew` — key-popularity models (uniform, Zipf,
  hot-key churn) plugged into the driver's key spreading;
* :mod:`~repro.workload.slo` — per-tenant windowed SLO evaluation with
  error-budget / burn-rate accounting;
* :mod:`~repro.workload.tenants` — N tenants, each with its own stream,
  pattern, event size and SLO, multiplexed through one simulation, plus
  scale-event/offered-load correlation;
* :mod:`~repro.workload.faults` — fault-under-burst composition.

Import direction: workload imports bench, never the reverse — the
driver only duck-types ``ArrivalProcess`` / ``KeySkew``.
"""

from repro.workload.arrival import (
    ArrivalProcess,
    ArrivalSampler,
    Composite,
    Constant,
    Diurnal,
    FlashCrowd,
    MMPP,
    Piecewise,
    Poisson,
    Ramp,
)
from repro.workload.faults import fault_at_peak
from repro.workload.skew import HotKeyChurn, KeyRouter, KeySkew, UniformSkew, ZipfSkew
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
    "Ramp",
    "Diurnal",
    "MMPP",
    "FlashCrowd",
    "Piecewise",
    "Composite",
    "KeySkew",
    "KeyRouter",
    "UniformSkew",
    "ZipfSkew",
    "HotKeyChurn",
    "SloSpec",
    "SloTracker",
    "capacity_report",
    "saturation_margin",
    "sustainable_verdict",
    "TenantSpec",
    "MultiTenantResult",
    "run_tenants",
    "correlate_scale_events",
    "fault_at_peak",
]
