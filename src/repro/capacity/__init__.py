"""repro.capacity — sustainable-throughput capacity planning.

Karimov et al. (PAPERS.md) define *sustainable throughput* as the
highest offered rate a system holds without unbounded backlog.  This
package finds it per (system, config, tenant mix):

* :mod:`~repro.capacity.search` — the pure bracket-then-bisect driver
  (property-testable without a simulator);
* :mod:`~repro.capacity.planner` — the sim-backed oracle: a discrete
  multi-tenant run judged by the SLO engine, for every probe.

``benchmarks/bench_capacity.py`` (``make capacity``) sweeps the
registered systems × mixes and commits the map as
``BENCH_capacity.json``; ``python -m repro.bench gate`` guards it.
"""

from repro.capacity.planner import (
    MIXES,
    SYSTEMS,
    CapacityPlanner,
    CapacityPoint,
    MixTenant,
    PlannerConfig,
    TenantMix,
    plan_capacity,
)
from repro.capacity.search import Probe, SearchResult, find_sustainable_rate

__all__ = [
    "Probe",
    "SearchResult",
    "find_sustainable_rate",
    "MixTenant",
    "TenantMix",
    "PlannerConfig",
    "CapacityPoint",
    "CapacityPlanner",
    "plan_capacity",
    "SYSTEMS",
    "MIXES",
]
