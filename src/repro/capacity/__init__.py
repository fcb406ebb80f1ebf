"""repro.capacity — the one sustainable-throughput search.

Karimov et al. (PAPERS.md) define *sustainable throughput* as the
highest offered rate a system holds without unbounded backlog.  This
package finds it, with one search and one verdict
(:func:`repro.workload.slo.sustainable_verdict`), for two consumers:

* :mod:`~repro.capacity.search` — the pure bracket-then-bisect driver
  (property-testable without a simulator);
* :mod:`~repro.capacity.planner` — the sim-backed oracles: a discrete
  multi-tenant run judged on its SLOs, per (system, config, tenant mix)
  capacity point, and a constant-rate workload judged on saturation,
  for every max-throughput figure (:func:`find_max_throughput`).

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
    find_max_throughput,
    plan_capacity,
)
from repro.capacity.search import Probe, SearchResult, find_sustainable_rate

__all__ = [
    "Probe",
    "SearchResult",
    "find_sustainable_rate",
    "find_max_throughput",
    "MixTenant",
    "TenantMix",
    "PlannerConfig",
    "CapacityPoint",
    "CapacityPlanner",
    "plan_capacity",
    "SYSTEMS",
    "MIXES",
]
