"""Multi-tenant composition: N tenants multiplexed through one run.

Each :class:`TenantSpec` names a :class:`~repro.bench.runner.WorkloadSpec`
(traffic pattern, key skew, event size, stream sizing, measurement
window) and adds what only a tenant has: an
:class:`~repro.workload.slo.SloSpec` and a scaling policy.  ``run_tenants``
provisions one stream/topic per tenant on a shared cluster (via the
adapter's ``create_tenant``), starts one :class:`WorkloadEngine` per
tenant inside the *same* simulation, drives them to completion and
evaluates every tenant's SLO — the multi-tenant capacity question
(§2.2's "many small streams" regime) in one deterministic run.

``correlate_scale_events`` joins a Pravega controller's scale-event log
against a tenant's offered-load curve: did segment splits land while
the diurnal pattern was above its mean, and merges in the trough?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.results import BenchResult
from repro.bench.runner import WorkloadEngine, WorkloadSpec, _drive
from repro.sim.core import Simulator
from repro.workload.arrival import ArrivalProcess
from repro.workload.slo import SloSpec, SloTracker, capacity_report

__all__ = [
    "TenantSpec",
    "MultiTenantResult",
    "run_tenants",
    "correlate_scale_events",
]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's workload contract."""

    name: str
    #: the tenant's load, stream sizing and measurement window
    workload: WorkloadSpec
    slo: SloSpec = field(default_factory=SloSpec)
    #: Pravega scaling policy for this tenant's stream (ignored by the
    #: fixed-partition adapters)
    scaling: Optional[object] = None


@dataclass
class MultiTenantResult:
    """Everything one multi-tenant run measured."""

    results: Dict[str, BenchResult]
    slo: Dict[str, Dict[str, float]]
    capacity: Dict[str, Dict[str, float]]
    #: sim time when load generation started (scale-event correlation
    #: uses this to translate absolute event times to pattern time)
    epoch: float
    #: False when the run hit its load timeout (overload; the window's
    #: measurements are still valid)
    completed: bool = True


def run_tenants(
    sim: Simulator,
    adapter,
    tenants: Sequence[TenantSpec],
    series_interval: Optional[float] = 0.5,
    fault_engine=None,
) -> MultiTenantResult:
    """Run every tenant concurrently against one shared cluster.

    Each tenant runs its own ``WorkloadSpec``; they must agree on
    ``warmup`` and ``duration``, because the SLO window is shared."""
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names: {names}")
    windows = {(t.workload.warmup, t.workload.duration) for t in tenants}
    if len(windows) != 1:
        raise ValueError(
            f"tenants must share one (warmup, duration), got {sorted(windows)}"
        )
    ((warmup, duration),) = windows
    clients = {
        t.name: adapter.create_tenant(t.name, t.workload.partitions, scaling=t.scaling)
        for t in tenants
    }
    if fault_engine is not None:
        fault_engine.start()
    epoch = sim.now
    engines: List[WorkloadEngine] = []
    trackers: Dict[str, SloTracker] = {}
    for tenant in tenants:
        tracker = SloTracker(
            tenant.slo, epoch + warmup, epoch + warmup + duration
        )
        engine = WorkloadEngine(
            sim,
            clients[tenant.name],
            tenant.workload,
            observer=tracker,
            label=f"{getattr(adapter, 'name', 'bench')}/{tenant.name}",
            series_interval=series_interval,
        )
        engine.start()
        trackers[tenant.name] = tracker
        engines.append(engine)
    completed = _drive(sim, engines)
    if fault_engine is not None:
        fault_engine.quiesce()
    results: Dict[str, BenchResult] = {}
    reports: Dict[str, Dict[str, float]] = {}
    for tenant, engine in zip(tenants, engines):
        result = engine.finalize()
        trackers[tenant.name].emit(result.extra)
        results[tenant.name] = result
        reports[tenant.name] = trackers[tenant.name].report()
    return MultiTenantResult(
        results=results,
        slo=reports,
        capacity=capacity_report(reports),
        epoch=epoch,
        completed=completed,
    )


def correlate_scale_events(
    scale_events,
    arrival: ArrivalProcess,
    epoch: float,
    horizon: float,
    stream: Optional[str] = None,
) -> Dict[str, object]:
    """Join controller scale events with the offered-load curve.

    ``scale_events`` is ``Controller.scale_events`` (``(time, "scope/
    stream", kind, details)`` tuples); ``epoch`` is when load started
    (``MultiTenantResult.epoch``) and ``horizon`` the load length.  Each
    event is annotated with the pattern's offered rate at that moment
    and classified against the pattern's mean: an elastic store should
    split above the mean and merge below it.
    """
    mean = arrival.mean_rate(0.0, horizon)
    events: List[Dict[str, object]] = []
    ups = downs = ups_above = downs_below = 0
    for when, name, kind, details in scale_events:
        if stream is not None and stream not in name:
            continue
        rel = min(max(when - epoch, 0.0), horizon)
        offered = arrival.rate(rel)
        events.append(
            {
                "time": round(when, 6),
                "pattern_time": round(rel, 6),
                "kind": kind,
                "offered_eps": round(offered, 3),
                "details": details,
            }
        )
        if kind == "scale-up":
            ups += 1
            if offered >= mean:
                ups_above += 1
        elif kind == "scale-down":
            downs += 1
            if offered < mean:
                downs_below += 1
    return {
        "scale_up": ups,
        "scale_down": downs,
        "scale_up_above_mean": ups_above,
        "scale_down_below_mean": downs_below,
        "mean_offered_eps": round(mean, 3),
        "events": events,
    }
