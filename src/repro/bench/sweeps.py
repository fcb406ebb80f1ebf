"""The max-throughput probe.

Every probe runs on a fresh simulator and a cold cluster, so no
state leaks between configurations (matching the paper's methodology of
independent benchmark runs).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.sim.core import Simulator
from repro.bench.results import BenchResult
from repro.bench.runner import WorkloadSpec, run_workload

__all__ = ["find_max_throughput"]

AdapterFactory = Callable[[Simulator], object]


def find_max_throughput(
    make_adapter: AdapterFactory,
    spec: WorkloadSpec,
    start_rate: float,
    growth: float = 2.0,
    refine_steps: int = 2,
    max_rate: float = 1e9,
) -> BenchResult:
    """Geometric ramp until saturation, then refine between the last
    sustained and the first saturated rate.  Returns the best point."""
    if spec.arrival is not None:
        # The probe owns the offered rate; a time-varying arrival process
        # would silently override every probed target_rate.
        raise ValueError(
            "find_max_throughput probes constant rates; spec.arrival must "
            "be None (use run_workload/run_tenants for shaped traffic)"
        )
    best: BenchResult | None = None
    rate = start_rate
    last_good = 0.0
    first_bad = None
    while rate <= max_rate:
        sim = Simulator()
        adapter = make_adapter(sim)
        point = run_workload(sim, adapter, replace(spec, target_rate=rate))
        if best is None or point.produce_rate > best.produce_rate:
            best = point
        if point.saturated or point.crashed:
            first_bad = rate
            break
        last_good = rate
        rate *= growth
    if first_bad is not None and last_good > 0:
        low, high = last_good, first_bad
        for _ in range(refine_steps):
            mid = (low + high) / 2.0
            sim = Simulator()
            adapter = make_adapter(sim)
            point = run_workload(sim, adapter, replace(spec, target_rate=mid))
            if best is None or point.produce_rate > best.produce_rate:
                best = point
            if point.saturated or point.crashed:
                high = mid
            else:
                low = mid
    assert best is not None
    return best
