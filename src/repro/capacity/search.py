"""The sustainable-rate search: bracket, then bisect.

Karimov et al. define *sustainable throughput* as the highest offered
rate a system holds without unbounded backlog.  Feasibility at a given
rate is delegated to one oracle (in production
:func:`repro.workload.slo.sustainable_verdict` over one constant-rate
discrete run, :func:`find_max_throughput`; in tests any synthetic
predicate); :func:`find_sustainable_rate` owns only the search
structure, so its convergence properties can be property-tested
without a simulator:

* **bracket** — geometric ramp (up from a feasible start, down from an
  infeasible one) until the threshold is straddled;
* **bisect** — geometric-mean bisection until the bracket's relative
  width is under ``rel_tol``.

Every boundary decision is the oracle's own verdict, so the returned
rate was judged feasible and the bracket's upper end infeasible.  Every
probe is recorded; the caller can audit exactly which rates were tried
and what the margin was.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.results import BenchResult
from repro.bench.runner import WorkloadSpec, run_probe
from repro.sim.core import Simulator
from repro.workload.slo import saturation_margin, sustainable_verdict

__all__ = ["Probe", "SearchResult", "find_sustainable_rate", "find_max_throughput"]


@dataclass(frozen=True)
class Probe:
    """One feasibility measurement at one offered rate."""

    rate: float
    feasible: bool
    #: signed headroom: > 0 means the SLO held with room to spare,
    #: <= 0 the magnitude of the violation (units are oracle-defined)
    margin: float


Oracle = Callable[[float], Probe]


@dataclass
class SearchResult:
    """Outcome of one sustainable-rate search."""

    #: the highest rate judged feasible (the bracket's lower end)
    rate: float
    #: (feasible, infeasible) rates straddling the threshold
    bracket: Tuple[float, float]
    #: (hi - lo) / hi — the residual uncertainty of the search
    width_rel: float
    probes: List[Probe]
    #: the bracket reached ``rel_tol`` before the probe budget ran out
    converged: bool

    @property
    def probe_count(self) -> int:
        return len(self.probes)


def _width(lo: float, hi: float) -> float:
    return (hi - lo) / hi if hi > 0 else 0.0


def find_sustainable_rate(
    oracle: Oracle,
    *,
    start: float,
    floor: float = 1.0,
    cap: float = 1e9,
    growth: float = 2.0,
    rel_tol: float = 0.05,
    max_probes: int = 64,
) -> SearchResult:
    """Find the largest rate the oracle accepts, to ``rel_tol``.

    A monotone oracle with its threshold inside ``[floor, cap]``
    guarantees convergence within ``O(log(cap/floor) + log(1/rel_tol))``
    probes; at most ``max_probes`` are asked.
    """
    if not (0 < floor <= start <= cap):
        raise ValueError(f"need 0 < floor <= start <= cap, got {floor}, {start}, {cap}")
    if growth <= 1.0:
        raise ValueError(f"growth must be > 1, got {growth}")
    # a bad budget is a config error, not a measurement: max_probes=0
    # would report rate 0 as if nothing were sustainable, and rel_tol
    # <= 0 would bisect to float resolution
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    if max_probes < 1:
        raise ValueError(f"max_probes must be >= 1, got {max_probes}")
    probes: List[Probe] = []

    def ask(rate: float) -> Optional[Probe]:
        if len(probes) >= max_probes:
            return None
        probe = oracle(rate)
        probes.append(probe)
        return probe

    # -- bracket: a geometric ramp until the threshold is straddled ----
    # lo is feasible and hi infeasible; either stays None when the
    # threshold escapes [floor, cap] or the budget runs out.
    lo: Optional[float] = None
    hi: Optional[float] = None
    first = ask(start)
    if first is not None and first.feasible:
        lo = rate = start
        while rate < cap:
            rate = min(rate * growth, cap)
            probe = ask(rate)
            if probe is None:
                break
            if not probe.feasible:
                hi = rate
                break
            lo = rate
    elif first is not None:
        hi = rate = start
        while rate > floor:
            rate = max(rate / growth, floor)
            probe = ask(rate)
            if probe is None:
                break
            if probe.feasible:
                lo = rate
                break
            hi = rate

    if lo is None:
        # nothing feasible down to the floor: report rate 0 honestly
        return SearchResult(
            rate=0.0, bracket=(0.0, hi if hi is not None else float(floor)),
            width_rel=1.0, probes=probes, converged=False,
        )
    if hi is None:
        # feasible all the way to the cap (or budget exhausted going up)
        return SearchResult(
            rate=lo, bracket=(lo, float(cap)), width_rel=_width(lo, cap),
            probes=probes, converged=lo >= cap,
        )

    # -- bisect by geometric mean --------------------------------------
    while _width(lo, hi) > rel_tol:
        mid = math.sqrt(lo * hi)
        if not (lo < mid < hi):  # bracket collapsed to float resolution
            break
        probe = ask(mid)
        if probe is None:
            break
        if probe.feasible:
            lo = mid
        else:
            hi = mid
    return SearchResult(
        rate=lo, bracket=(lo, hi), width_rel=_width(lo, hi), probes=probes,
        converged=_width(lo, hi) <= rel_tol,
    )


def find_max_throughput(
    make_adapter: Callable[[Simulator], object],
    spec: WorkloadSpec,
    *,
    start: float,
    cap: float,
    rel_tol: float,
    log: Optional[List[Dict[str, object]]] = None,
) -> BenchResult:
    """The run of the highest rate ``spec`` sustains (Karimov et al.).

    :func:`find_sustainable_rate` doubles up (or halves down) from
    ``start`` within ``[1, cap]`` and bisects to ``rel_tol``.  Each probe
    runs ``spec`` at one constant rate on a fresh simulator and a cold
    cluster (:func:`repro.bench.runner.run_probe`: it ends when the
    window's measurements are final) and is judged by
    :func:`sustainable_verdict` over its saturation margin.  Returns the
    highest feasible probe's result — an all-zero ``BenchResult`` when
    nothing down to the floor is feasible — and appends one record per
    probe (rate, verdict, margin, kernel events, wall seconds) to
    ``log`` when given.
    """
    if spec.arrival is not None:
        # The search owns the offered rate; a time-varying arrival process
        # would silently override every probed target_rate.
        raise ValueError(
            "find_max_throughput probes constant rates; spec.arrival must "
            "be None (use run_workload/run_tenants for shaped traffic)"
        )
    feasible: Dict[float, BenchResult] = {}

    def probe(rate: float) -> Probe:
        started = time.perf_counter()
        sim = Simulator()
        result = run_probe(sim, make_adapter(sim), replace(spec, target_rate=rate))
        ok, margin = sustainable_verdict(result, saturation_margin(result))
        margin = round(float(margin), 6)
        if ok:
            feasible[rate] = result
        if log is not None:
            stats = sim.stats
            log.append({
                "rate_eps": round(float(rate), 3),
                "feasible": ok,
                "margin": margin,
                "kernel_events": stats.events_executed + stats.microtasks_executed,
                "wall_s": round(time.perf_counter() - started, 3),
            })
        return Probe(rate=rate, feasible=ok, margin=margin)

    search = find_sustainable_rate(probe, start=start, cap=cap, rel_tol=rel_tol)
    # the bracket's lower end is the highest rate judged feasible
    return feasible.get(search.rate) or BenchResult()
