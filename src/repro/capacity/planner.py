"""Sim-backed capacity planning: (system, config, tenant mix) -> rate.

The planner wires :func:`repro.capacity.search.find_sustainable_rate`
to the real stack with one oracle: every probe runs the true
multi-tenant mix discretely through ``run_tenants`` and judges it with
the SLO engine (:func:`repro.workload.slo.sustainable_verdict`):
error-budget burn, latency-window compliance, the load-timeout backlog
signal and the driver's shed ticks.  Every bracketing and bisection
decision in a committed capacity map is therefore the real system's
backlog verdict.

Probes are seeded through the ``TenantSpec`` seeds only — the sim is
deterministic — so the same planner config regenerates the same
capacity point byte for byte (the golden-fixture contract).

:func:`find_max_throughput` is the same search for the paper's
max-throughput figures (Figs. 5–9 and 11): one constant-rate workload
per probe, stopped when its window closes and judged by the same
verdict over its :func:`~repro.workload.slo.saturation_margin`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.adapters import KafkaAdapter, PravegaAdapter, PulsarAdapter
from repro.bench.results import BenchResult
from repro.bench.runner import WorkloadSpec, run_probe
from repro.capacity.search import Probe, SearchResult, find_sustainable_rate
from repro.sim.core import Simulator
from repro.workload.arrival import Poisson
from repro.workload.skew import ZipfSkew
from repro.workload.slo import SloSpec, saturation_margin, slo_margin, sustainable_verdict
from repro.workload.tenants import TenantSpec, run_tenants

__all__ = [
    "MixTenant",
    "TenantMix",
    "PlannerConfig",
    "CapacityPoint",
    "CapacityPlanner",
    "plan_capacity",
    "find_max_throughput",
    "SYSTEMS",
    "MIXES",
]


# ----------------------------------------------------------------------
# Systems under test
# ----------------------------------------------------------------------
SYSTEMS: Dict[str, Tuple[Callable[[Simulator], object], str]] = {
    # name -> (adapter factory, config label recorded per point)
    "pravega": (lambda sim: PravegaAdapter(sim, journal_sync=True), "journal-sync"),
    "kafka": (lambda sim: KafkaAdapter(sim, flush_every_message=False), "no-flush"),
    "pulsar": (lambda sim: PulsarAdapter(sim), "default"),
}


# ----------------------------------------------------------------------
# Tenant mixes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MixTenant:
    """One component of a tenant mix; ``weight`` is its share of the
    probed aggregate rate, offered by one producer."""

    name: str
    weight: float
    event_size: int = 100
    partitions: int = 1
    #: "constant" or "poisson" — capacity probes need steady arrivals
    #: (a shaped pattern would own the rate the search is probing)
    arrival: str = "constant"
    #: Zipf exponent for key popularity; None = uniform random keys
    zipf: Optional[float] = None
    slo: SloSpec = field(default_factory=SloSpec)

    def tenant_spec(
        self, rate: float, seed: int, duration: float, warmup: float
    ) -> TenantSpec:
        share = rate * self.weight
        workload = WorkloadSpec(
            event_size=self.event_size,
            target_rate=share,
            partitions=self.partitions,
            producers=1,
            consumers=0,
            duration=duration,
            warmup=warmup,
            arrival=Poisson(share) if self.arrival == "poisson" else None,
            key_skew=ZipfSkew(s=self.zipf) if self.zipf is not None else None,
            seed=seed,
        )
        return TenantSpec(self.name, workload, slo=self.slo)


@dataclass(frozen=True)
class TenantMix:
    """A named tenant population whose capacity is one map point."""

    name: str
    tenants: Tuple[MixTenant, ...]

    def __post_init__(self) -> None:
        total = sum(t.weight for t in self.tenants)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mix {self.name!r} weights sum to {total}, not 1")

    def tenant_specs(
        self, rate: float, seed: int, duration: float, warmup: float
    ) -> List[TenantSpec]:
        return [
            t.tenant_spec(rate, seed * 1000 + i, duration, warmup)
            for i, t in enumerate(self.tenants)
        ]


MIXES: Dict[str, TenantMix] = {
    # One tenant, uniform keys, the paper's 100-byte events: the
    # classic single-stream sustainable-throughput question.
    "uniform": TenantMix(
        "uniform",
        (
            MixTenant(
                "solo", 1.0, event_size=100, partitions=4,
                slo=SloSpec(p99_latency=0.025),
            ),
        ),
    ),
    # Three-way multi-tenant mix: bursty small events on skewed keys,
    # a steady mid-size tenant, and a bulk tenant with large events —
    # the "many small streams" regime the SLO engine was built for.
    "mixed": TenantMix(
        "mixed",
        (
            MixTenant(
                "burst", 0.25, event_size=100, partitions=2,
                arrival="poisson", zipf=1.0,
                slo=SloSpec(p99_latency=0.050),
            ),
            MixTenant(
                "steady", 0.50, event_size=500, partitions=2,
                slo=SloSpec(p99_latency=0.050),
            ),
            MixTenant(
                "bulk", 0.25, event_size=1000, partitions=1,
                slo=SloSpec(p99_latency=0.100),
            ),
        ),
    ),
}


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
#: geometric step of the bracketing ramp
BRACKET_GROWTH = 2.0


@dataclass(frozen=True)
class PlannerConfig:
    """Search budget and probe shape for one capacity point."""

    #: measured window of every discrete probe (simulated seconds)
    duration: float = 1.0
    warmup: float = 0.25
    #: search range and resolution
    start: float = 250_000.0
    floor: float = 1_000.0
    cap: float = 16_000_000.0
    rel_tol: float = 0.05
    max_probes: int = 48
    seed: int = 0


@dataclass
class CapacityPoint:
    """One entry of the capacity map."""

    system: str
    config: str
    mix: str
    #: max sustainable aggregate rate (events/s)
    rate: float
    bracket: Tuple[float, float]
    width_rel: float
    converged: bool
    #: SLO margin of the final feasible probe
    slo_margin: float
    probes: int
    probe_log: List[Dict[str, object]]
    slo: Dict[str, object]
    seed: int
    #: wall-clock seconds the whole search took
    wall_s: float

    def record(self, include_wall: bool = True) -> Dict[str, object]:
        """JSON record; ``include_wall=False`` yields the deterministic
        view (the golden-fixture / regression-gate comparison fields)."""
        out: Dict[str, object] = {
            "system": self.system,
            "config": self.config,
            "mix": self.mix,
            "rate_eps": round(self.rate, 3),
            "bracket_eps": [round(self.bracket[0], 3), round(self.bracket[1], 3)],
            "bracket_width_rel": round(self.width_rel, 6),
            "converged": self.converged,
            "slo_margin": round(self.slo_margin, 6),
            "probes": self.probes,
            "probe_log": self.probe_log,
            "slo": self.slo,
            "seed": self.seed,
        }
        if include_wall:
            out["wall_s"] = round(self.wall_s, 3)
        return out


class CapacityPlanner:
    """Find the max sustainable rate for one (system, mix) pair."""

    def __init__(
        self, system: str, mix: TenantMix, config: PlannerConfig = PlannerConfig()
    ) -> None:
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r} (known: {sorted(SYSTEMS)})")
        self.system = system
        self.make_adapter, self.config_label = SYSTEMS[system]
        self.mix = mix
        self.config = config

    # -- the oracle ----------------------------------------------------
    def discrete_probe(self, rate: float) -> Probe:
        """True-mix discrete run judged by the SLO engine."""
        cfg = self.config
        sim = Simulator()
        adapter = self.make_adapter(sim)
        tenants = self.mix.tenant_specs(rate, cfg.seed + 7, cfg.duration, cfg.warmup)
        result = run_tenants(sim, adapter, tenants, series_interval=None)
        verdict = sustainable_verdict({
            t.name: (result.results[t.name], slo_margin(result.slo[t.name]))
            for t in tenants
        })
        headrooms = [c["headroom"] for c in result.capacity.values()]
        detail: Dict[str, object] = {
            "margins": {k: round(v, 6) for k, v in verdict["margins"].items()},
            "min_headroom": round(min(headrooms) if headrooms else 1.0, 6),
            "completed": verdict["completed"],
            "crashed": verdict["crashed"],
        }
        if verdict["shed_ticks"]:  # only an infeasible probe sheds
            detail["shed_ticks"] = verdict["shed_ticks"]
        return Probe(
            rate=rate,
            feasible=bool(verdict["feasible"]),
            margin=round(float(verdict["margin"]), 6),
            detail=detail,
        )

    # -- planning ------------------------------------------------------
    def plan(self) -> CapacityPoint:
        cfg = self.config
        start = time.perf_counter()
        search = find_sustainable_rate(
            self.discrete_probe,
            start=cfg.start,
            floor=cfg.floor,
            cap=cfg.cap,
            growth=BRACKET_GROWTH,
            rel_tol=cfg.rel_tol,
            max_probes=cfg.max_probes,
        )
        wall = time.perf_counter() - start
        slo_detail: Dict[str, object] = {}
        for probe in reversed(search.probes):
            if probe.rate == search.rate:
                slo_detail = dict(probe.detail)
                break
        return CapacityPoint(
            system=self.system,
            config=self.config_label,
            mix=self.mix.name,
            rate=search.rate,
            bracket=search.bracket,
            width_rel=search.width_rel,
            converged=search.converged,
            slo_margin=search.margin,
            probes=search.probe_count,
            probe_log=[
                {
                    "rate_eps": round(p.rate, 3),
                    "feasible": p.feasible,
                    "margin": p.margin,
                }
                for p in search.probes
            ],
            slo=slo_detail,
            seed=cfg.seed,
            wall_s=wall,
        )


def plan_capacity(
    system: str,
    mix: "TenantMix | str",
    config: PlannerConfig = PlannerConfig(),
) -> CapacityPoint:
    """One-call capacity point: resolves a mix name and plans it."""
    if isinstance(mix, str):
        if mix not in MIXES:
            raise ValueError(f"unknown mix {mix!r} (known: {sorted(MIXES)})")
        mix = MIXES[mix]
    return CapacityPlanner(system, mix, config).plan()


# ----------------------------------------------------------------------
# A figure's maximum throughput
# ----------------------------------------------------------------------
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
        verdict = sustainable_verdict({"probe": (result, saturation_margin(result))})
        margin = round(float(verdict["margin"]), 6)
        if verdict["feasible"]:
            feasible[rate] = result
        if log is not None:
            stats = sim.stats
            log.append({
                "rate_eps": round(float(rate), 3),
                "feasible": verdict["feasible"],
                "margin": margin,
                "kernel_events": stats.events_executed + stats.microtasks_executed,
                "wall_s": round(time.perf_counter() - started, 3),
            })
        return Probe(rate=rate, feasible=verdict["feasible"], margin=margin)

    search = find_sustainable_rate(
        probe, start=start, cap=cap, growth=BRACKET_GROWTH, rel_tol=rel_tol
    )
    # the bracket's lower end is the highest rate judged feasible
    return feasible.get(search.rate) or BenchResult()
