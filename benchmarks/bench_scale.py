#!/usr/bin/env python
"""Accuracy contract of the fluid model (:mod:`repro.sim.fluid`).

``fig05a_xval`` / ``fig06a_xval`` measure the figure-5a and figure-6a
headline metrics twice, full discrete vs fluid-accelerated, recording
per-variant error, wall seconds per leg, and kernel events avoided.
One JSON report, ``BENCH_scale.json``.

Driven by ``python -m repro.bench run scale [--check]`` (``make
bench-scale`` / ``make scale-check``).  Each timed leg runs ``--repeats``
times (default 3) and the best wall time is kept; ``--check`` runs
trimmed scenarios (single repeat) under generous wall-clock budgets and
exits non-zero on blowouts.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from repro.bench import (
    KafkaAdapter,
    PravegaAdapter,
    PulsarAdapter,
    WorkloadSpec,
    find_max_throughput,
    harness,
    run_workload,
)
from repro.pulsar import PulsarProducerConfig
from repro.sim import Simulator
from repro.sim.fluid import FluidSpec

EVENT_SIZE = 100


def _spec(partitions: int, rate: float, fluid: Optional[FluidSpec]) -> WorkloadSpec:
    return WorkloadSpec(
        event_size=EVENT_SIZE,
        target_rate=rate,
        partitions=partitions,
        producers=1,
        consumers=0,
        duration=3.0,
        warmup=1.0,
        fluid=fluid,
    )


# ----------------------------------------------------------------------
# Cross-validation legs.  Each leg wraps the adapter factory so every
# Simulator the sweep spins up is captured; summing their stats gives
# the leg's true kernel-event cost.
# ----------------------------------------------------------------------
class _Leg:
    """One timed discrete-or-fluid measurement leg."""

    def __init__(self, make_adapter, fluid: Optional[FluidSpec]):
        self.make_adapter = make_adapter
        self.fluid = fluid
        self.sims: List[Simulator] = []

    def make(self, sim: Simulator):
        self.sims.append(sim)
        return self.make_adapter(sim)

    def kernel_events(self) -> int:
        return sum(
            s.stats.events_executed + s.stats.microtasks_executed for s in self.sims
        )


def _fastest(fn: Callable[[], Dict], repeats: int) -> Dict:
    """The fastest of ``repeats`` runs of ``fn``, with its wall time."""
    out, walls = harness.best_of(fn, repeats)
    return {**out, "wall_s": min(walls)}


def _max_search(make_adapter, fluid, partitions=1, start=100_000) -> Dict:
    leg = _Leg(make_adapter, fluid)
    best = find_max_throughput(
        leg.make,
        _spec(partitions, 0, fluid),
        start_rate=start,
        growth=2.0,
        refine_steps=1,
        max_rate=4_000_000,
    )
    return {
        "max_eps": best.produce_rate,
        "kernel_events": leg.kernel_events(),
    }


def _low_rate_p95(make_adapter, fluid) -> Dict:
    leg = _Leg(make_adapter, fluid)
    spec = dataclasses.replace(_spec(1, 2_000, fluid), tick=1e-3)
    sim = Simulator()
    result = run_workload(sim, leg.make(sim), spec)
    return {
        "p95_s": result.write_latency.p95,
        "kernel_events": leg.kernel_events(),
    }


FIG05A_VARIANTS = {
    "Pravega (flush)": lambda sim: PravegaAdapter(sim, journal_sync=True),
    "Pravega (no flush)": lambda sim: PravegaAdapter(sim, journal_sync=False),
    "Kafka (no flush)": lambda sim: KafkaAdapter(sim, flush_every_message=False),
    "Kafka (flush)": lambda sim: KafkaAdapter(sim, flush_every_message=True),
}

FIG06A_VARIANTS = {
    "Pravega (dynamic)": lambda sim: PravegaAdapter(sim),
    "Pulsar (batch)": lambda sim: PulsarAdapter(
        sim, producer_config=PulsarProducerConfig(batching=True)
    ),
    "Pulsar (no batch)": lambda sim: PulsarAdapter(
        sim, producer_config=PulsarProducerConfig(batching=False)
    ),
}


def _xval_record(per_variant: List[Dict]) -> Dict:
    wall_d = sum(v["discrete_wall_s"] for v in per_variant)
    wall_f = sum(v["fluid_wall_s"] for v in per_variant)
    events_d = sum(v["discrete_kernel_events"] for v in per_variant)
    events_f = sum(v["fluid_kernel_events"] for v in per_variant)
    return {
        "variants": per_variant,
        "wall_s": wall_f,
        "discrete_wall_s": wall_d,
        "fluid_wall_s": wall_f,
        "speedup": wall_d / max(wall_f, 1e-9),
        "kernel_events_discrete": events_d,
        "kernel_events_fluid": events_f,
        "kernel_events_avoided": events_d - events_f,
        "max_err_pct": max(
            e for v in per_variant for e in v["errors_pct"].values()
        ),
    }


def fig05a_xval(repeats: int, variants=None) -> Dict:
    per_variant = []
    for label in variants or FIG05A_VARIANTS:
        make = FIG05A_VARIANTS[label]
        d = _fastest(lambda: _max_search(make, None), repeats)
        f = _fastest(lambda: _max_search(make, FluidSpec()), repeats)
        err = abs(f["max_eps"] - d["max_eps"]) / max(d["max_eps"], 1.0) * 100.0
        per_variant.append(
            {
                "variant": label,
                "discrete_max_eps": d["max_eps"],
                "fluid_max_eps": f["max_eps"],
                "errors_pct": {"max_eps": err},
                "discrete_wall_s": d["wall_s"],
                "fluid_wall_s": f["wall_s"],
                "discrete_kernel_events": d["kernel_events"],
                "fluid_kernel_events": f["kernel_events"],
            }
        )
    return _xval_record(per_variant)


def fig06a_xval(repeats: int, variants=None) -> Dict:
    per_variant = []
    for label in variants or FIG06A_VARIANTS:
        make = FIG06A_VARIANTS[label]
        d_lat = _fastest(lambda: _low_rate_p95(make, None), repeats)
        f_lat = _fastest(lambda: _low_rate_p95(make, FluidSpec()), repeats)
        d_max = _fastest(lambda: _max_search(make, None, start=50_000), repeats)
        f_max = _fastest(
            lambda: _max_search(make, FluidSpec(), start=50_000), repeats
        )
        lat_err = (
            abs(f_lat["p95_s"] - d_lat["p95_s"]) / max(d_lat["p95_s"], 1e-9) * 100.0
        )
        max_err = (
            abs(f_max["max_eps"] - d_max["max_eps"])
            / max(d_max["max_eps"], 1.0)
            * 100.0
        )
        per_variant.append(
            {
                "variant": label,
                "discrete_p95_ms": d_lat["p95_s"] * 1e3,
                "fluid_p95_ms": f_lat["p95_s"] * 1e3,
                "discrete_max_eps": d_max["max_eps"],
                "fluid_max_eps": f_max["max_eps"],
                "errors_pct": {"p95": lat_err, "max_eps": max_err},
                "discrete_wall_s": d_lat["wall_s"] + d_max["wall_s"],
                "fluid_wall_s": f_lat["wall_s"] + f_max["wall_s"],
                "discrete_kernel_events": d_lat["kernel_events"]
                + d_max["kernel_events"],
                "fluid_kernel_events": f_lat["kernel_events"]
                + f_max["kernel_events"],
            }
        )
    return _xval_record(per_variant)


# ----------------------------------------------------------------------
# Harness protocol (repro.bench.harness)
# ----------------------------------------------------------------------
REPEATS = 3


# (name, full thunk(repeats), smoke thunk(repeats), smoke budget s)
SCENARIOS = [
    ("fig05a_xval", fig05a_xval, lambda r: fig05a_xval(1, variants=["Kafka (no flush)"]), 120.0),
    ("fig06a_xval", fig06a_xval, lambda r: fig06a_xval(1, variants=["Pulsar (no batch)"]), 120.0),
]


def describe(record: Dict) -> str:
    return (
        f"{record['discrete_wall_s']:6.1f}s -> {record['fluid_wall_s']:5.1f}s "
        f"({record['speedup']:.1f}x, max err {record['max_err_pct']:.2f}%)"
    )
