"""The figure suite: every figure of the paper's §5, Table 1 and the
``repro.workload`` experiments, one scenario each.

A figure scenario is the plain function of its name in a figure script
(``bench_fig05_durability.fig05a`` ... ``bench_workload.workload_slo``):
it prints a table pairing the paper's claim with the measured value and
returns its metrics, and its claims are rows of
:mod:`repro.bench.claims`.  A smoke scenario drives one system's message
path end to end in about a second and carries no claim row; ``--check``
runs those.  Every scenario is a deterministic, single-threaded
simulation, so ``--jobs N`` fans them out across worker processes
without changing a deterministic field of any record.

A record carries, beside its metrics and verdicts, the seed the scenario
ran from, the simulated seconds and kernel events of every
:class:`~repro.sim.Simulator` it built, and its wall.  A scenario that
raises or fails a claim row is recorded ``ok: false`` with its error
instead of stopping the run.

Usage::

    python -m repro.bench run suite --jobs 1          # writes BENCH_suite.json
    python -m repro.bench run suite --check --jobs 2  # the smoke scenarios
    python -m repro.bench run suite --scenario fig05 --jobs 1
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import random
import time
import traceback
from typing import Callable, Dict, List

from repro.bench import claims, harness
from repro.sim.core import Simulator

REPEATS = 1  # a scenario is deterministic: nothing to repeat

#: figure scenario -> the script defining it; its seed is 1000 + position
FIGURES = (
    ("fig05a", "bench_fig05_durability"),
    ("fig05b", "bench_fig05_durability"),
    ("fig05c", "bench_fig05_durability"),
    ("fig06a", "bench_fig06_batching"),
    ("fig06b", "bench_fig06_batching"),
    ("fig07a", "bench_fig07_large_events"),
    ("fig07b", "bench_fig07_large_events"),
    ("fig08a", "bench_fig08_tail_reads"),
    ("fig08b", "bench_fig08_tail_reads"),
    ("fig09", "bench_fig09_routing_keys"),
    ("fig10a", "bench_fig10_parallelism"),
    ("fig10b", "bench_fig10_parallelism"),
    ("fig11", "bench_fig11_max_throughput"),
    ("fig11b", "bench_fig11_max_throughput"),
    ("fig12", "bench_fig12_historical"),
    ("fig13", "bench_fig13_autoscaling"),
    ("table1", "bench_table1_config"),
    ("workload_diurnal", "bench_workload"),
    ("workload_flash", "bench_workload"),
    ("workload_slo", "bench_workload"),
)


# ----------------------------------------------------------------------
# Smoke scenarios: tiny in-process workloads exercising each system's
# message path end to end
# ----------------------------------------------------------------------
def _run_smoke(adapter: str, **kwargs) -> dict:
    from repro.bench import adapters
    from repro.bench.runner import WorkloadSpec, run_workload

    spec = WorkloadSpec(
        event_size=100, target_rate=5_000, partitions=2, producers=1, consumers=1,
        duration=1.0, warmup=0.25,
    )
    sim = Simulator()
    result = run_workload(sim, getattr(adapters, adapter)(sim, **kwargs), spec)
    return {
        "produce_rate": result.produce_rate,
        "consume_rate": result.consume_rate,
        "write_p50_us": result.write_latency.p50 * 1e6,
        "e2e_p95_us": result.e2e_latency.p95 * 1e6,
    }


def _smoke_workload() -> dict:
    """Two tenants (Poisson + constant) multiplexed through one Pravega
    cluster with SLO evaluation — the repro.workload path end to end."""
    from repro.bench.adapters import PravegaAdapter
    from repro.bench.runner import WorkloadSpec
    from repro.workload import Constant, Poisson, TenantSpec, run_tenants

    sim = Simulator()
    adapter = PravegaAdapter(sim, journal_sync=True)
    window = dict(duration=1.0, warmup=0.25)
    tenants = [
        TenantSpec("alpha", WorkloadSpec(
            arrival=Poisson(3_000.0), partitions=2, consumers=1, seed=11, **window
        )),
        TenantSpec("beta", WorkloadSpec(arrival=Constant(2_000.0), seed=12, **window)),
    ]
    run = run_tenants(sim, adapter, tenants)
    info: dict = {}
    for name, result in run.results.items():
        info[f"{name}.produce_rate"] = result.produce_rate
        info[f"{name}.availability"] = result.extra["slo.availability"]
        info[f"{name}.slo_ok"] = result.extra["slo.ok"]
    return info


#: smoke scenario -> (its function, its seed: fixed, so removing one
#: does not reseed the others)
SMOKES = {
    "smoke_pravega": (
        functools.partial(_run_smoke, "PravegaAdapter", journal_sync=True), 2000,
    ),
    "smoke_kafka": (
        functools.partial(_run_smoke, "KafkaAdapter", flush_every_message=False), 2001,
    ),
    "smoke_pulsar": (functools.partial(_run_smoke, "PulsarAdapter"), 2002),
    "smoke_workload": (_smoke_workload, 2003),
}


# ----------------------------------------------------------------------
# The record of one scenario
# ----------------------------------------------------------------------
def _captured(name: str, seed: int, fn: Callable[[], dict]) -> dict:
    """Run ``fn`` from ``seed``, counting the simulators it builds: its
    record, and its printed table replayed once it finished."""
    random.seed(seed)
    sims: List[Simulator] = []
    original_init = Simulator.__init__

    def tracking_init(self) -> None:  # noqa: ANN001 - bound to Simulator
        original_init(self)
        sims.append(self)

    record: Dict[str, object] = {"name": name, "seed": seed, "ok": True, "error": None}
    output = io.StringIO()
    start = time.perf_counter()
    try:
        Simulator.__init__ = tracking_init  # type: ignore[method-assign]
        with contextlib.redirect_stdout(output):
            metrics = fn()
        # a value JSON cannot carry is this scenario's error, not the writer's
        record.update(harness.record(name, metrics))
        failed = claims.failures(record["claims"])
        if failed:
            record["ok"] = False
            record["error"] = "; ".join(failed)
    except Exception as exc:  # noqa: BLE001 - report, don't kill the run
        record["ok"] = False
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["traceback"] = traceback.format_exc(limit=8)
        record.setdefault("metrics", {})
        record.setdefault("claims", [])
    finally:
        Simulator.__init__ = original_init  # type: ignore[method-assign]
    if not record["ok"]:
        record["stdout_tail"] = output.getvalue()[-2000:]
    wall = time.perf_counter() - start
    events = sum(s._events_executed + s._microtasks_executed for s in sims)
    record["wall_s"] = round(wall, 3)
    record["sim_time_s"] = round(sum(s._now for s in sims), 6)
    record["simulations"] = len(sims)
    record["kernel_events"] = events
    record["events_per_second"] = round(events / wall) if wall > 0 else None
    print(output.getvalue(), end="")
    return record


def _figure(name: str, module: str) -> Callable[[], dict]:
    return lambda: getattr(importlib.import_module(module), name)()


def _row(name: str, seed: int, fn: Callable[[], dict], smoke: bool) -> tuple:
    def thunk(repeats: int) -> dict:
        return _captured(name, seed, fn)

    return (name, None, thunk, 60.0) if smoke else (name, thunk, None, None)


# (scenario, full thunk(repeats), smoke thunk(repeats), smoke budget s)
SCENARIOS = [
    _row(name, 1000 + i, _figure(name, module), smoke=False)
    for i, (name, module) in enumerate(FIGURES)
] + [_row(name, seed, fn, smoke=True) for name, (fn, seed) in SMOKES.items()]


def describe(record: Dict) -> str:
    status = "ok" if record["ok"] else f"FAIL: {record['error']}"
    return f"{record['kernel_events']:>11,} events  {record['wall_s']:7.1f}s  {status}"
