"""Parallel figure-suite runner.

Every figure benchmark is a deterministic, single-threaded simulation, so
the whole suite is embarrassingly parallel: this module fans the figure
scenarios out across a ``ProcessPoolExecutor`` and collects per-scenario
wall time, simulated time, kernel events and headline metrics into one
JSON report (committed as ``BENCH_suite.json``).

Determinism contract: a scenario's *results* (simulated time, kernel
event counts, figure metrics) are identical regardless of ``--jobs`` —
only wall-clock timing fields may differ between runs.  ``--check``
exercises the machinery on three fast smoke scenarios and verifies that
contract across serial and parallel execution.

Usage::

    python -m repro.bench suite --jobs 4 --json BENCH_suite.json
    python -m repro.bench suite --check
    python -m repro.bench suite --jobs 4 --only fig05,fig08

A scenario is a plain function returning its metrics dict; the runner
evaluates the scenario's rows of :mod:`repro.bench.claims` over it and
stores the verdicts in the record (a failing row marks the scenario
``ok: false`` instead of aborting the suite).  ``claims.check`` — what
the regression gate applies to the committed file — re-evaluates the
same rows over the committed metrics.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import random
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench import claims, harness

__all__ = ["SCENARIOS", "run_scenario", "run_suite", "main"]


# ----------------------------------------------------------------------
# Scenario registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One suite entry: the function ``name`` of a figure-benchmark
    module (of this module, as ``_<name>``, for a smoke scenario)."""

    name: str
    module: str  # module under benchmarks/ (e.g. "bench_fig05_durability")
    seed: int  # per-scenario seed (recorded; sims are deterministic)
    #: rough relative cost, used to schedule long scenarios first so a
    #: straggler does not serialize the tail of the parallel run
    weight: int = 1
    smoke: bool = False


def _registry() -> Dict[str, Scenario]:
    figure = [
        # name, module, weight
        ("fig05a", "bench_fig05_durability", 8),
        ("fig05b", "bench_fig05_durability", 8),
        ("fig05c", "bench_fig05_durability", 4),
        ("fig06a", "bench_fig06_batching", 6),
        ("fig06b", "bench_fig06_batching", 4),
        ("fig07a", "bench_fig07_large_events", 6),
        ("fig07b", "bench_fig07_large_events", 6),
        ("fig08a", "bench_fig08_tail_reads", 6),
        ("fig08b", "bench_fig08_tail_reads", 6),
        ("fig09", "bench_fig09_routing_keys", 8),
        ("fig10a", "bench_fig10_parallelism", 10),
        ("fig10b", "bench_fig10_parallelism", 10),
        ("fig11", "bench_fig11_max_throughput", 10),
        ("fig11b", "bench_fig11_max_throughput", 4),
        ("fig12", "bench_fig12_historical", 6),
        ("fig13", "bench_fig13_autoscaling", 6),
        ("table1", "bench_table1_config", 2),
        ("workload_diurnal", "bench_workload", 8),
        ("workload_flash", "bench_workload", 8),
        ("workload_slo", "bench_workload", 6),
    ]
    entries: Dict[str, Scenario] = {}
    for i, (name, module, weight) in enumerate(figure):
        entries[name] = Scenario(name, module, seed=1000 + i, weight=weight)
    # fixed seeds: removing a smoke scenario must not reseed the others
    for system, seed in (("pravega", 2000), ("kafka", 2001), ("pulsar", 2002),
                         ("workload", 2003), ("read", 2005)):
        name = f"smoke_{system}"
        entries[name] = Scenario(name, "", seed=seed, weight=1, smoke=True)
    return entries


SCENARIOS: Dict[str, Scenario] = _registry()


# ----------------------------------------------------------------------
# Smoke scenarios: tiny in-process workloads exercising each system's
# message path end to end (used by --check and the determinism tests)
# ----------------------------------------------------------------------
def _smoke_spec():
    from repro.bench.runner import WorkloadSpec

    return WorkloadSpec(
        event_size=100,
        target_rate=5_000,
        partitions=2,
        producers=1,
        consumers=1,
        duration=1.0,
        warmup=0.25,
    )


def _run_smoke(adapter: str, **kwargs) -> dict:
    from repro.bench import adapters
    from repro.bench.runner import run_workload
    from repro.sim import Simulator

    sim = Simulator()
    result = run_workload(sim, getattr(adapters, adapter)(sim, **kwargs), _smoke_spec())
    return {
        "produce_rate": result.produce_rate,
        "consume_rate": result.consume_rate,
        "write_p50_us": result.write_latency.p50 * 1e6,
        "e2e_p95_us": result.e2e_latency.p95 * 1e6,
    }


_smoke_pravega = functools.partial(_run_smoke, "PravegaAdapter", journal_sync=True)
_smoke_kafka = functools.partial(_run_smoke, "KafkaAdapter", flush_every_message=False)
_smoke_pulsar = functools.partial(_run_smoke, "PulsarAdapter")


def _smoke_workload() -> dict:
    """Two tenants (Poisson + constant) multiplexed through one Pravega
    cluster with SLO evaluation — the repro.workload path end to end."""
    from repro.bench.adapters import PravegaAdapter
    from repro.bench.runner import WorkloadSpec
    from repro.sim import Simulator
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


def _smoke_read() -> dict:
    """Serving-tier read path end to end: shared tail fan-out delivery
    plus a coalescing off/on replay of an LTS-resident backlog (the
    repro.pravega read-path, serving features ON)."""
    bench_read = harness.load("bench_read")
    fanout = bench_read.run_fanout(readers=8, events=8)
    off = bench_read.run_replay(
        False, readers=4, backlog_bytes=3 * 1024 * 1024, cache_bytes=2 * 1024 * 1024
    )
    on = bench_read.run_replay(
        True, readers=4, backlog_bytes=3 * 1024 * 1024, cache_bytes=2 * 1024 * 1024
    )
    return {
        "fanout.delivered_events": fanout["delivered_events"],
        "fanout.caught_up": fanout["caught_up"],
        "fanout.p50_ms": fanout["p50_ms"],
        "fanout.kernel_events": fanout["kernel_events"],
        "replay.off_lts_fetch_ops": off["lts_fetch_ops"],
        "replay.on_lts_fetch_ops": on["lts_fetch_ops"],
        "replay.coalesced_fetches": on["coalesced_fetches"],
        "replay.delivered_bytes": on["delivered_bytes"],
        "replay.bytes_equal": on["delivered_bytes"] == off["delivered_bytes"],
    }


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def _run_captured(name: str) -> Tuple[dict, str]:
    """Execute one scenario in this process: its result record and
    everything it printed (the figure table)."""
    scenario = SCENARIOS[name]
    from repro.sim.core import Simulator

    random.seed(scenario.seed)
    sims: List[Simulator] = []
    original_init = Simulator.__init__

    def tracking_init(self) -> None:  # noqa: ANN001 - bound to Simulator
        original_init(self)
        sims.append(self)

    record: dict = {"name": name, "seed": scenario.seed, "ok": True, "error": None}
    output = io.StringIO()
    start = time.perf_counter()
    try:
        if scenario.smoke:
            fn = globals()[f"_{name}"]
        else:
            fn = getattr(harness.load(scenario.module), name)
        Simulator.__init__ = tracking_init  # type: ignore[method-assign]
        with contextlib.redirect_stdout(output):
            metrics = fn()
        # a value JSON cannot carry is this scenario's error, not the writer's
        record.update(harness.record(name, metrics))
        failed = claims.failures(record["claims"])
        if failed:
            record["ok"] = False
            record["error"] = "; ".join(failed)
    except Exception as exc:  # noqa: BLE001 - report, don't kill the suite
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
    return record, output.getvalue()


def run_scenario(name: str) -> dict:
    """One scenario's result record.  Results are deterministic; the
    ``wall_s`` / ``events_per_second`` fields are the only
    timing-dependent values in it."""
    return _run_captured(name)[0]


# ----------------------------------------------------------------------
# Suite driver
# ----------------------------------------------------------------------
def _print_status(record: dict) -> None:
    status = "ok" if record["ok"] else "FAIL"
    print(f"  [suite] {record['name']}: {status} ({record['wall_s']:.1f}s)", flush=True)
    if record["error"]:
        print(f"          {record['error']}", flush=True)


def run_suite(
    names: List[str],
    jobs: int = 1,
    progress: bool = True,
) -> dict:
    """Run ``names`` with ``jobs`` worker processes; returns the report."""
    for name in names:
        if name not in SCENARIOS:
            raise SystemExit(
                f"unknown scenario {name!r} (known: {', '.join(sorted(SCENARIOS))})"
            )
    # Longest-expected-first submission order: a heavy straggler started
    # last would serialize the tail of the run.
    ordered = sorted(names, key=lambda n: -SCENARIOS[n].weight)
    start = time.perf_counter()
    results: Dict[str, dict] = {}
    if jobs <= 1:
        for name in ordered:
            if progress:
                print(f"  [suite] {name} ...", flush=True)
            results[name], printed = _run_captured(name)
            if progress:
                _print_status(results[name])
                # the scenario's own table: with it, `suite --only fig05`
                # shows everything the figure run has to show
                print(printed, end="", flush=True)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            pending = {pool.submit(run_scenario, name): name for name in ordered}
            while pending:
                done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
                for future in done:
                    name = pending.pop(future)
                    results[name] = future.result()
                    if progress:
                        _print_status(results[name])
    suite_wall = time.perf_counter() - start
    per_scenario = [results[name] for name in names]
    # Sum of per-scenario walls.  On a machine with >= jobs cores this
    # approximates a serial run and the ratio below is the parallel
    # speedup; on a core-bound box the workers time-slice, per-scenario
    # walls inflate by the contention factor, and the honest speedup is
    # a measured --jobs 1 wall vs a measured --jobs N wall instead.
    serial_estimate = sum(r["wall_s"] for r in per_scenario)
    # The scenario that bounds the whole run: no jobs count can push the
    # suite wall below it.
    longest = max(per_scenario, key=lambda r: r["wall_s"]) if per_scenario else None
    return {
        "jobs": jobs,
        "suite_wall_s": round(suite_wall, 3),
        "longest_scenario": (
            {"name": longest["name"], "wall_s": longest["wall_s"]} if longest else None
        ),
        "serial_wall_estimate_s": round(serial_estimate, 3),
        "parallel_speedup_vs_serial_estimate": (
            round(serial_estimate / suite_wall, 2) if suite_wall > 0 else None
        ),
        "ok": all(r["ok"] for r in per_scenario),
        "scenarios": per_scenario,
    }


#: the per-scenario fields that are a pure function of the scenario:
#: identical across ``--jobs`` and across the files that record it
DETERMINISTIC_FIELDS = (
    "name", "seed", "ok", "error", "metrics", "claims", "sim_time_s",
    "simulations", "kernel_events",
)


def deterministic_view(report: dict) -> list:
    """The per-scenario fields that must be identical across ``--jobs``."""
    return [
        {key: record[key] for key in DETERMINISTIC_FIELDS}
        for record in report["scenarios"]
    ]


def _expand_selection(spec: str) -> List[str]:
    """Expand a comma-separated ``--only``/``--skip`` value.

    Each token is an exact scenario name or a prefix (``fig10`` ->
    ``fig10a, fig10b``); unknown tokens are an error, not a silent no-op.
    """
    names: List[str] = []
    for token in (t.strip() for t in spec.split(",")):
        if not token:
            continue
        if token in SCENARIOS:
            matches = [token]
        else:
            matches = sorted(n for n in SCENARIOS if n.startswith(token))
            if not matches:
                raise SystemExit(
                    f"unknown scenario {token!r} "
                    f"(known: {', '.join(sorted(SCENARIOS))})"
                )
        names.extend(m for m in matches if m not in names)
    return names


def main(args) -> int:
    """``suite``: list, smoke-check or run the figure scenarios."""
    if args.list:
        for name, scenario in SCENARIOS.items():
            kind = "smoke" if scenario.smoke else scenario.module
            print(f"  {name:12s} {kind}")
        return 0

    if args.check:
        names = [n for n, s in SCENARIOS.items() if s.smoke]
        print(f"suite --check: {len(names)} smoke scenarios, serial vs --jobs {args.jobs}")
        serial = run_suite(names, jobs=1, progress=False)
        parallel = run_suite(names, jobs=max(2, args.jobs), progress=False)
        if deterministic_view(serial) != deterministic_view(parallel):
            print("FAIL: results differ between serial and parallel runs")
            return 1
        if not serial["ok"]:
            bad = [r["name"] for r in serial["scenarios"] if not r["ok"]]
            print(f"FAIL: smoke scenarios failed: {', '.join(bad)}")
            return 1
        for record in serial["scenarios"]:
            print(
                f"  {record['name']:14s} ok  {record['kernel_events']:>9,} events"
                f"  sim {record['sim_time_s']:.2f}s"
            )
        print("suite --check: serial and parallel results identical")
        return 0

    if args.only:
        names = _expand_selection(args.only)
    else:
        names = [n for n, s in SCENARIOS.items() if not s.smoke]
    if args.skip:
        skipped = set(_expand_selection(args.skip))
        names = [n for n in names if n not in skipped]
    if not names:
        raise SystemExit("selection is empty (check --only/--skip)")
    print(f"running {len(names)} scenarios with --jobs {args.jobs}")
    report = run_suite(names, jobs=args.jobs)
    print(
        f"suite: {report['suite_wall_s']:.1f}s wall with {args.jobs} jobs "
        f"(sum of scenario walls {report['serial_wall_estimate_s']:.1f}s, "
        f"speedup {report['parallel_speedup_vs_serial_estimate']}x, "
        f"{os.cpu_count()} cpus)"
    )
    for record in report["scenarios"]:
        status = "ok " if record["ok"] else "FAIL"
        print(f"  {status} {record['name']:10s} {record['wall_s']:7.1f}s")
    if args.json:
        harness.write_json(args.json, report)
    return 0 if report["ok"] else 1
