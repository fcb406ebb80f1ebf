#!/usr/bin/env python3
"""Layered host-time benchmark: four workloads, end-to-end metrics on two
clocks, per-layer attribution from outside the program.

One run of one workload (what the benchmark driver calls)::

    python3 benchmarks/layered/run.py --workload write_small --seed 7 \\
        --seconds 10 --trace 0

prints every metric by name with its unit, then one JSON line with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.

Without ``--workload`` the same file runs all four workloads, each run in
a fresh subprocess, one at a time, repeats interleaved round-robin::

    python3 benchmarks/layered/run.py [--seed S] [--repeats N] [--only W]
        [--trace] [--smoke] [--check] [--aa] [--out DIR]

See README.md beside this file.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOAD_NAMES = ("write_small", "tail_fanout", "replay_cold", "parallel_3sys")
DEFAULT_SEED = 7
#: a run never has fewer timed iterations than this
MIN_ITERATIONS = 3
#: hard stop for the iteration loop, well inside the driver's 180 s
MAX_RUN_S = 100.0
DETAIL_PREFIX = "# detail "


# ----------------------------------------------------------------------
# Machine-speed calibration
# ----------------------------------------------------------------------
def _spin_source(n: int):
    state = 12345
    for _ in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield state


#: calibration-loop length per size (~0.22 s and ~0.02 s on this box)
SPIN_STEPS = {"full": 500_000, "smoke": 50_000}


def calibration_spin(steps: int) -> float:
    """Host seconds of a fixed pure-Python heap+generator loop (the
    simulator's two hot idioms), so machine-speed drift shows in the
    output instead of hiding in the workload numbers."""
    start = time.perf_counter()
    heap: List[int] = []
    for value in _spin_source(steps):
        heapq.heappush(heap, value)
        if len(heap) > 512:
            heapq.heappop(heap)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Small statistics helpers
# ----------------------------------------------------------------------
def iqr_rel(values: List[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (the driver's spread measure)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def per_kev(count: float, ops: int) -> float:
    return count * 1000.0 / ops if ops else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# One run of one workload (in this process)
# ----------------------------------------------------------------------
class Iteration:
    """One set-up + timed region + collection."""

    def __init__(self, workload, setup_s: float, wall_s: float, cpu_s: float, calib_s: float) -> None:
        self.setup_s = setup_s
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        #: the calibration loop's time, mean of just before and just after
        #: the timed region (0 on traced passes, which are not calibrated)
        self.calib_s = calib_s
        self.stats = workload.collect()
        self.legs = workload.leg_walls()


def iterate(
    cls, seed: int, size: str, make_sim, profile=None, tracer_factory=None,
    calibrate=False, on_ready=None,
):
    """Set up and run ``cls`` once; returns (Iteration, workload).
    ``on_ready`` runs between the set-up and the timed region."""
    gc.collect()
    workload = cls(seed, size, make_sim, tracer_factory)
    t0 = time.perf_counter()
    workload.setup()
    t1 = time.perf_counter()
    if on_ready is not None:
        on_ready()
    steps = SPIN_STEPS[size]
    before = calibration_spin(steps) if calibrate else 0.0
    c0 = time.process_time()
    t2 = time.perf_counter()
    if profile is not None:
        profile.enable()
    workload.run()
    if profile is not None:
        profile.disable()
    t3 = time.perf_counter()
    c1 = time.process_time()
    after = calibration_spin(steps) if calibrate else 0.0
    calib = (before + after) / 2.0
    return Iteration(workload, t1 - t0, t3 - t2, c1 - c0, calib), workload


def check_outputs(name: str, size: str, stats: Dict[str, float]) -> List[str]:
    """What every run's outputs must satisfy; returns the violations."""
    problems = []
    due, acked = stats["due"], stats["acked"]
    if stats["errors"]:
        problems.append(f"{stats['errors']} operations failed")
    if stats.get("load_timed_out"):
        problems.append("the load did not finish within the simulated time cap")
    if acked != due - stats.get("shed", 0):
        problems.append(f"acked {acked} != sent {due - stats.get('shed', 0)}")
    if stats.get("shed", 0):
        problems.append(f"open loop shed {stats['shed']} of {due} events")
    if "delivered" in stats:
        groups = stats["attempted"] // due
        if stats["delivered"] != acked * groups:
            problems.append(
                f"delivered {stats['delivered']} != acked {acked} x {groups} groups"
            )
    if name == "replay_cold":
        if not stats["tiered"]:
            problems.append("backlog was not fully tiered before the replay")
        if size == "full" and stats["lts_bytes_read"] <= stats["cache_bytes"]:
            problems.append("replay read no more from LTS than fits in the cache")
    if name in ("write_small", "parallel_3sys") and stats["read.lts_fetch_ops"]:
        problems.append("a write-only workload fetched from LTS")
    return problems


def fingerprint_match(reference: dict, size: str, name: str, seed: int, stats) -> int:
    entry = reference.get(size, {}).get(name)
    if entry is None or entry["seed"] != seed:
        return -1
    return int(entry["stats"] == stats)


def load_reference() -> dict:
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.exists() else {}


def measure(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Run one workload for ``seconds`` and return the full record."""
    import_start = time.perf_counter()
    from repro.sim import Simulator

    import metric_defs
    from workloads import WORKLOADS

    import_s = time.perf_counter() - import_start
    cls = WORKLOADS[name]
    started = time.perf_counter()
    budget = seconds / 3.0 if trace else seconds
    minimum = MIN_ITERATIONS if seconds > 0 and not trace else 2

    iterations: List[Iteration] = []
    workload = None
    while True:
        iteration, workload = iterate(cls, seed, size, Simulator, calibrate=True)
        iterations.append(iteration)
        timed = sum(it.wall_s for it in iterations)
        if len(iterations) >= minimum and timed >= budget:
            break
        if time.perf_counter() - started > MAX_RUN_S:
            break

    stats = iterations[0].stats
    problems = check_outputs(name, size, stats)
    for index, iteration in enumerate(iterations[1:], start=2):
        if iteration.stats != stats:
            diff = sorted(k for k in stats if stats[k] != iteration.stats.get(k))
            problems.append(f"iteration {index} simulated statistics differ: {diff}")

    ops = stats["ops"]
    walls = [it.wall_s for it in iterations]
    calib = [it.calib_s for it in iterations]
    wall = min(walls)
    setup = statistics.median(it.setup_s for it in iterations)
    values: Dict[str, float] = {
        "wall_s": wall,
        "ops_per_wall_s": ops / wall,
        "wall_per_calib": statistics.median(it.wall_s / it.calib_s for it in iterations),
        "setup_s": import_s + setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim.goodput_mbps": stats["goodput_mbps"],
        "sim.op_p50_ms": stats["op_p50_ms"],
        "sim.op_p99_ms": stats["op_p99_ms"],
    }
    record = {
        "workload": name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "inputs": workload.inputs(),
        "iterations": len(iterations),
        "walls_s": walls,
        "cpus_s": [it.cpu_s for it in iterations],
        "setups_s": [it.setup_s for it in iterations],
        "calib_spin_s": calib,
        "import_s": import_s,
        "kernel_events": stats["kernel_events"],
        "sim": stats,
    }

    if trace:
        traced = trace_passes(cls, seed, size, stats, problems)
        record["layers"] = traced["tables"]
        record["top_functions"] = traced["top"]
        values = per_layer_values(
            name, seed, size, stats, iterations, calib, import_s, wall, traced
        )
        names = [m.name for m in metric_defs.PER_LAYER]
    else:
        names = [m.name for m in metric_defs.END_TO_END]

    missing = [n for n in names if n not in values]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    record["metrics"] = {
        n: {"value": values[n], "unit": metric_defs.BY_NAME[n].unit}
        for n in names
        if n in values
    }
    record["problems"] = problems
    record["correct"] = not problems
    record["attempted"] = int(stats["attempted"])
    record["failed"] = int(stats["attempted"] - ops + stats["errors"])
    return record


def trace_passes(cls, seed: int, size: str, stats, problems: List[str]) -> dict:
    """The three traced passes, never mixed with each other or with the
    timed iterations.  Each must execute exactly the untraced run's
    simulated statistics (tracing may not perturb the program)."""
    from repro.obs import Tracer, summarize
    from repro.sim import Simulator

    import layers

    walls = []

    def same(label: str, traced_stats, allowed: str = "") -> None:
        diff = sorted(
            k for k in stats
            if stats[k] != traced_stats.get(k) and not (allowed and allowed in k)
        )
        if diff:
            problems.append(f"{label} pass perturbed the program: {diff}")

    # Pass 1: kernel primitives charged to the calling layer.
    sims: List[layers.AttributingSimulator] = []
    before: List[dict] = []
    entries_before = [0]

    def make_attributing():
        sim = layers.AttributingSimulator()
        sims.append(sim)
        return sim

    def snapshot() -> None:
        before.extend(sim.counts() for sim in sims)
        entries_before[0] = sum(sim.queue_entries() for sim in sims)

    iteration, _ = iterate(cls, seed, size, make_attributing, on_ready=snapshot)
    walls.append(iteration.wall_s)
    same("primitive-attribution", iteration.stats)
    kprim = {kind: dict.fromkeys(layers.CALLER_LAYERS, 0) for kind in ("spawns", "sched", "futures")}
    for sim, old in zip(sims, before):
        for kind, counter in sim.counts().items():
            for layer, count in counter.items():
                kprim[kind][layer] += count - old[kind][layer]
    entries = sum(sim.queue_entries() for sim in sims) - entries_before[0]
    timer_yields = entries - sum(kprim["spawns"].values()) - sum(kprim["sched"].values())
    if timer_yields < 0:
        problems.append(
            f"primitive counts exceed the kernel's queue entries by {-timer_yields}"
        )

    # Pass 2: cProfile grouped by source file.
    profile = cProfile.Profile()
    iteration, _ = iterate(cls, seed, size, Simulator, profile=profile)
    walls.append(iteration.wall_s)
    same("cProfile", iteration.stats)
    self_s, calls, total, top = layers.profile_by_layer(profile)
    if abs(sum(self_s.values()) - total) > 1e-6 * max(total, 1.0):
        problems.append("per-layer self time does not sum to the profiled total")
    if cls.name != "parallel_3sys" and (calls["kafka"] or calls["pulsar"]):
        problems.append("kafka/pulsar code ran outside parallel_3sys")

    # Pass 3: simulated critical path of the median Pravega write.
    simpath = dict.fromkeys(("network", "fsync", "quorum", "queueing"), 0.0)
    obs_extra_events = 0
    if cls.name in ("write_small", "parallel_3sys"):
        iteration, workload = iterate(cls, seed, size, Simulator, tracer_factory=Tracer)
        walls.append(iteration.wall_s)
        # An attached repro.obs tracer costs the kernel one microtask per
        # traced append; every other simulated statistic must not move.
        same("repro.obs", iteration.stats, allowed="kernel_")
        obs_extra_events = iteration.stats["kernel_events"] - stats["kernel_events"]
        result = workload.result if cls.name == "write_small" else workload.legs[0].result
        window = (result.extra["trace.window_start"], result.extra["trace.window_end"])
        summary = summarize(workload.tracers[0], window=window)
        for part in simpath:
            simpath[part] = summary.get(f"p50.{part}", 0.0) * 1e3

    return {
        "obs_extra_events": obs_extra_events,
        "walls": walls,
        "top": top,
        "tables": {
            "host_self_s": self_s,
            "host_calls": calls,
            "kprim": kprim,
            "kernel_timer_yields": timer_yields,
            "simpath_p50_ms": simpath,
            "profiled_total_s": total,
        },
    }


def per_layer_values(
    name, seed, size, stats, iterations, calib, import_s, wall, traced
) -> Dict[str, float]:
    import layers

    ops = stats["ops"]
    tables = traced["tables"]
    out: Dict[str, float] = {}
    for layer in layers.LAYERS:
        out[f"host.{layer}.self_s"] = tables["host_self_s"][layer]
        out[f"host.{layer}.calls_per_kev"] = per_kev(tables["host_calls"][layer], ops)
    for layer in layers.CALLER_LAYERS:
        for kind in ("spawns", "sched", "futures"):
            out[f"kprim.{layer}.{kind}_per_kev"] = per_kev(tables["kprim"][kind][layer], ops)

    out["kernel.events_per_kev"] = per_kev(stats["kernel_events"], ops)
    out["kernel.microtasks_per_kev"] = per_kev(stats["kernel_microtasks"], ops)
    out["kernel.timer_yields_per_kev"] = per_kev(tables["kernel_timer_yields"], ops)
    out["kernel.heap_peak"] = stats["kernel_heap_peak"]
    out["kernel.cancel_skipped"] = stats["kernel_cancel_skipped"]
    out["kernel.us_per_event"] = ratio(wall * 1e6, stats["kernel_events"])

    user = stats["user_bytes"]
    moved = stats.get("delivered_bytes", user)
    reads = stats["read.cache_hits"] + stats["read.cache_misses"]
    out["disk.writes_per_kev"] = per_kev(stats["disk_ops"], ops)
    out["disk.bytes_per_write"] = ratio(stats["disk_bytes"], stats["disk_ops"])
    out["disk.file_switches_per_kev"] = per_kev(stats["disk_switches"], ops)
    out["journal.write_amp"] = ratio(stats["disk_bytes"], user)
    out["net.msgs_per_kev"] = per_kev(stats["net_msgs"], ops)
    out["net.bytes_per_user_byte"] = ratio(stats["net_bytes"], moved)
    appended = stats.get("pravega.acked", stats["acked"])
    out["container.events_per_append"] = ratio(appended, stats["append.count"])
    out["container.throttled_appends"] = stats["append.throttled"] + stats["append.cache_throttled"]
    out["cache.hit_ratio"] = ratio(stats["read.cache_hits"], reads)
    out["cache.evictions"] = stats["cache.evictions"]
    out["tier.flushes"] = stats["tier.flushes"]
    out["lts.write_ops"] = stats["lts_chunks_written"]
    out["lts.bytes_written_per_user_byte"] = ratio(stats["lts_bytes_written"], user)
    out["lts.read_ops"] = stats["read.lts_fetch_ops"]
    out["lts.read_amp"] = ratio(stats["lts_bytes_read"], stats.get("delivered_bytes", 0))
    out["reader.events_per_read"] = ratio(stats.get("delivered", 0), stats.get("reads", 0))

    legs = [it.legs for it in iterations]
    for system in ("pravega", "kafka", "pulsar"):
        out[f"sys.{system}.wall_s"] = (
            statistics.median(leg[system] for leg in legs) if legs[0] else 0.0
        )
        out[f"sys.{system}.kernel_events"] = stats.get(f"{system}.kernel_events", 0)
        out[f"sys.{system}.sim_goodput_mbps"] = stats.get(f"{system}.goodput_mbps", 0.0)
    for part, value in tables["simpath_p50_ms"].items():
        out[f"simpath.p50.{part}_ms"] = value

    out["sim.write_p50_ms"] = stats["write_p50_ms"]
    out["sim.write_p99_ms"] = stats["write_p99_ms"]
    out["sim.e2e_p50_ms"] = stats.get("e2e_p50_ms", 0.0)
    out["sim.e2e_p99_ms"] = stats.get("e2e_p99_ms", 0.0)
    out["sim.op_samples"] = stats["op_samples"]
    out["sim.end_s"] = stats["sim_end_s"]
    walls = [it.wall_s for it in iterations]
    out["wall_s.median"] = statistics.median(walls)
    out["wall_s.iqr_rel"] = iqr_rel(walls)
    out["cpu_s"] = statistics.median(it.cpu_s for it in iterations)
    out["setup.import_s"] = import_s
    out["calib.spin_s"] = statistics.median(calib)
    out["calib.spread_rel"] = ratio(max(calib) - min(calib), statistics.median(calib))
    out["trace.overhead_ratio"] = ratio(statistics.fmean(traced["walls"]), wall)
    out["trace.obs_extra_events_per_kev"] = per_kev(traced["obs_extra_events"], ops)
    out["sim.fingerprint_match"] = fingerprint_match(load_reference(), size, name, seed, stats)
    shed = stats.get("shed", stats["due"] - stats["acked"] - stats["errors"])
    out["gen.shed_share"] = ratio(shed, stats["due"])
    return out


def print_record(record: dict) -> None:
    import metric_defs

    print(
        f"{record['workload']}  seed={record['seed']}  size={record['size']}  "
        f"iterations={record['iterations']}  kernel_events={record['kernel_events']}  "
        f"op_samples={record['sim']['op_samples']}"
    )
    for name, entry in record["metrics"].items():
        metric = metric_defs.BY_NAME[name]
        print(
            f"  {name:<44} {entry['value']:>16.6f} {entry['unit']:<6} "
            f"[{metric.clock}, {metric.better} is better]"
        )
    for row in record.get("top_functions", []):
        print(
            f"  top  {row['self_s']:8.4f} s {row['calls']:>9}x  "
            f"{row['layer']:<18} {row['function']}"
        )
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def run_single(args) -> int:
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), _size(args))
    print_record(record)
    print(DETAIL_PREFIX + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# All workloads, each run in a fresh subprocess
# ----------------------------------------------------------------------
def _size(args) -> str:
    return "smoke" if args.smoke else "full"


def run_child(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{name}: run failed with exit code {done.returncode}")
    for line in reversed(done.stdout.splitlines()):
        if line.startswith(DETAIL_PREFIX):
            return json.loads(line[len(DETAIL_PREFIX):])
    raise SystemExit(f"{name}: run printed no detail record")


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def manifest(args, selected, order, runs) -> dict:
    """The configuration capture that goes on every output file."""
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "size": _size(args),
        "run_order": order,
        "inputs": {w: runs[w][0]["inputs"] for w in selected},
        "kernel_events": {w: runs[w][0]["kernel_events"] for w in selected},
        "iterations": {w: [r["iterations"] for r in runs[w]] for w in selected},
        "calib_spin_s": {w: [r["calib_spin_s"] for r in runs[w]] for w in selected},
    }


def run_set(args, selected: List[str], seeds: List[int]) -> tuple:
    """One set of runs: repeat r of every workload, then repeat r+1, so a
    slow period of the machine costs one repeat of each workload."""
    runs: Dict[str, List[dict]] = {w: [] for w in selected}
    order = []
    for rep, seed in enumerate(seeds):
        for name in selected:
            record = run_child(name, seed, args.seconds, False, args.smoke)
            runs[name].append(record)
            order.append(f"{name}#{rep}")
            print(
                f"  {name:<14} rep {rep} seed {seed}: wall_s "
                f"{record['metrics']['wall_s']['value']:.4f}  "
                f"{'ok' if record['correct'] else 'PROBLEMS: ' + '; '.join(record['problems'])}",
                flush=True,
            )
    return runs, order


def summarize_runs(runs: Dict[str, List[dict]], same_seed: bool) -> tuple:
    """Median of every end-to-end metric per workload; with one seed the
    ``sim`` metrics must be identical across repeats."""
    import metric_defs

    table: Dict[str, Dict[str, dict]] = {}
    problems = []
    for name, records in runs.items():
        table[name] = {}
        for record in records:
            problems += [f"{name}: {p}" for p in record["problems"]]
        for metric in metric_defs.END_TO_END:
            values = [r["metrics"][metric.name]["value"] for r in records]
            if same_seed and metric.clock == "sim" and len(set(values)) > 1:
                problems.append(f"{name}: {metric.name} differs across repeats: {values}")
            table[name][metric.name] = {
                "median": statistics.median(values),
                "iqr_rel": iqr_rel(values),
                "values": values,
                "unit": metric.unit,
                "clock": metric.clock,
                "better": metric.better,
                "bound": metric.bound,
            }
    return table, problems


def print_table(table: Dict[str, Dict[str, dict]]) -> None:
    for name, rows in table.items():
        print(f"\n{name}")
        for metric, row in rows.items():
            print(
                f"  {metric:<20} {row['median']:>16.6f} {row['unit']:<5} "
                f"[{row['clock']}, {row['better']} is better, bound {row['bound']:.0%}]  "
                f"spread {row['iqr_rel']:.2%}"
            )


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def run_check(args, selected: List[str]) -> int:
    """Compare the default seed's simulated statistics with reference.json."""
    reference = load_reference()
    size = _size(args)
    failures = []
    fresh: Dict[str, dict] = {}
    for name in selected:
        record = run_child(name, DEFAULT_SEED, 0.0, False, args.smoke)
        fresh[name] = {"seed": DEFAULT_SEED, "stats": record["sim"]}
        failures += [f"{name}: {p}" for p in record["problems"]]
        entry = reference.get(size, {}).get(name)
        if args.write_reference:
            continue
        if entry is None:
            failures.append(f"{name}: no reference for size {size}")
            continue
        want, got = entry["stats"], record["sim"]
        for field in sorted(set(want) | set(got)):
            if want.get(field) != got.get(field):
                failures.append(
                    f"{name}.{field}: reference {want.get(field)!r}, got {got.get(field)!r}"
                )
        print(f"  {name:<14} {len(got)} simulated statistics compared", flush=True)
    if args.write_reference and not failures:
        reference.setdefault(size, {}).update(fresh)
        write_json(HERE / "reference.json", reference)
    for failure in failures:
        print(f"CHECK FAILED  {failure}")
    print("check: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def run_aa(args, selected: List[str]) -> int:
    """Two sets of runs of the same tree, as the driver makes them: ten
    seeds per workload, spread within a set and drift between the sets."""
    import metric_defs

    seeds = [args.seed + i for i in range(args.repeats)]
    tables = []
    for label in ("A", "B"):
        print(f"set {label}: seeds {seeds}", flush=True)
        runs, _ = run_set(args, selected, seeds)
        table, problems = summarize_runs(runs, same_seed=False)
        tables.append(table)
        for problem in problems:
            print(f"PROBLEM  {problem}")
    exceeded = []
    report: Dict[str, Dict[str, dict]] = {}
    for name in selected:
        report[name] = {}
        print(f"\n{name}")
        for metric in metric_defs.END_TO_END:
            a, b = tables[0][name][metric.name], tables[1][name][metric.name]
            worse = (b["median"] - a["median"]) / a["median"]
            if metric.better == "higher":
                worse = -worse
            spread = max(a["iqr_rel"], b["iqr_rel"])
            report[name][metric.name] = {
                "bound": metric.bound,
                "spread_a": a["iqr_rel"],
                "spread_b": b["iqr_rel"],
                "median_a": a["median"],
                "median_b": b["median"],
                "b_worse_by": worse,
            }
            flags = []
            if worse > metric.bound:
                flags.append("DRIFT")
            if spread > metric.bound and metric.name != "setup_s":
                flags.append("SPREAD")
            if flags:
                exceeded.append(f"{name}.{metric.name}: {' '.join(flags)}")
            print(
                f"  {metric.name:<20} spread {a['iqr_rel']:7.2%} / {b['iqr_rel']:7.2%}   "
                f"B worse by {worse:+7.2%}   bound {metric.bound:.0%}  {' '.join(flags)}"
            )
    write_json(Path(args.out) / "aa.json", {"seeds": seeds, "seconds": args.seconds, "report": report})
    for line in exceeded:
        print(f"A/A EXCEEDED  {line}")
    print("a/a: " + ("FAILED" if exceeded else "ok"))
    return 1 if exceeded else 0


def run_all(args) -> int:
    selected = [args.only] if args.only else list(WORKLOAD_NAMES)
    if args.check or args.write_reference:
        return run_check(args, selected)
    if args.aa:
        return run_aa(args, selected)

    runs, order = run_set(args, selected, [args.seed] * args.repeats)
    table, problems = summarize_runs(runs, same_seed=True)
    print_table(table)
    info = manifest(args, selected, order, runs)
    out = Path(args.out)
    write_json(out / "results.json", {"manifest": info, "end_to_end": table})
    if args.trace:
        traced = {}
        for name in selected:
            record = run_child(name, args.seed, args.seconds, True, args.smoke)
            traced[name] = record
            problems += [f"{name} (traced): {p}" for p in record["problems"]]
            print()
            print_record(record)
        write_json(
            out / "layers.json",
            {
                "manifest": info,
                "per_layer": {w: traced[w]["metrics"] for w in selected},
                "tables": {w: traced[w]["layers"] for w in selected},
                "top_functions": {w: traced[w]["top_functions"] for w in selected},
            },
        )
    for problem in problems:
        print(f"PROBLEM  {problem}")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run this one workload in this process and print the result line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds of timed work per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="per-layer metrics from three extra traced passes")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 of the simulated durations and backlog")
    parser.add_argument("--repeats", type=int, default=None,
                        help="runs per workload (default 3; 10 with --aa; 1 with --smoke)")
    parser.add_argument("--only", choices=WORKLOAD_NAMES, help="all-workloads mode: just this one")
    parser.add_argument("--check", action="store_true",
                        help="compare the default seed's simulated statistics with reference.json")
    parser.add_argument("--write-reference", action="store_true",
                        help="re-baseline reference.json (a deliberate act)")
    parser.add_argument("--aa", action="store_true",
                        help="two sets of runs of this tree; fail if they disagree beyond the bounds")
    parser.add_argument("--out", default=str(HERE / "out"), help="directory for result files")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        sys.stderr.write(f"layered benchmark: the program's source is missing ({SRC}/repro)\n")
        return 2
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.seconds is None:
        if args.smoke:
            args.seconds = 0.0
        else:
            args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.repeats is None:
        args.repeats = 10 if args.aa else 1 if args.smoke else 3
    if args.workload:
        return run_single(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
