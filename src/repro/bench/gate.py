"""Benchmark regression gate: committed BENCH_*.json vs fresh runs.

The repo commits its performance trajectory as ``BENCH_*.json`` files
(kernel microbenchmarks, the figure suite, workload experiments, the
fluid-scale report, the capacity map, the geo-replication and read-path
reports).  Nothing guarded them: a regression could land silently and
only be noticed when a full suite re-run happened to be eyeballed.  The
gate closes that hole in three layers, cheapest first:

1. **structure** — every committed file parses, has a schema contract
   (an uncontracted ``BENCH_*.json`` is itself a drift) and satisfies it
   (suite scenarios all ``ok``, capacity points all discrete-confirmed,
   geo failover points violation-free with a measured RTO and in-bound
   staleness, ...), and scenarios recorded in more than one file agree
   on their deterministic fields;
2. **smoke re-runs** — a configurable subset of scenarios is re-run
   fresh and compared field by field against the committed records:
   deterministic fields (kernel events, simulated time, figure
   metrics, capacity rates) must match exactly, wall-clock fields only
   within a generous ratio (different machines are expected to differ);
3. **structured diff** — every violation is a :class:`Drift` with the
   file, dotted path, committed and fresh values, the tolerance that
   applied and the measured drift, so a gate failure states precisely
   what rotted, by how much, and against which bound.

Per-metric tolerances are fnmatch patterns over the dotted path
(``--tol 'metrics.*_ms=0.02'``); the first matching pattern wins, so
overrides simply prepend.  Wired into ``make gate`` / ``make check``
and tier-1 via the ``gate`` pytest marker (tests/test_bench_gate.py).

Usage::

    python -m repro.bench gate                       # default smoke set
    python -m repro.bench gate --smoke none          # structure only
    python -m repro.bench gate --smoke suite:fig05c+table1,capacity:kafka/mixed
    python -m repro.bench gate --tol 'wall_s=20' --json gate_report.json
"""

from __future__ import annotations

import argparse
import fnmatch
import glob
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Drift",
    "GateReport",
    "DEFAULT_SMOKE",
    "WALL_RATIO",
    "compare",
    "structure_checks",
    "load_bench_files",
    "run_gate",
    "main",
]

# Fields that measure the machine, not the simulation: compared as a
# ratio with a generous allowance instead of exactly.
WALL_PATTERNS = (
    "*wall_s*",
    "*wall_seconds*",
    "*events_per_second*",
    "*ns_per_event*",
    "*probe_wall*",
    "*speedup*",
    "*suite_wall*",
    "*serial_wall*",
)
# Fields that describe the interpreter process the run happened in (how
# often the cyclic collector ran): their shape is contracted by
# ``structure_checks``, their value is never compared.
PROCESS_PATTERNS = ("*gc_collections*",)
#: fresh wall time may be up to this factor off the committed one in
#: either direction before it counts as drift
WALL_RATIO = 10.0
#: wall values under this (seconds) are noise; ratio checks skip them
WALL_FLOOR = 0.05

DEFAULT_SMOKE = "kernel:timeout_churn+ping_pong_sliced+cancel_storm,suite:table1+fig05c,workload:workload_slo,capacity:pravega/uniform"


@dataclass(frozen=True)
class Drift:
    """One violated bound: what rotted, by how much, against what."""

    file: str
    path: str
    #: "structure" | "exact" | "metric" | "wall" | "missing" | "extra"
    kind: str
    committed: object
    fresh: object
    tolerance: float
    drift: float
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "path": self.path,
            "kind": self.kind,
            "committed": self.committed,
            "fresh": self.fresh,
            "tolerance": self.tolerance,
            "drift": round(self.drift, 6) if isinstance(self.drift, float) else self.drift,
            "message": self.message,
        }


@dataclass
class GateReport:
    ok: bool
    drifts: List[Drift]
    files: List[str]
    smoke: List[Dict[str, object]]
    wall_s: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "files": self.files,
            "smoke": self.smoke,
            "drift_count": len(self.drifts),
            "drifts": [d.as_dict() for d in self.drifts],
            "wall_s": round(self.wall_s, 3),
        }


# ----------------------------------------------------------------------
# Tolerance resolution
# ----------------------------------------------------------------------
def _is_wall(path: str) -> bool:
    return any(fnmatch.fnmatch(path, pat) for pat in WALL_PATTERNS)


def resolve_tolerance(
    path: str, overrides: Sequence[Tuple[str, float]] = ()
) -> Tuple[str, float]:
    """(kind, tolerance) for a dotted path; first matching override wins.

    Override values are relative tolerances for metric fields and ratio
    factors for wall fields (a field is a wall field by pattern, or
    when its override value is > 1).
    """
    for pattern, tol in overrides:
        if fnmatch.fnmatch(path, pattern) or fnmatch.fnmatch(
            path.rsplit(".", 1)[-1], pattern
        ):
            if _is_wall(path) or tol > 1.0:
                return "wall", tol
            return "metric", tol
    if _is_wall(path):
        return "wall", WALL_RATIO
    return "exact", 0.0


# ----------------------------------------------------------------------
# Structured comparison
# ----------------------------------------------------------------------
def _numbers(a: object, b: object) -> bool:
    return isinstance(a, (int, float)) and isinstance(b, (int, float)) and not (
        isinstance(a, bool) or isinstance(b, bool)
    )


def compare(
    file: str,
    path: str,
    committed: object,
    fresh: object,
    overrides: Sequence[Tuple[str, float]] = (),
) -> List[Drift]:
    """Recursive structured diff of a committed record vs a fresh one."""
    drifts: List[Drift] = []
    if any(fnmatch.fnmatch(path, pat) for pat in PROCESS_PATTERNS):
        return drifts
    if isinstance(committed, dict) and isinstance(fresh, dict):
        for key in committed:
            sub = f"{path}.{key}" if path else str(key)
            if key not in fresh:
                drifts.append(Drift(
                    file, sub, "missing", committed[key], None, 0.0, 1.0,
                    "field present in committed record but absent fresh",
                ))
                continue
            drifts.extend(compare(file, sub, committed[key], fresh[key], overrides))
        for key in fresh:
            if key not in committed:
                sub = f"{path}.{key}" if path else str(key)
                drifts.append(Drift(
                    file, sub, "extra", None, fresh[key], 0.0, 1.0,
                    "fresh run produced a field the committed record lacks",
                ))
        return drifts
    if isinstance(committed, list) and isinstance(fresh, list):
        if len(committed) != len(fresh):
            drifts.append(Drift(
                file, path, "structure", len(committed), len(fresh), 0.0, 1.0,
                f"list length {len(committed)} -> {len(fresh)}",
            ))
            return drifts
        for i, (c, f) in enumerate(zip(committed, fresh)):
            drifts.extend(compare(file, f"{path}[{i}]", c, f, overrides))
        return drifts
    if _numbers(committed, fresh):
        kind, tol = resolve_tolerance(path, overrides)
        c, f = float(committed), float(fresh)
        if kind == "wall":
            if max(abs(c), abs(f)) <= WALL_FLOOR:
                return drifts
            lo = max(min(abs(c), abs(f)), WALL_FLOOR)
            ratio = max(abs(c), abs(f)) / lo
            if ratio > tol:
                drifts.append(Drift(
                    file, path, "wall", committed, fresh, tol, ratio,
                    f"wall-clock ratio {ratio:.2f}x exceeds the {tol:.0f}x allowance",
                ))
            return drifts
        if math.isnan(c) and math.isnan(f):
            return drifts
        rel = abs(f - c) / max(abs(c), 1e-12)
        if rel > tol:
            drifts.append(Drift(
                file, path, kind, committed, fresh, tol, rel,
                (
                    f"deterministic field changed ({committed} -> {fresh})"
                    if tol == 0.0
                    else f"relative drift {rel:.4g} exceeds tolerance {tol:.4g}"
                ),
            ))
        return drifts
    if committed != fresh:
        drifts.append(Drift(
            file, path, "exact", committed, fresh, 0.0, 1.0,
            f"value changed ({committed!r} -> {fresh!r})",
        ))
    return drifts


# ----------------------------------------------------------------------
# Committed-file structure contracts
# ----------------------------------------------------------------------
def load_bench_files(root: "str | Path") -> Dict[str, dict]:
    files: Dict[str, dict] = {}
    for path in sorted(glob.glob(os.path.join(str(root), "BENCH_*.json"))):
        with open(path) as fh:
            files[os.path.basename(path)] = json.load(fh)
    return files


def _suite_scenarios(report: dict) -> List[dict]:
    """Per-scenario records of either suite-report layout (flat, or the
    jobs_1/jobs_4 double run of BENCH_suite.json)."""
    if "runs" in report:
        return list(report["runs"].get("jobs_1", {}).get("scenarios", []))
    return list(report.get("scenarios", []))


_SUITE_DET_FIELDS = ("ok", "error", "metrics", "sim_time_s", "simulations", "kernel_events", "seed")


def structure_checks(files: Dict[str, dict], min_capacity_points: int = 6) -> List[Drift]:
    """Schema/invariant checks over the committed files themselves."""
    drifts: List[Drift] = []

    def bad(file: str, path: str, got: object, want: str) -> None:
        drifts.append(Drift(
            file, path, "structure", want, got, 0.0, 1.0,
            f"expected {want}, got {got!r}",
        ))

    contracted = set()

    def contract(fname: str) -> Optional[dict]:
        """The committed file a contract below is about; asking is what
        marks *fname* as contracted, so the list cannot go stale."""
        contracted.add(fname)
        return files.get(fname)

    kernel = contract("BENCH_kernel.json")
    if kernel is not None:
        scenarios = kernel.get("scenarios") or {}
        if not scenarios:
            bad("BENCH_kernel.json", "scenarios", scenarios, "non-empty scenario dict")
        for name, record in scenarios.items():
            if "events" not in record or "stats" not in record:
                bad("BENCH_kernel.json", f"scenarios.{name}", sorted(record),
                    "record with events + stats")
            collections = record.get("gc_collections")
            if not (
                isinstance(collections, list)
                and len(collections) == 3
                and all(type(n) is int and n >= 0 for n in collections)
            ):
                bad("BENCH_kernel.json", f"scenarios.{name}.gc_collections",
                    collections, "collector runs [gen0, gen1, gen2] of the best repeat")
        if not isinstance(kernel.get("cpu_count"), int):
            bad("BENCH_kernel.json", "cpu_count", kernel.get("cpu_count"),
                "the core count the walls were measured on")
        # The before-numbers: a named commit, measured at today's event
        # counts (a wall-clock pair means nothing otherwise).
        baseline = kernel.get("baseline") or {}
        if not baseline.get("commit") or not baseline.get("scenarios"):
            bad("BENCH_kernel.json", "baseline", sorted(baseline),
                "commit + scenarios of the parent's run")
        for name, before in (baseline.get("scenarios") or {}).items():
            after = scenarios.get(name, {}).get("events")
            if after is not None and before.get("events") != after:
                bad("BENCH_kernel.json", f"baseline.scenarios.{name}.events",
                    before.get("events"), f"{after}, as scenarios.{name}.events")

    for fname in ("BENCH_suite.json", "BENCH_workload.json"):
        report = contract(fname)
        if report is None:
            continue
        scenarios = _suite_scenarios(report)
        if not scenarios:
            bad(fname, "scenarios", [], "non-empty scenario list")
        for record in scenarios:
            if not record.get("ok", False):
                bad(fname, f"scenarios[{record.get('name')}].ok",
                    record.get("ok"), "ok: true")
        if fname == "BENCH_suite.json" and not report.get(
            "results_identical_across_jobs", True
        ):
            bad(fname, "results_identical_across_jobs", False, "true")

    scale = contract("BENCH_scale.json")
    if scale is not None and not (scale.get("scenarios") or {}):
        bad("BENCH_scale.json", "scenarios", {}, "non-empty scenario dict")

    capacity = contract("BENCH_capacity.json")
    if capacity is not None:
        points = capacity.get("points") or []
        if len(points) < min_capacity_points:
            bad("BENCH_capacity.json", "points", len(points),
                f">= {min_capacity_points} capacity points")
        for point in points:
            label = f"{point.get('system')}/{point.get('mix')}"
            if not point.get("confirmed", False):
                bad("BENCH_capacity.json", f"points[{label}].confirmed",
                    point.get("confirmed"), "discrete-confirmed boundary")
            if not point.get("converged", False):
                bad("BENCH_capacity.json", f"points[{label}].converged",
                    point.get("converged"), "converged bracket")

    geo = contract("BENCH_geo.json")
    if geo is not None:
        points = geo.get("points") or []
        if len(points) < 6:
            bad("BENCH_geo.json", "points", len(points),
                ">= 6 geo points (2 modes x 3 RTT tiers)")
        for point in points:
            label = f"{point.get('mode')}/{point.get('tier')}"
            for key in ("rpo_bytes", "rpo_events", "rto_s", "availability"):
                if key not in point:
                    bad("BENCH_geo.json", f"points[{label}].{key}",
                        sorted(point), f"point with a {key} field")
            if point.get("violations", 0):
                bad("BENCH_geo.json", f"points[{label}].violations",
                    point.get("violations"), "zero oracle violations")
            if point.get("rto_s") is None:
                bad("BENCH_geo.json", f"points[{label}].rto_s",
                    None, "a measured failover RTO")
            if point.get("mode") == "global_strong" and (
                point.get("rpo_bytes") or point.get("rpo_events")
            ):
                bad("BENCH_geo.json", f"points[{label}].rpo_bytes",
                    point.get("rpo_bytes"), "RPO 0 in global-strong mode")
            if point.get("mode") == "async":
                lag = point.get("max_lag_at_admission", 0)
                bound = point.get(
                    "staleness_bound_bytes",
                    geo.get("staleness_bound_bytes", 0),
                )
                if lag > bound:
                    bad("BENCH_geo.json",
                        f"points[{label}].max_lag_at_admission", lag,
                        f"admission lag within the {bound}B staleness bound")

    read = contract("BENCH_read.json")
    if read is not None:
        points = (read.get("fanout") or {}).get("points") or []
        if not any(p.get("readers", 0) >= 1000 for p in points):
            bad("BENCH_read.json", "fanout.points",
                [p.get("readers") for p in points],
                "a fan-out point with >= 1000 concurrent readers")
        for point in points:
            label = f"fanout.points[{point.get('readers')}]"
            if not point.get("caught_up", False):
                bad("BENCH_read.json", f"{label}.caught_up",
                    point.get("caught_up"), "all readers caught up")
            for key in ("kernel_events", "sim_time_s"):
                if key not in point:
                    bad("BENCH_read.json", f"{label}.{key}",
                        sorted(point), f"point with a {key} field")
        replay = read.get("replay") or {}
        off, on = replay.get("off"), replay.get("on")
        if off is None or on is None:
            bad("BENCH_read.json", "replay", sorted(replay),
                "off + on coalescing records")
        else:
            if on.get("lts_fetch_ops", 0) > off.get("lts_fetch_ops", 0):
                bad("BENCH_read.json", "replay.on.lts_fetch_ops",
                    on.get("lts_fetch_ops"),
                    f"<= uncoalesced ops ({off.get('lts_fetch_ops')!r})")
            if on.get("delivered_bytes") != off.get("delivered_bytes"):
                bad("BENCH_read.json", "replay.on.delivered_bytes",
                    on.get("delivered_bytes"),
                    f"byte parity with off ({off.get('delivered_bytes')!r})")
            for mode, record in (("off", off), ("on", on)):
                for key in ("kernel_events", "sim_time_s"):
                    if key not in record:
                        bad("BENCH_read.json", f"replay.{mode}.{key}",
                            sorted(record), f"record with a {key} field")
        for name, policy in (read.get("policies") or {}).items():
            for key in ("hit_rate", "hot_hit_rate"):
                rate = policy.get(key)
                if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
                    bad("BENCH_read.json", f"policies[{name}].{key}",
                        rate, "a hit rate in [0, 1]")
        if "seed" not in read:
            bad("BENCH_read.json", "seed", sorted(read), "a recorded seed")

    # Cross-file agreement: a scenario recorded in two files must agree
    # on its deterministic fields (wall fields are per-run).
    suite = files.get("BENCH_suite.json")
    workload = files.get("BENCH_workload.json")
    if suite is not None and workload is not None:
        by_name = {r["name"]: r for r in _suite_scenarios(suite)}
        for record in _suite_scenarios(workload):
            twin = by_name.get(record["name"])
            if twin is None:
                continue
            for key in _SUITE_DET_FIELDS:
                if twin.get(key) != record.get(key):
                    bad("BENCH_workload.json",
                        f"scenarios[{record['name']}].{key}",
                        record.get(key),
                        f"agreement with BENCH_suite.json ({twin.get(key)!r})")

    # A committed file no contract asked for is guarded by nothing.
    for fname in sorted(set(files) - contracted):
        bad(fname, "", "no contract", "a structure contract in repro.bench.gate")
    return drifts


# ----------------------------------------------------------------------
# Smoke re-runs
# ----------------------------------------------------------------------
def _parse_smoke(spec: str) -> List[Tuple[str, List[str]]]:
    """``kernel:a+b,suite:c`` -> [("kernel", [a, b]), ("suite", [c])]."""
    checks: List[Tuple[str, List[str]]] = []
    for token in (t.strip() for t in spec.split(",")):
        if not token or token == "none":
            continue
        family, _, rest = token.partition(":")
        names = [n for n in rest.split("+") if n]
        checks.append((family, names))
    return checks


def _smoke_kernel(
    names: List[str], files: Dict[str, dict], overrides
) -> Tuple[List[Drift], Dict[str, object]]:
    import importlib

    from repro.bench.suite import _bench_dir

    committed = files.get("BENCH_kernel.json", {}).get("scenarios", {})
    bench_dir = str(_bench_dir())
    import sys

    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    kernel = importlib.import_module("bench_kernel")
    rows = {row[0]: row for row in kernel.SCENARIOS}
    drifts: List[Drift] = []
    ran: List[str] = []
    for name in names or ["timeout_churn"]:
        if name not in rows:
            drifts.append(Drift(
                "BENCH_kernel.json", f"scenarios.{name}", "structure",
                f"one of {sorted(rows)}", name, 0.0, 1.0,
                f"unknown kernel scenario {name!r}",
            ))
            continue
        if name not in committed:
            drifts.append(Drift(
                "BENCH_kernel.json", f"scenarios.{name}", "missing",
                "committed baseline", None, 0.0, 1.0,
                f"no committed baseline for kernel scenario {name!r}",
            ))
            continue
        _, full, _smoke_fn, _budget = rows[name]
        fresh = kernel.run_scenario(name, full, repeats=1)
        drifts.extend(compare(
            "BENCH_kernel.json", f"scenarios.{name}", committed[name], fresh,
            overrides,
        ))
        ran.append(name)
    return drifts, {"check": "kernel", "scenarios": ran}


def _smoke_suite_family(
    family: str, names: List[str], files: Dict[str, dict], overrides
) -> Tuple[List[Drift], Dict[str, object]]:
    from repro.bench.suite import SCENARIOS, run_scenario

    fname = "BENCH_suite.json" if family == "suite" else "BENCH_workload.json"
    committed = {r["name"]: r for r in _suite_scenarios(files.get(fname, {}))}
    drifts: List[Drift] = []
    ran: List[str] = []
    for name in names or ["table1"]:
        if name not in SCENARIOS:
            drifts.append(Drift(
                fname, f"scenarios[{name}]", "structure",
                "a registered suite scenario", name, 0.0, 1.0,
                f"unknown suite scenario {name!r}",
            ))
            continue
        if name not in committed:
            drifts.append(Drift(
                fname, f"scenarios[{name}]", "missing",
                "committed baseline", None, 0.0, 1.0,
                f"no committed baseline for scenario {name!r} in {fname}",
            ))
            continue
        fresh = run_scenario(name)
        drifts.extend(compare(
            fname, f"scenarios[{name}]", committed[name], fresh, overrides
        ))
        ran.append(name)
    return drifts, {"check": family, "scenarios": ran}


def _smoke_capacity(
    names: List[str], files: Dict[str, dict], overrides
) -> Tuple[List[Drift], Dict[str, object]]:
    from repro.capacity import MIXES, CapacityPlanner, PlannerConfig

    fname = "BENCH_capacity.json"
    report = files.get(fname, {})
    committed = {
        f"{p.get('system')}/{p.get('mix')}": p for p in report.get("points", [])
    }
    seed = int(report.get("seed", 0))
    drifts: List[Drift] = []
    ran: List[str] = []
    for name in names or ["pravega/uniform"]:
        system, _, mix = name.partition("/")
        if name not in committed:
            drifts.append(Drift(
                fname, f"points[{name}]", "missing",
                "committed capacity point", None, 0.0, 1.0,
                f"no committed capacity point {name!r}",
            ))
            continue
        if mix not in MIXES:
            drifts.append(Drift(
                fname, f"points[{name}]", "structure",
                f"mix in {sorted(MIXES)}", mix, 0.0, 1.0,
                f"unknown tenant mix {mix!r}",
            ))
            continue
        planner = CapacityPlanner(system, MIXES[mix], PlannerConfig(seed=seed))
        fresh = planner.plan().record(include_wall=False)
        baseline = {k: v for k, v in committed[name].items() if k != "wall_s"}
        drifts.extend(compare(fname, f"points[{name}]", baseline, fresh, overrides))
        ran.append(name)
    return drifts, {"check": "capacity", "points": ran}


_SMOKE_FAMILIES = {
    "kernel": _smoke_kernel,
    "suite": lambda names, files, ov: _smoke_suite_family("suite", names, files, ov),
    "workload": lambda names, files, ov: _smoke_suite_family("workload", names, files, ov),
    "capacity": _smoke_capacity,
}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_gate(
    root: "str | Path" = ".",
    smoke: str = DEFAULT_SMOKE,
    overrides: Sequence[Tuple[str, float]] = (),
    min_capacity_points: int = 6,
) -> GateReport:
    start = time.perf_counter()
    files = load_bench_files(root)
    drifts = structure_checks(files, min_capacity_points=min_capacity_points)
    smoke_log: List[Dict[str, object]] = []
    for family, names in _parse_smoke(smoke):
        runner = _SMOKE_FAMILIES.get(family)
        if runner is None:
            drifts.append(Drift(
                "(gate)", f"smoke.{family}", "structure",
                f"one of {sorted(_SMOKE_FAMILIES)}", family, 0.0, 1.0,
                f"unknown smoke family {family!r}",
            ))
            continue
        t0 = time.perf_counter()
        family_drifts, log = runner(names, files, overrides)
        log["wall_s"] = round(time.perf_counter() - t0, 3)
        log["drifts"] = len(family_drifts)
        drifts.extend(family_drifts)
        smoke_log.append(log)
    return GateReport(
        ok=not drifts,
        drifts=drifts,
        files=sorted(files),
        smoke=smoke_log,
        wall_s=time.perf_counter() - start,
    )


def record_verdict(root: "str | Path", report: GateReport) -> Optional[str]:
    """Stamp the gate verdict into BENCH_capacity.json metadata."""
    path = os.path.join(str(root), "BENCH_capacity.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        capacity = json.load(fh)
    capacity["gate"] = {
        "ok": report.ok,
        "files": report.files,
        "smoke": report.smoke,
        "drift_count": len(report.drifts),
    }
    with open(path, "w") as fh:
        json.dump(capacity, fh, indent=2)
        fh.write("\n")
    return path


def _parse_tolerances(specs: List[str]) -> List[Tuple[str, float]]:
    overrides: List[Tuple[str, float]] = []
    for spec in specs:
        pattern, sep, value = spec.partition("=")
        if not sep:
            raise SystemExit(f"--tol wants PATTERN=VALUE, got {spec!r}")
        overrides.append((pattern, float(value)))
    return overrides


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench gate",
        description="Compare fresh benchmark runs against the committed "
        "BENCH_*.json trajectory; fail with a structured diff on drift.",
    )
    parser.add_argument(
        "--root", default=".", help="repo root holding the BENCH_*.json files"
    )
    parser.add_argument(
        "--smoke", default=DEFAULT_SMOKE,
        help="comma-separated re-run subset, family[:name+name...] with "
        f"families {sorted(_SMOKE_FAMILIES)}; 'none' disables re-runs "
        f"(default: {DEFAULT_SMOKE})",
    )
    parser.add_argument(
        "--tol", action="append", default=[], metavar="PATTERN=VALUE",
        help="per-metric tolerance override (fnmatch over the dotted "
        "path; relative tolerance, or a ratio factor for wall fields); "
        "repeatable, first match wins",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="write the verdict into BENCH_capacity.json metadata",
    )
    parser.add_argument("--json", default=None, help="write the full report here")
    args = parser.parse_args(argv)

    report = run_gate(
        args.root, smoke=args.smoke, overrides=_parse_tolerances(args.tol)
    )
    for entry in report.smoke:
        names = entry.get("scenarios") or entry.get("points") or []
        print(
            f"  [gate] {entry['check']}: {', '.join(names) or '(none)'} "
            f"({entry['wall_s']}s, {entry['drifts']} drifts)"
        )
    if report.drifts:
        print(f"gate: FAIL — {len(report.drifts)} drifts across {len(report.files)} files")
        for drift in report.drifts:
            print(f"  {drift.file} :: {drift.path}")
            print(f"    [{drift.kind}] {drift.message}")
            if drift.kind != "structure":
                print(f"    committed={drift.committed!r} fresh={drift.fresh!r} "
                      f"tol={drift.tolerance} drift={drift.drift:.4g}")
    else:
        print(
            f"gate: ok — {len(report.files)} committed files, "
            f"{len(report.smoke)} smoke checks, {report.wall_s:.1f}s"
        )
    if args.record:
        where = record_verdict(args.root, report)
        if where:
            print(f"gate verdict recorded in {where}")
    if args.json:
        Path(args.json).write_text(json.dumps(report.as_dict(), indent=2) + "\n")
    return 0 if report.ok else 1
