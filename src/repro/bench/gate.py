"""Benchmark regression gate: committed BENCH_*.json vs fresh runs.

The repo commits its performance trajectory as ``BENCH_*.json`` files
(kernel microbenchmarks, the figure suite and the read-path report).  Nothing guarded them: a
regression could land silently and only be noticed when a full suite
re-run happened to be eyeballed.  The
gate closes that hole in three layers, cheapest first:

1. **structure** — every committed file parses, is written by a bench
   (an unowned ``BENCH_*.json`` is itself a drift) and passes
   ``claims.check`` — the same function ``python -m repro.bench run
   <name>`` applies to a fresh run, so a claim is stated once, as a row
   of ``repro.bench.claims.CLAIMS``: the file carries its run manifest,
   records every scenario its bench defines, every row holds over its
   committed record and the recorded verdicts are the re-evaluated ones;
2. **smoke re-runs** — a configurable subset of scenarios is re-run
   fresh — by the function a ``run`` worker runs it with — and compared
   field by field against the committed records: the deterministic
   fields (``harness.field_kind`` "exact": kernel events, simulated time,
   figure metrics, max-throughput probe logs) must match exactly, wall-clock fields
   only within a generous ratio (different machines are expected to
   differ);
3. **structured diff** — every violation is a :class:`Drift` with the
   file, dotted path, committed and fresh values, the tolerance that
   applied and the measured drift, so a gate failure states precisely
   what rotted, by how much, and against which bound.

Per-metric tolerances are fnmatch patterns over the dotted path
(``--tol 'metrics.*_ms=0.02'``); the first matching pattern wins, so
overrides simply prepend.  The gate only reads the committed files.
Wired into ``make gate`` / ``make check`` and tier-1 via the ``gate`` pytest marker (tests/test_bench_gate.py).

Usage::

    python -m repro.bench gate                       # default smoke set
    python -m repro.bench gate --smoke none          # structure only
    python -m repro.bench gate --smoke suite:fig05c+table1,kernel:ping_pong
    python -m repro.bench gate --tol 'wall_s=20' --json gate_report.json
"""

from __future__ import annotations

import fnmatch
import glob
import json
import math
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.bench import claims, harness

__all__ = [
    "Drift",
    "GateReport",
    "DEFAULT_SMOKE",
    "WALL_RATIO",
    "compare",
    "structure_checks",
    "load_bench_files",
    "run_gate",
    "tolerance",
    "main",
]

#: fresh wall time may be up to this factor off the committed one in
#: either direction before it counts as drift
WALL_RATIO = 10.0
#: wall values under this (seconds) are noise; ratio checks skip them
WALL_FLOOR = 0.05

DEFAULT_SMOKE = (
    "kernel:timeout_churn+ping_pong_sliced+cancel_storm,"
    "suite:table1+fig05c+workload_slo"
)


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
        drift = round(self.drift, 6) if isinstance(self.drift, float) else self.drift
        return {**asdict(self), "drift": drift}


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
def resolve_tolerance(
    path: str, overrides: Sequence[Tuple[str, float]] = ()
) -> Tuple[str, float]:
    """(kind, tolerance) for a dotted path; first matching override wins.

    Override values are relative tolerances for metric fields and ratio
    factors for wall fields (a field is a wall field by pattern, or
    when its override value is > 1).
    """
    wall = harness.field_kind(path) == "wall"
    for pattern, tol in overrides:
        if fnmatch.fnmatch(path, pattern) or fnmatch.fnmatch(
            path.rsplit(".", 1)[-1], pattern
        ):
            return ("wall" if wall or tol > 1.0 else "metric"), tol
    return ("wall", WALL_RATIO) if wall else ("exact", 0.0)


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
    """Recursive structured diff of a committed record vs a fresh one:
    exact over :func:`repro.bench.harness.field_kind`'s "exact" fields, as
    a ratio over the wall-clock ones."""
    drifts: List[Drift] = []
    if harness.field_kind(path) == "uncompared":
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
        if math.isnan(c) or math.isnan(f):
            # every comparison with NaN is False: no tolerance can pass it
            if not (math.isnan(c) and math.isnan(f)):
                drifts.append(Drift(
                    file, path, kind, committed, fresh, tol, math.inf,
                    f"NaN against a number ({committed} -> {fresh})",
                ))
            return drifts
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
# Committed files: each against the claims about it
# ----------------------------------------------------------------------
def load_bench_files(root: "str | Path") -> Dict[str, dict]:
    files: Dict[str, dict] = {}
    for path in sorted(glob.glob(os.path.join(str(root), "BENCH_*.json"))):
        with open(path) as fh:
            files[os.path.basename(path)] = json.load(fh)
    return files


def _structure(file: str, path: str, message: str) -> Drift:
    return Drift(file, path, "structure", None, None, 0.0, 1.0, message)


def structure_checks(files: Dict[str, dict]) -> List[Drift]:
    """Every committed file against ``claims.check``."""
    owned = {f"BENCH_{name}.json": name for name in harness.BENCHES}
    # A committed file no bench writes is guarded by nothing.
    drifts = [
        _structure(fname, "", "no bench in repro.bench.harness.BENCHES writes this file")
        for fname in sorted(set(files) - set(owned))
    ]
    for fname in sorted(set(files) & set(owned)):
        drifts.extend(
            _structure(fname, "claims", message)
            for message in claims.check(files[fname], harness.scenario_names(owned[fname]))
        )
    return drifts


# ----------------------------------------------------------------------
# Smoke re-runs
# ----------------------------------------------------------------------
#: smoke family (= the bench writing BENCH_<family>.json) -> the scenario
#: re-run when the spec names none
SMOKE_FAMILIES = {
    "kernel": "timeout_churn",
    "suite": "table1",
}


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


def _smoke(
    family: str, names: List[str], files: Dict[str, dict], overrides
) -> Tuple[List[Drift], Dict[str, object]]:
    """Re-run ``names`` of the family's file and diff each fresh record
    against the committed one."""
    fname = f"BENCH_{family}.json"
    committed = claims.records(files.get(fname, {}))
    drifts: List[Drift] = []
    ran: List[str] = []
    for name in names or [SMOKE_FAMILIES[family]]:
        if name not in committed:
            drifts.append(Drift(
                fname, name, "missing", "committed baseline", None, 0.0, 1.0,
                f"no committed baseline for {family} scenario {name!r}",
            ))
            continue
        if name not in harness.scenario_names(family):
            drifts.append(_structure(
                fname, name, f"unknown {family} scenario {name!r}"
            ))
            continue
        fresh, _, _ = harness.run_row(family, name, check=False, repeats=1)
        drifts.extend(compare(fname, name, committed[name], fresh, overrides))
        ran.append(name)
    return drifts, {"check": family, "scenarios": ran}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_gate(
    root: "str | Path" = ".",
    smoke: str = DEFAULT_SMOKE,
    overrides: Sequence[Tuple[str, float]] = (),
) -> GateReport:
    start = time.perf_counter()
    files = load_bench_files(root)
    drifts = structure_checks(files)
    smoke_log: List[Dict[str, object]] = []
    for family, names in _parse_smoke(smoke):
        if family not in SMOKE_FAMILIES:
            drifts.append(_structure(
                "(gate)", f"smoke.{family}",
                f"unknown smoke family {family!r} (one of {sorted(SMOKE_FAMILIES)})",
            ))
            continue
        t0 = time.perf_counter()
        family_drifts, log = _smoke(family, names, files, overrides)
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


def tolerance(spec: str) -> Tuple[str, float]:
    """A ``--tol PATTERN=VALUE`` override (ValueError without a number)."""
    pattern, _, value = spec.partition("=")
    return pattern, float(value)


def main(args) -> int:
    """``gate``: the committed files' structure, then the smoke re-runs."""
    report = run_gate(args.root, smoke=args.smoke, overrides=args.tol)
    for entry in report.smoke:
        print(
            f"  [gate] {entry['check']}: {', '.join(entry['scenarios']) or '(none)'} "
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
    if args.json:
        harness.write_json(args.json, report.as_dict())
    return 0 if report.ok else 1
