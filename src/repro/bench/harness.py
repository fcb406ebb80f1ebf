"""One driver for the report benchmarks: ``python -m repro.bench run``.

A report bench is a module under ``benchmarks/`` that exposes

* ``SCENARIOS`` — rows ``(name, full, smoke, budget_s)``; ``full`` and
  ``smoke`` take the repeat count and return the scenario's metrics
  (``smoke`` is None for a row ``--check`` skips), ``budget_s`` is the
  wall budget of the smoke variant under ``--check``;
* ``REPEATS`` — how many timed repeats a full run takes by default;
* ``describe(metrics)`` — one progress line for a finished scenario.

The driver owns everything else: scenario selection, the best-of-N
helper, the ``--check`` wall budgets, the record and the JSON writer.
A record is ``{name, metrics, claims}``: its verdicts are the rows of
:mod:`repro.bench.claims` evaluated over the metrics, and
``claims.check`` — what the regression gate (:mod:`repro.bench.gate`)
applies to the committed file — holds a fresh report to the same rows.

Usage (the one parser is :mod:`repro.bench.__main__`)::

    python -m repro.bench run kernel                  # writes BENCH_kernel.json
    python -m repro.bench run read --check            # smoke: claims + budgets
    python -m repro.bench run capacity --scenario pravega/mixed --json out.json
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Callable, List, Optional, Tuple, TypeVar

from repro.bench import claims

__all__ = [
    "RUNNABLE", "OWNERS", "load", "scenario_names", "best_of", "record", "rerun",
    "manifest", "write_json", "main",
]

ROOT = Path(__file__).resolve().parents[3]

#: the report benches ``run`` drives: name -> module under benchmarks/
RUNNABLE = {
    name: f"bench_{name}" for name in ("kernel", "capacity", "read")
}
#: the suite's committed files -> the prefix selecting their scenarios
SUITE_FILES = {"suite": "", "workload": "workload_"}
#: every committed ``BENCH_<name>.json`` -> the module defining its scenarios
OWNERS = {**RUNNABLE, **dict.fromkeys(SUITE_FILES, "repro.bench.suite")}

T = TypeVar("T")


def load(module: str) -> ModuleType:
    """Import ``module`` with this checkout's ``benchmarks/`` importable."""
    bench_dir = str(ROOT / "benchmarks")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    return importlib.import_module(module)


def _stem(fname: str) -> str:
    return fname.removeprefix("BENCH_").removesuffix(".json")


def scenario_names(fname: str) -> List[str]:
    """The scenarios the owner of a committed ``BENCH_<name>.json``
    defines for it, in recording order."""
    stem = _stem(fname)
    if stem in RUNNABLE:
        return [row[0] for row in load(RUNNABLE[stem]).SCENARIOS]
    from repro.bench.suite import SCENARIOS

    return [
        name for name, scenario in SCENARIOS.items()
        if not scenario.smoke and name.startswith(SUITE_FILES[stem])
    ]


def best_of(fn: Callable[[], T], repeats: int) -> Tuple[T, List[float]]:
    """Run ``fn`` ``repeats`` times: the fastest run's result (least
    noise) and every run's wall seconds, in run order."""
    walls: List[float] = []
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        walls.append(time.perf_counter() - start)
        if walls[-1] == min(walls):
            best = result
    return best, walls


def record(name: str, metrics: dict, full: bool = True) -> dict:
    """A scenario's record, report bench or suite: its metrics as the
    file will say them (tuples are lists, keys are strings; a value JSON
    cannot carry raises here, not in the writer) and their verdicts."""
    metrics = json.loads(json.dumps(metrics))
    return {"name": name, "metrics": metrics, "claims": claims.evaluate(name, metrics, full)}


def rerun(fname: str, name: str) -> Optional[dict]:
    """One fresh full-size record of a committed file's scenario (what
    the gate compares against the committed one); None for a name the
    file's owner does not define."""
    if name not in scenario_names(fname):
        return None
    stem = _stem(fname)
    if stem not in RUNNABLE:
        from repro.bench.suite import run_scenario

        return run_scenario(name)
    full = next(row[1] for row in load(RUNNABLE[stem]).SCENARIOS if row[0] == name)
    return record(name, full(1))


def manifest() -> dict:
    """The run manifest every report file carries: the commit the
    checkout was at, the interpreter and the core count the walls were
    measured on.  ``-dirty`` marks uncommitted changes: a file
    regenerated for a change is written before that change is committed,
    so it records the change's parent, dirty — its code is the parent
    plus the diff the file lands in."""
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12", "--exclude=*"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout: the check refuses a written file
    return {"git_sha": sha, "python": platform.python_version(), "cpu_count": os.cpu_count()}


def write_json(path: "str | Path", report: dict) -> None:
    """The one writer of report files (every ``BENCH_*.json``, the gate's
    report): the run manifest unless the report brings its own, and a
    stable key order, so a regenerated file diffs by value."""
    report = {"manifest": report.get("manifest") or manifest(), **report}
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main(args) -> int:
    """``run <name>``: the bench's scenarios, their records and claims."""
    bench = load(RUNNABLE[args.name])
    if args.repeats is not None and args.repeats < 1:
        args.error("--repeats must be >= 1")
    wanted = [n for token in args.scenario for n in token.split(",") if n]
    unknown = sorted(set(wanted) - {row[0] for row in bench.SCENARIOS})
    if unknown:
        args.error(f"unknown scenario(s) {unknown} for bench {args.name!r}")
    rows = [row for row in bench.SCENARIOS if not wanted or row[0] in wanted]
    if args.check:
        smokeless = [row[0] for row in rows if row[2] is None]
        if wanted and smokeless:
            args.error(f"scenario(s) {smokeless} of bench {args.name!r} have no --check variant")
        rows = [row for row in rows if row[2] is not None]
    repeats = 1 if args.check else (args.repeats or bench.REPEATS)

    print(f"{args.name} bench ({'smoke' if args.check else 'full'}, repeats={repeats})")
    scenarios: List[dict] = []
    problems: List[str] = []
    started = time.perf_counter()
    for name, full, smoke, budget in rows:
        start = time.perf_counter()
        metrics = (smoke if args.check else full)(repeats)
        wall = time.perf_counter() - start
        scenarios.append(record(name, metrics, full=not args.check))
        print(f"  {name:<26} {bench.describe(scenarios[-1]['metrics'])}")
        if args.check and wall > budget:
            problems.append(f"{name}: {wall:.1f}s > budget {budget:.0f}s")
    report = {
        "manifest": manifest(),
        "repeats": repeats,
        "wall_s_total": round(time.perf_counter() - started, 3),
        "scenarios": scenarios,
    }
    problems.extend(claims.check(report, [row[0] for row in rows], full=not args.check))
    if not args.check:
        write_json(args.json or ROOT / f"BENCH_{args.name}.json", report)
    for problem in problems:
        print(f"CLAIM FAILED: {problem}")
    print(f"{args.name}: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0
