"""One driver for the report benchmarks: ``python -m repro.bench run``.

A report bench is a module under ``benchmarks/`` that exposes

* ``SCENARIOS`` — rows ``(name, full, smoke, budget_s)``; ``full`` and
  ``smoke`` take the repeat count and return the scenario's record
  (``smoke`` is None for a row ``--check`` skips), ``budget_s`` is the
  wall budget of the smoke variant under ``--check``;
* ``REPEATS`` — how many timed repeats a full run takes by default;
* ``describe(record)`` — one progress line for a finished scenario;
* ``build_report(results, repeats, wall_s)`` — the layout committed as
  ``BENCH_<name>.json`` around the ``{scenario: record}`` results;
* ``check_claims(report) -> list[str]`` — every claim the bench holds
  its report to, one message per violation.  A smoke report carries
  ``mode: "smoke"``; claims about the full sweep's size skip it.

The driver owns everything else: argument parsing, scenario selection,
the best-of-N helper, the ``--check`` wall budget and the JSON writer.
The regression gate (:mod:`repro.bench.gate`) calls the same
``check_claims`` on the committed file, so a claim is stated once, next
to the code that produces the number it is about.

Usage::

    python -m repro.bench run kernel                  # writes BENCH_kernel.json
    python -m repro.bench run read --check            # smoke: claims + budgets
    python -m repro.bench run capacity --scenario pravega/mixed --json out.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

__all__ = ["RUNNABLE", "OWNERS", "load", "owner", "best_of", "rerun", "write_json", "main"]

ROOT = Path(__file__).resolve().parents[3]

#: the report benches ``run`` drives: name -> module under benchmarks/
RUNNABLE = {
    name: f"bench_{name}" for name in ("kernel", "scale", "capacity", "geo", "read")
}
#: every committed ``BENCH_<name>.json`` -> the module owning its claims
OWNERS = {**RUNNABLE, "suite": "repro.bench.suite", "workload": "repro.bench.suite"}

T = TypeVar("T")


def load(module: str) -> ModuleType:
    """Import ``module`` with this checkout's ``benchmarks/`` importable."""
    bench_dir = str(ROOT / "benchmarks")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    return importlib.import_module(module)


def owner(fname: str) -> ModuleType:
    """The module owning the claims of a committed ``BENCH_<name>.json``."""
    return load(OWNERS[fname.removeprefix("BENCH_").removesuffix(".json")])


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


def rerun(scenarios, name: str) -> Optional[dict]:
    """One fresh full-size run of a scenario row (what the gate compares
    against the committed record); None for a name the table lacks."""
    for row_name, full, _smoke, _budget in scenarios:
        if row_name == name:
            return full(1)
    return None


def write_json(path: "str | Path", report: dict) -> None:
    """The one writer of report files (every ``BENCH_*.json``, the gate's
    report): stable key order, so a regenerated file diffs by value."""
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench run",
        description="Run one report benchmark and check its claims.",
    )
    parser.add_argument("name", choices=sorted(RUNNABLE))
    parser.add_argument(
        "--check", action="store_true",
        help="smoke: trimmed scenarios once each, claims and wall budgets, no JSON",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timed repeats per measurement, best kept (default: the bench's own)",
    )
    parser.add_argument(
        "--scenario", action="append", default=[],
        help="run only these scenarios (repeatable, comma-separated)",
    )
    parser.add_argument("--json", default=None, help="report path (full runs)")
    args = parser.parse_args(argv)

    bench = load(RUNNABLE[args.name])
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    wanted = [n for token in args.scenario for n in token.split(",") if n]
    unknown = sorted(set(wanted) - {row[0] for row in bench.SCENARIOS})
    if unknown:
        parser.error(f"unknown scenario(s) {unknown} for bench {args.name!r}")
    repeats = 1 if args.check else (args.repeats or bench.REPEATS)

    print(f"{args.name} bench ({'smoke' if args.check else 'full'}, repeats={repeats})")
    results: Dict[str, dict] = {}
    failures: List[str] = []
    started = time.perf_counter()
    for name, full, smoke, budget in bench.SCENARIOS:
        if (wanted and name not in wanted) or (args.check and smoke is None):
            continue
        start = time.perf_counter()
        results[name] = (smoke if args.check else full)(repeats)
        wall = time.perf_counter() - start
        print(f"  {name:<26} {bench.describe(results[name])}")
        if args.check and wall > budget:
            failures.append(f"{name}: {wall:.1f}s > budget {budget:.0f}s")
    report = bench.build_report(results, repeats, time.perf_counter() - started)
    if args.check:
        report["mode"] = "smoke"
    failures.extend(bench.check_claims(report))
    if not args.check:
        write_json(args.json or ROOT / f"BENCH_{args.name}.json", report)
    for failure in failures:
        print(f"CLAIM FAILED: {failure}")
    print(f"{args.name}: {'FAIL' if failures else 'ok'}")
    return 1 if failures else 0
