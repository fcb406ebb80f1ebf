"""One driver for every bench: ``python -m repro.bench run``.

A bench is a module ``benchmarks/bench_<name>.py`` that exposes

* ``SCENARIOS`` — rows ``(name, full, smoke, budget_s)``; ``full`` and
  ``smoke`` take the repeat count and return the scenario's record
  (:func:`row` builds them from thunks that return plain metrics).  A
  full run records the rows that have a ``full`` thunk, ``--check`` runs
  the rows that have a ``smoke`` one, each under its wall budget
  ``budget_s``;
* ``REPEATS`` — how many timed repeats a full run takes by default;
* ``describe(record)`` — one progress line for a finished scenario.

The driver owns everything else: scenario selection, the optional
worker pool, the best-of-N helper, the ``--check`` wall budgets, the
report and the JSON writer.  A plain record is ``{name, metrics,
claims}``: its verdicts are the rows of :mod:`repro.bench.claims`
evaluated over the metrics, and ``claims.check`` — what the regression
gate (:mod:`repro.bench.gate`) applies to the committed file — holds a
fresh report to the same rows.  :func:`deterministic` is what must not
change between two runs of a record: what the gate compares exactly and
what ``--jobs`` may not move.

Usage (the one parser is :mod:`repro.bench.__main__`)::

    python -m repro.bench run kernel                  # writes BENCH_kernel.json
    python -m repro.bench run read --check --jobs 2   # smoke: claims + budgets
    python -m repro.bench run suite --scenario fig05 --jobs 1
    python -m repro.bench run suite --scenario fig05c --json out.json
"""

from __future__ import annotations

import contextlib
import fnmatch
import importlib
import io
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterator, List, Sequence, Tuple, TypeVar

from repro.bench import claims

__all__ = [
    "BENCHES", "WALL_PATTERNS", "UNCOMPARED_PATTERNS", "field_kind", "deterministic",
    "load", "scenario_names", "select", "best_of", "record", "row", "run_row",
    "manifest", "write_json", "main",
]

ROOT = Path(__file__).resolve().parents[3]

#: every bench: ``run <name>`` drives ``benchmarks/bench_<name>.py`` and
#: a full run writes ``BENCH_<name>.json``
BENCHES = ("kernel", "read", "suite")

#: fields that measure the machine, not the simulation: compared as a
#: ratio with a generous allowance instead of exactly
WALL_PATTERNS = (
    "*wall_s*",
    "*wall_seconds*",
    "*events_per_second*",
    "*ns_per_event*",
    "*speedup*",
)
#: fields never compared: how often the cyclic collector ran describes the
#: interpreter process the run happened in (its shape is a kernel claim
#: row), and a record's claim verdicts are a function of its other
#: fields, compared themselves (some rows read wall-clock fields)
UNCOMPARED_PATTERNS = ("*gc_collections*", "claims", "*.claims")

T = TypeVar("T")


def field_kind(path: str) -> str:
    """``"uncompared"``, ``"wall"`` or ``"exact"`` for a dotted path."""
    if any(fnmatch.fnmatch(path, pattern) for pattern in UNCOMPARED_PATTERNS):
        return "uncompared"
    if any(fnmatch.fnmatch(path, pattern) for pattern in WALL_PATTERNS):
        return "wall"
    return "exact"


def deterministic(node, path: str = ""):
    """The view of a record that is a pure function of its scenario:
    every field but the wall-clock and the uncompared ones."""
    if isinstance(node, dict):
        view = {}
        for key, value in node.items():
            sub = f"{path}.{key}" if path else str(key)
            if field_kind(sub) == "exact":
                view[key] = deterministic(value, sub)
        return view
    if isinstance(node, list):
        return [deterministic(value, f"{path}[{i}]") for i, value in enumerate(node)]
    return node


def load(name: str) -> ModuleType:
    """Bench ``name``'s module, with this checkout's ``benchmarks/`` importable."""
    bench_dir = str(ROOT / "benchmarks")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    return importlib.import_module(f"bench_{name}")


def scenario_names(name: str) -> List[str]:
    """The scenarios a full run of bench ``name`` records, in order."""
    return [r[0] for r in load(name).SCENARIOS if r[1] is not None]


def select(bench: ModuleType, tokens: Sequence[str]) -> List[str]:
    """The rows ``--scenario`` names, in registry order: each
    comma-separated token is an exact name or a prefix (``fig10`` selects
    ``fig10a,fig10b``); an unknown token or an empty selection is a
    ValueError, not a silent no-op.  No ``--scenario`` selects every row."""
    names = [r[0] for r in bench.SCENARIOS]
    if not tokens:
        return names
    wanted = [t.strip() for token in tokens for t in token.split(",") if t.strip()]
    if not wanted:
        raise ValueError("the selection is empty")
    chosen = set()
    for token in wanted:
        matches = [token] if token in names else [n for n in names if n.startswith(token)]
        if not matches:
            raise ValueError(f"unknown scenario {token!r} (known: {', '.join(names)})")
        chosen.update(matches)
    return [n for n in names if n in chosen]


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
    """A scenario's plain record: its metrics as the file will say them
    (tuples are lists, keys are strings; a value JSON cannot carry raises
    here, not in the writer) and their verdicts."""
    metrics = json.loads(json.dumps(metrics))
    return {"name": name, "metrics": metrics, "claims": claims.evaluate(name, metrics, full)}


def row(name: str, full, smoke, budget_s: float) -> tuple:
    """A ``SCENARIOS`` row over thunks that return plain metrics."""
    return (
        name,
        full and (lambda repeats: record(name, full(repeats))),
        smoke and (lambda repeats: record(name, smoke(repeats), full=False)),
        budget_s,
    )


def run_row(bench: str, name: str, check: bool, repeats: int) -> Tuple[dict, str, float]:
    """One row in this process: its record, what it printed and its wall
    seconds.  The pool's worker (a row holds lambdas, which do not
    pickle, so the worker loads it by name) and the gate's re-run."""
    thunk = next(r for r in load(bench).SCENARIOS if r[0] == name)[2 if check else 1]
    output = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(output):
        result = thunk(repeats)
    return result, output.getvalue(), time.perf_counter() - start


def _longest_first(bench: str, names: List[str]) -> List[str]:
    """Submission order: by the committed file's per-record ``wall_s``,
    longest first (a straggler started last would serialize the tail of
    a pooled run), otherwise in registry order."""
    path = ROOT / f"BENCH_{bench}.json"
    recorded = claims.records(json.loads(path.read_text())) if path.exists() else {}
    walls = {n: r.get("wall_s") for n, r in recorded.items()}
    return sorted(names, key=lambda n: -(walls.get(n) or 0))


def _finished(bench: str, names: List[str], check: bool, repeats: int, jobs: int) -> Iterator:
    """``(name, run_row(...))`` per row, in finishing order."""
    if jobs <= 1:
        for name in names:
            yield name, run_row(bench, name, check, repeats)
        return
    # spawned workers start from a fresh import: no state leaks from this
    # process into a row's run
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
        futures = {pool.submit(run_row, bench, name, check, repeats): name for name in names}
        for future in as_completed(futures):
            yield futures[future], future.result()


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
    bench = load(args.name)
    if args.repeats is not None and args.repeats < 1:
        args.error("--repeats must be >= 1")
    if args.jobs < 1:
        args.error("--jobs must be >= 1")
    try:
        names = select(bench, args.scenario)
    except ValueError as exc:
        args.error(f"{exc} for bench {args.name!r}")
    rows = {r[0]: r for r in bench.SCENARIOS}
    thunk = 2 if args.check else 1
    lacking = [n for n in names if rows[n][thunk] is None]
    if args.scenario and lacking:
        kind = "--check" if args.check else "full"
        args.error(f"scenario(s) {lacking} of bench {args.name!r} have no {kind} variant")
    names = [n for n in names if n not in lacking]
    if not names:
        args.error(f"the selection of bench {args.name!r} is empty")
    repeats = 1 if args.check else (args.repeats or bench.REPEATS)

    print(f"{args.name} bench ({'smoke' if args.check else 'full'}, "
          f"repeats={repeats}, jobs={args.jobs})")
    done, walls, problems = {}, {}, []
    started = time.perf_counter()
    order = _longest_first(args.name, names)
    for name, (result, printed, wall) in _finished(
        args.name, order, args.check, repeats, args.jobs
    ):
        done[name], walls[name] = result, wall
        print(f"  {name:<26} {bench.describe(result)}", flush=True)
        print(printed, end="", flush=True)
        if args.check and wall > rows[name][3]:
            problems.append(f"{name}: {wall:.1f}s > budget {rows[name][3]:.0f}s")
    total = time.perf_counter() - started
    report = {
        "manifest": {**manifest(), "jobs": args.jobs},
        "repeats": repeats,
        "wall_s_total": round(total, 3),
        "scenarios": [done[name] for name in names],
    }
    problems.extend(claims.check(report, names, full=not args.check))
    # the sum of row walls approximates a serial run only on a box with
    # >= jobs free cores; the longest row bounds the wall at any --jobs
    longest, serial = max(walls, key=walls.get), sum(walls.values())
    print(
        f"{args.name}: {total:.1f}s wall at --jobs {args.jobs} on {os.cpu_count()} cpus "
        f"(sum of scenario walls {serial:.1f}s, speedup {serial / total:.2f}x, "
        f"longest {longest} {walls[longest]:.1f}s)"
    )
    if args.json or not (args.check or args.scenario):
        write_json(args.json or ROOT / f"BENCH_{args.name}.json", report)
    elif args.scenario and not args.check:
        print("a subset is written only to an explicit --json")
    for problem in problems:
        print(f"CLAIM FAILED: {problem}")
    print(f"{args.name}: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0
