"""Seeded randomized fault-schedule explorer.

    python -m repro.faults.fuzz --seed S --steps N [--system pravega|kafka|pulsar|all]

Derives a fault plan and workload from the seed, runs it, checks the
crash-consistency oracle and exits non-zero on any violation.  A
failing schedule is dumped as replayable JSON (``--dump-dir``,
default ``tests/data``); replay it with ``--plan <file>`` plus the
same seed, or keep it as a regression fixture.

Runs are bit-identical for a given (system, seed, steps): all
randomness derives from the seed and the simulation is deterministic.
"""

from __future__ import annotations

import argparse
import os
import sys

from .plan import FaultPlan
from .scenarios import RUNNERS, ScenarioResult

__all__ = ["main", "run_one"]


def run_one(system: str, seed: int, steps: int, plan=None) -> ScenarioResult:
    return RUNNERS[system](seed, steps, plan=plan)


def _report(result: ScenarioResult, dump_dir: str, verbose: bool) -> bool:
    status = "OK" if result.ok else f"{len(result.violations)} VIOLATIONS"
    print(
        f"[{result.system}] seed={result.seed} steps={result.steps} "
        f"faults={len(result.injected)} {result.oracle.summary()} -> {status}"
    )
    if verbose:
        for t, action, target in result.injected:
            print(f"    t={t:.4f} {action} {target}")
    if result.ok:
        return True
    for violation in result.violations[:20]:
        print(f"  VIOLATION: {violation}")
    if len(result.violations) > 20:
        print(f"  ... and {len(result.violations) - 20} more")
    os.makedirs(dump_dir, exist_ok=True)
    path = os.path.join(
        dump_dir,
        f"faultplan_{result.system}_seed{result.seed}_steps{result.steps}.json",
    )
    result.plan.dump(path)
    print(f"  replayable plan dumped to {path}")
    print(
        f"  replay: python -m repro.faults.fuzz --system {result.system} "
        f"--seed {result.seed} --steps {result.steps} --plan {path}"
    )
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.fuzz", description=__doc__
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument(
        "--system", choices=[*RUNNERS, "all"], default="all",
        help="system under test (default: every registered runner)",
    )
    parser.add_argument(
        "--plan", default=None,
        help="replay an explicit FaultPlan JSON instead of deriving one",
    )
    parser.add_argument(
        "--dump-dir", default="tests/data",
        help="where failing schedules are dumped as JSON",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="print the injected-fault log",
    )
    args = parser.parse_args(argv)

    plan = FaultPlan.load(args.plan) if args.plan else None
    systems = list(RUNNERS) if args.system == "all" else [args.system]
    ok = True
    for system in systems:
        result = run_one(system, args.seed, args.steps, plan=plan)
        ok = _report(result, args.dump_dir, args.verbose) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
