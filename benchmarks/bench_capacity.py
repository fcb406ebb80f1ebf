#!/usr/bin/env python
"""Capacity map: max sustainable throughput per (system, tenant mix).

Sweeps every registered system x tenant mix through
:class:`repro.capacity.CapacityPlanner` — fluid-accelerated coarse
bracketing, SLO-engine discrete confirmation at the boundary — and
writes the capacity map as ``BENCH_capacity.json`` (``make capacity``).

Per point the record carries: the found rate, the final bracket and its
relative width, probe counts split by mode (fluid vs discrete), the
full probe log, the confirming run's per-tenant SLO margins, wall time
per mode, and the planner seed.  Everything except the ``wall_s`` block
is deterministic at a fixed seed, which is what the regression gate
(``python -m repro.bench gate``) compares.

Driven by ``python -m repro.bench run capacity [--check]`` (``make
bench-capacity`` / ``make capacity-check``); a scenario is one
``system/mix`` point (``--scenario pravega/mixed``).  ``--check`` plans
one cheap point under a generous wall-clock budget and fails on a
blowout or an unconfirmed boundary.
"""

from __future__ import annotations

import platform
from typing import Dict, List, Optional

from repro.bench import harness
from repro.capacity import MIXES, SYSTEMS, CapacityPlanner, PlannerConfig

CONFIG = PlannerConfig(seed=0)


def describe(record: Dict) -> str:
    probes = record["probes"]
    wall = record.get("wall_s", {})
    return (
        f"{record['rate_eps']:>12,.0f} eps  "
        f"width {record['bracket_width_rel'] * 100:4.1f}%  "
        f"probes {probes.get('fluid', 0)}F+{probes.get('discrete', 0)}D  "
        f"margin {record['slo_margin']:+.3f}  "
        f"{'confirmed' if record['confirmed'] else 'UNCONFIRMED'}  "
        f"({wall.get('total', 0.0):.1f}s)"
    )


REPEATS = 1  # a plan is deterministic at the fixed seed: nothing to repeat


def _row(system: str, mix: str):
    def plan(repeats: int) -> Dict:
        return CapacityPlanner(system, MIXES[mix], CONFIG).plan().record()

    name = f"{system}/{mix}"
    # --check plans one cheap point; the other rows have no smoke variant
    return name, plan, plan if name == "pravega/uniform" else None, 120.0


# (system/mix point, full thunk(repeats), smoke thunk(repeats), smoke budget s)
SCENARIOS = [_row(system, mix) for system in SYSTEMS for mix in MIXES]


def build_report(results: Dict[str, Dict], repeats: int, wall_s: float) -> Dict:
    return {
        "python": platform.python_version(),
        "seed": CONFIG.seed,
        "rel_tol": CONFIG.rel_tol,
        "slo_window_s": CONFIG.duration,
        "wall_s_total": round(wall_s, 3),
        "points": list(results.values()),
    }


def check_claims(report: Dict) -> List[str]:
    """The claims BENCH_capacity.json (and a smoke report) is held to."""
    failures: List[str] = []
    points = report.get("points") or []
    if report.get("mode") != "smoke" and len(points) < len(SCENARIOS):
        failures.append(
            f"{len(points)} capacity points, expected >= {len(SCENARIOS)} "
            f"(every system x tenant mix)"
        )
    for label, point in records(report).items():
        if not point.get("confirmed", False):
            failures.append(f"{label}: boundary not discrete-confirmed")
        if not point.get("converged", False):
            failures.append(f"{label}: bracket did not converge")
    return failures


def records(report: Dict) -> Dict[str, Dict]:
    """Committed record per system/mix point (the gate's re-run index)."""
    return {f"{p.get('system')}/{p.get('mix')}": p for p in report.get("points") or []}


def rerun(name: str) -> Optional[Dict]:
    return harness.rerun(SCENARIOS, name)
