#!/usr/bin/env python
"""Capacity map: max sustainable throughput per (system, tenant mix).

Sweeps every registered system x tenant mix through
:class:`repro.capacity.CapacityPlanner` — bracket, then bisect, every
probe a discrete multi-tenant run judged by the SLO engine — and
writes the capacity map as ``BENCH_capacity.json`` (``make capacity``).

Per point the record carries: the found rate, the final bracket and its
relative width, the probe count, the full probe log, the last feasible
run's per-tenant SLO margins, the search's wall time, and the planner
seed.  Everything except ``wall_s`` is deterministic at a fixed seed,
which is what the regression gate (``python -m repro.bench gate``)
compares.

Driven by ``python -m repro.bench run capacity [--check]`` (``make
bench-capacity`` / ``make capacity-check``); a scenario is one
``system/mix`` point (``--scenario pravega/mixed``).  ``--check`` plans
one cheap point under a generous wall-clock budget and fails on a
blowout or an unconverged bracket (its claim row is
``<system>/<mix>.converged``).
"""

from __future__ import annotations

from typing import Dict

from repro.capacity import MIXES, SYSTEMS, CapacityPlanner, PlannerConfig

CONFIG = PlannerConfig(seed=0)


def describe(record: Dict) -> str:
    return (
        f"{record['rate_eps']:>12,.0f} eps  "
        f"width {record['bracket_width_rel'] * 100:4.1f}%  "
        f"probes {record['probes']}  "
        f"margin {record['slo_margin']:+.3f}  "
        f"{'converged' if record['converged'] else 'UNCONVERGED'}  "
        f"({record.get('wall_s', 0.0):.1f}s)"
    )


REPEATS = 1  # a plan is deterministic at the fixed seed: nothing to repeat


def _row(system: str, mix: str):
    def plan(repeats: int) -> Dict:
        record = CapacityPlanner(system, MIXES[mix], CONFIG).plan().record()
        return {**record, "rel_tol": CONFIG.rel_tol, "slo_window_s": CONFIG.duration}

    name = f"{system}/{mix}"
    # --check plans one cheap point; the other rows have no smoke variant
    return name, plan, plan if name == "pravega/uniform" else None, 120.0


# (system/mix point, full thunk(repeats), smoke thunk(repeats), smoke budget s)
SCENARIOS = [_row(system, mix) for system in SYSTEMS for mix in MIXES]
