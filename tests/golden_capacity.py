"""Golden capacity fixture: a small 3-point map at a fixed seed.

Same contract as the golden kernel/trace fixtures: the committed JSON
under ``tests/data/golden_capacity.json`` must regenerate **byte for
byte** — every probe rate, verdict and margin of the capacity search is
a deterministic function of the planner config, so any drift means the
kernel, the SLO engine, or the search itself changed behaviour.

Regenerate (only when such a change is intentional)::

    PYTHONPATH=src python tests/golden_capacity.py > tests/data/golden_capacity.json

The config is deliberately cheap (short windows, coarse 10% tolerance,
uniform single-tenant mix) so the byte-identity test stays a few
seconds; the committed ``BENCH_capacity.json`` is the full-resolution
map.
"""

from __future__ import annotations

import json

from repro.capacity import PlannerConfig, plan_capacity

GOLDEN_SYSTEMS = ("pravega", "kafka", "pulsar")

GOLDEN_CONFIG = PlannerConfig(
    duration=0.6,
    warmup=0.2,
    start=200_000.0,
    floor=10_000.0,
    cap=8_000_000.0,
    rel_tol=0.10,
    max_probes=40,
    seed=7,
)


def build_capacity_map() -> dict:
    points = [
        plan_capacity(system, "uniform", GOLDEN_CONFIG).record(include_wall=False)
        for system in GOLDEN_SYSTEMS
    ]
    return {
        "seed": GOLDEN_CONFIG.seed,
        "rel_tol": GOLDEN_CONFIG.rel_tol,
        "mix": "uniform",
        "points": points,
    }


def render(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    print(render(build_capacity_map()), end="")
