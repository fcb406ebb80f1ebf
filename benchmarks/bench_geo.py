#!/usr/bin/env python
"""Geo-replication benchmark: async vs global-strong across WAN tiers.

Runs the scripted region-loss experiment
(:func:`repro.geo.scenarios.run_region_loss`) for every (mode, RTT
tier) pair — async bounded-staleness replication vs global-strong
cross-region CAS at metro (20 ms), continental (80 ms) and global
(200 ms) round trips — and writes ``BENCH_geo.json`` (``make geo``).

Per point the record carries pre-loss client latency (p50/p95),
throughput, the measured RPO (acked-but-unreplicated bytes and events
at the loss instant), RTO (first post-failover ack), client-visible
availability against a 1 s SLA, the replication-oracle verdict, and
wall time.  Everything except ``wall_s`` is byte-deterministic at a
fixed seed, which is what the regression gate compares.

Claims (``check_claims``; the run and the regression gate both exit
non-zero on a violation):

* every point's oracle verdict is clean (zero violations);
* global-strong loses nothing: RPO bytes = RPO events = 0 at every
  tier;
* async admission lag never exceeded the configured staleness bound;
* global-strong pre-loss p50 latency is above async's at every tier
  (the paid price of cross-region coordination).

Driven by ``python -m repro.bench run geo [--check]`` (``make bench-geo``
/ ``make geo-check``); a scenario is one ``mode/tier`` point, and
``--check`` runs the metro point of each mode at half the steps.
"""

from __future__ import annotations

import platform
import time
from typing import Dict, List

from repro.geo.scenarios import RTT_TIERS, SLA_S, run_region_loss

MODES = ["async", "global_strong"]
SEED = 7
STEPS = 120
STALENESS_BOUND = 262144


def run_point(mode: str, tier: str, seed: int = SEED, steps: int = STEPS) -> Dict:
    start = time.perf_counter()
    result = run_region_loss(
        mode=mode,
        wan_rtt=RTT_TIERS[tier],
        seed=seed,
        regions=3,
        steps=steps,
        staleness_bound_bytes=STALENESS_BOUND,
    )
    record = {k: v for k, v in result.items() if k != "timeline"}
    record["tier"] = tier
    record["timeline_events"] = len(result["timeline"])
    record["violations"] = len(result["violations"])
    record["violation_details"] = result["violations"]
    record["wall_s"] = round(time.perf_counter() - start, 3)
    return record


def describe(record: Dict) -> str:
    rto = record["rto_s"]
    rto_str = f"{rto:6.3f}s" if rto is not None else "   n/a"
    return (
        f"rtt {record['wan_rtt'] * 1000:5.0f}ms  "
        f"p50 {record['latency_p50_s'] * 1000:7.1f}ms  "
        f"rpo {record['rpo_bytes']:5d}B/{record['rpo_events']}ev  "
        f"rto {rto_str}  "
        f"avail {record['availability'] * 100:5.1f}%  "
        f"viol {record['violations']}  ({record['wall_s']:.1f}s)"
    )


#: what a point must record for the claims below to be checkable
_CLAIM_FIELDS = (
    "mode", "tier", "violations", "violation_details", "rto_s", "rpo_bytes",
    "rpo_events", "availability", "latency_p50_s", "max_lag_at_admission",
    "staleness_bound_bytes",
)


def check_claims(report: Dict) -> List[str]:
    """The claims BENCH_geo.json (and a smoke report) is held to."""
    failures: List[str] = []
    points = report.get("points") or []
    if report.get("mode") != "smoke" and len(points) < len(SCENARIOS):
        failures.append(
            f"{len(points)} geo points, expected >= {len(SCENARIOS)} "
            f"({len(MODES)} modes x {len(RTT_TIERS)} RTT tiers)"
        )
    checkable = []
    for p in points:
        missing = sorted(set(_CLAIM_FIELDS) - set(p))
        if missing:
            failures.append(f"{p.get('mode')}:{p.get('tier')} lacks {missing}")
        else:
            checkable.append(p)
    points = checkable
    by = {(p["mode"], p["tier"]): p for p in points}
    for p in points:
        if p["violations"]:
            failures.append(
                f"{p['mode']}:{p['tier']} oracle violations: "
                f"{p['violation_details']}"
            )
        if p["rto_s"] is None:
            failures.append(f"{p['mode']}:{p['tier']} never recovered (no RTO)")
    for tier in RTT_TIERS:
        strong = by.get(("global_strong", tier))
        weak = by.get(("async", tier))
        if strong is None or weak is None:
            continue
        if strong["rpo_bytes"] != 0 or strong["rpo_events"] != 0:
            failures.append(
                f"global_strong:{tier} has nonzero RPO "
                f"({strong['rpo_bytes']}B/{strong['rpo_events']}ev)"
            )
        if weak["max_lag_at_admission"] > weak["staleness_bound_bytes"]:
            failures.append(
                f"async:{tier} admission lag {weak['max_lag_at_admission']} "
                f"exceeds bound {weak['staleness_bound_bytes']}"
            )
        if strong["latency_p50_s"] <= weak["latency_p50_s"]:
            failures.append(
                f"{tier}: global_strong p50 {strong['latency_p50_s']}s not "
                f"above async p50 {weak['latency_p50_s']}s"
            )
    return failures


REPEATS = 1  # a point is deterministic at the fixed seed: nothing to repeat


def _row(mode: str, tier: str):
    # --check runs the cheapest tier of each mode at half the steps
    smoke = (lambda repeats: run_point(mode, tier, steps=60)) if tier == "metro" else None
    return f"{mode}/{tier}", lambda repeats: run_point(mode, tier), smoke, 60.0


# (mode/tier point, full thunk(repeats), smoke thunk(repeats), smoke budget s)
SCENARIOS = [_row(mode, tier) for mode in MODES for tier in RTT_TIERS]


def build_report(results: Dict[str, Dict], repeats: int, wall_s: float) -> Dict:
    return {
        "python": platform.python_version(),
        "seed": SEED,
        "steps": STEPS,
        "sla_s": SLA_S,
        "staleness_bound_bytes": STALENESS_BOUND,
        "rtt_tiers": RTT_TIERS,
        "wall_s_total": round(wall_s, 3),
        "points": list(results.values()),
    }
