#!/usr/bin/env python
"""Geo-replication benchmark: async vs global-strong across WAN tiers.

Runs the scripted region-loss experiment
(:func:`repro.geo.scenarios.run_region_loss`) for every (mode, RTT
tier) pair — async bounded-staleness replication vs global-strong
cross-region CAS at metro (20 ms), continental (80 ms) and global
(200 ms) round trips — and writes ``BENCH_geo.json`` (``make geo``).

A scenario is one RTT tier (``geo_metro``, ``geo_continental``,
``geo_global``) and runs both modes, so a claim comparing them reads
one record.  Per mode the record carries pre-loss client latency
(p50/p95), throughput, the measured RPO (acked-but-unreplicated bytes
and events at the loss instant), RTO (first post-failover ack),
client-visible availability against the ``sla_s`` SLA, the
replication-oracle verdict, and wall time.  Everything except
``wall_s`` is byte-deterministic at a fixed seed, which is what the
regression gate compares.

Its claim rows (``geo_<tier>.*`` in :mod:`repro.bench.claims`): every
oracle verdict is clean and every failover measured an RTO;
global-strong loses nothing (RPO bytes = RPO events = 0); async
admission lag never exceeded the configured staleness bound; and
global-strong pre-loss p50 latency is above async's (the paid price of
cross-region coordination).

Driven by ``python -m repro.bench run geo [--check]`` (``make bench-geo``
/ ``make geo-check``); ``--check`` runs the metro tier at half the
steps.
"""

from __future__ import annotations

import time
from typing import Dict

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
    return "  ".join(
        f"{mode} p50 {record[mode]['latency_p50_s'] * 1000:.1f}ms "
        f"rpo {record[mode]['rpo_bytes']}B rto {record[mode]['rto_s']}s "
        f"viol {record[mode]['violations']}"
        for mode in MODES
    )


REPEATS = 1  # a point is deterministic at the fixed seed: nothing to repeat


def _tier(tier: str, steps: int = STEPS) -> Dict:
    return {"sla_s": SLA_S, **{mode: run_point(mode, tier, steps=steps) for mode in MODES}}


def _row(tier: str):
    # --check runs the cheapest tier at half the steps
    smoke = (lambda repeats: _tier(tier, steps=STEPS // 2)) if tier == "metro" else None
    return f"geo_{tier}", lambda repeats: _tier(tier), smoke, 60.0


# (RTT tier, full thunk(repeats), smoke thunk(repeats), smoke budget s)
SCENARIOS = [_row(tier) for tier in RTT_TIERS]
