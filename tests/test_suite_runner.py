"""Tier-1 guards for the parallel figure-suite runner.

The suite's contract is that scenario *results* are a pure function of
the scenario — worker-process fan-out must not change a single byte of
the deterministic fields.  These tests drive the three fast smoke
scenarios through the real ``ProcessPoolExecutor`` path and compare
against a serial run of the same scenarios.
"""

import json

import pytest

from repro.bench.suite import (
    SCENARIOS,
    deterministic_view,
    run_scenario,
    run_suite,
)

SMOKE = sorted(name for name, s in SCENARIOS.items() if s.smoke)


def test_registry_covers_all_figure_benchmarks():
    figures = {s.module for s in SCENARIOS.values() if not s.smoke}
    assert {
        "bench_fig05_durability",
        "bench_fig06_batching",
        "bench_fig07_large_events",
        "bench_fig08_tail_reads",
        "bench_fig09_routing_keys",
        "bench_fig10_parallelism",
        "bench_fig11_max_throughput",
        "bench_fig12_historical",
        "bench_fig13_autoscaling",
        "bench_table1_config",
    } <= figures


def test_smoke_scenarios_run_and_report(capsys):
    record = run_scenario("smoke_pravega")
    assert record["ok"], record
    assert record["kernel_events"] > 0
    assert record["sim_time_s"] > 0
    assert record["simulations"] >= 1
    assert record["metrics"]["produce_rate"] > 0
    # The record must be JSON-serializable as-is (it lands in
    # BENCH_suite.json).
    json.dumps(record)


@pytest.mark.perf
def test_parallel_jobs_do_not_change_results():
    """Byte-determinism across --jobs 1 and --jobs 4.

    Everything except wall-clock fields must be identical; serializing
    the deterministic views to JSON makes the comparison byte-level.
    """
    serial = run_suite(SMOKE, jobs=1, progress=False)
    parallel = run_suite(SMOKE, jobs=4, progress=False)
    serial_bytes = json.dumps(deterministic_view(serial), sort_keys=True)
    parallel_bytes = json.dumps(deterministic_view(parallel), sort_keys=True)
    assert serial_bytes == parallel_bytes
    assert serial["ok"] and parallel["ok"]


def test_suite_report_shape():
    report = run_suite(["smoke_pravega"], jobs=1, progress=False)
    assert report["cpu_count"] >= 1
    assert report["suite_wall_s"] > 0
    assert report["serial_wall_estimate_s"] > 0
    # capacity-planning fields: the per-scenario wall sum and the
    # critical-path scenario a jobs-run can never beat
    assert report["total_wall_s"] == report["serial_wall_estimate_s"]
    longest = report["longest_scenario"]
    assert longest["name"] == "smoke_pravega"
    assert 0 < longest["wall_s"] <= report["total_wall_s"]
    assert len(report["scenarios"]) == 1
    json.dumps(report)


def test_longest_scenario_tracks_the_critical_path():
    report = run_suite(SMOKE[:3], jobs=1, progress=False)
    walls = {r["name"]: r["wall_s"] for r in report["scenarios"]}
    longest = report["longest_scenario"]
    assert longest["wall_s"] == max(walls.values())
    assert walls[longest["name"]] == longest["wall_s"]
    assert report["total_wall_s"] == pytest.approx(sum(walls.values()))


def test_unknown_scenario_is_rejected():
    with pytest.raises(SystemExit):
        run_suite(["no_such_scenario"], jobs=1, progress=False)
