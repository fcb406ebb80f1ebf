"""Tier-1 guards for the parallel figure-suite runner.

The suite's contract is that scenario *results* are a pure function of
the scenario — worker-process fan-out must not change a single byte of
the deterministic fields.  These tests drive the three fast smoke
scenarios through the real ``ProcessPoolExecutor`` path and compare
against a serial run of the same scenarios.
"""

import inspect
import json
from pathlib import Path

import pytest

from repro.bench import claims, harness
from repro.bench.suite import (
    SCENARIOS,
    deterministic_view,
    run_scenario,
    run_suite,
)

SMOKE = sorted(name for name, s in SCENARIOS.items() if s.smoke)
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_registry_covers_all_figure_benchmarks():
    # every bench script the report driver does not own is a figure
    # script, and the suite is the one way to run it
    figures = {s.module for s in SCENARIOS.values() if not s.smoke}
    on_disk = {path.stem for path in BENCHMARKS.glob("bench_*.py")}
    assert figures == on_disk - set(harness.RUNNABLE.values())
    # a scenario is the plain function of its own name: no fixture, no
    # parameter, a metrics dict back
    for scenario in SCENARIOS.values():
        if not scenario.smoke:
            fn = getattr(harness.load(scenario.module), scenario.name)
            assert not inspect.signature(fn).parameters, scenario.name


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
    assert report["suite_wall_s"] > 0
    assert report["serial_wall_estimate_s"] > 0
    # capacity-planning fields: the per-scenario wall sum and the
    # critical-path scenario a jobs-run can never beat
    longest = report["longest_scenario"]
    assert longest["name"] == "smoke_pravega"
    assert 0 < longest["wall_s"] <= report["serial_wall_estimate_s"]
    # one flat run: what `make suite` writes is what is committed (the
    # writer adds the run manifest, core count included)
    assert set(report) == {
        "jobs", "suite_wall_s", "serial_wall_estimate_s",
        "longest_scenario", "parallel_speedup_vs_serial_estimate", "ok",
        "scenarios",
    }
    (record,) = report["scenarios"]
    assert set(record) == {
        "name", "seed", "ok", "error", "metrics", "claims", "wall_s",
        "sim_time_s", "simulations", "kernel_events", "events_per_second",
    }
    json.dumps(report)


def test_a_scenario_is_held_to_its_claim_rows(monkeypatch):
    rows = (
        claims.Claim("smoke_pravega.writes", "events are acknowledged",
                     claims.gt("produce_rate", 0)),
        claims.Claim("smoke_pravega.impossible", "the write p50 is under a nanosecond",
                     claims.lt("write_p50_us", 1e-3), assumes="nothing"),
    )
    monkeypatch.setattr(claims, "CLAIMS", rows)
    record = run_scenario("smoke_pravega")
    assert [(v["id"], v["ok"]) for v in record["claims"]] == [
        ("smoke_pravega.writes", True), ("smoke_pravega.impossible", False),
    ]
    assert record["claims"][0]["margin"] == record["metrics"]["produce_rate"]
    assert not record["ok"]
    margin = record["claims"][1]["margin"]
    assert margin < 0
    assert record["error"] == (
        "claim failed: smoke_pravega.impossible: the write p50 is under a "
        f"nanosecond (margin {margin:.3g}; assumes nothing)"
    )
    # the gate's half: the same rows over the recorded metrics, the same words
    report = {"manifest": harness.manifest(), "scenarios": [record]}
    assert claims.check(report, ["smoke_pravega"]) == [f"smoke_pravega: {record['error']}"]
    # a row the record does not carry: the file predates the table
    monkeypatch.setattr(claims, "CLAIMS", rows[:1])
    not_ok, stale = claims.check(report, ["smoke_pravega"])
    assert not_ok == f"smoke_pravega: not ok ({record['error']})"
    assert "recorded claims are not what the claims table says" in stale


def test_serial_runner_prints_the_scenario_table_after_its_status(capsys):
    report = run_suite(["table1"], jobs=1)
    out = capsys.readouterr().out
    assert report["ok"], report
    status = out.index("[suite] table1: ok")
    assert status < out.index("Table 1 (simulated deployment")
    assert "Client batching" in out


def test_longest_scenario_tracks_the_critical_path():
    report = run_suite(SMOKE[:3], jobs=1, progress=False)
    walls = {r["name"]: r["wall_s"] for r in report["scenarios"]}
    longest = report["longest_scenario"]
    assert longest["wall_s"] == max(walls.values())
    assert walls[longest["name"]] == longest["wall_s"]
    assert report["serial_wall_estimate_s"] == pytest.approx(sum(walls.values()))


def test_unknown_scenario_is_rejected():
    with pytest.raises(SystemExit):
        run_suite(["no_such_scenario"], jobs=1, progress=False)
