"""Tier-1 guards for the one bench driver, ``python -m repro.bench run``,
and the figure suite it runs as a bench.

The driver's contract is that a record's deterministic fields are a
pure function of its scenario: worker-process fan-out must not change a
single byte of them, for any bench.  These tests drive every bench's
smoke rows through the real ``ProcessPoolExecutor`` path and compare
against a serial run of the same rows.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

from repro.bench import claims, harness
from repro.bench.__main__ import main as bench_main

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
suite = harness.load("suite")


def test_registry_covers_all_figure_benchmarks():
    # every bench script the driver does not load by name is a figure
    # script, and the suite is the one way to run it
    figures = {module for _, module in suite.FIGURES}
    on_disk = {path.stem for path in BENCHMARKS.glob("bench_*.py")}
    assert figures == on_disk - {f"bench_{name}" for name in harness.BENCHES}
    # a scenario is the plain function of its own name: no fixture, no
    # parameter, a metrics dict back
    for name, module in suite.FIGURES:
        fn = getattr(importlib.import_module(module), name)
        assert not inspect.signature(fn).parameters, name
    # a full run records the figures, --check runs the smoke scenarios
    assert harness.scenario_names("suite") == [name for name, _ in suite.FIGURES]
    assert [row[0] for row in suite.SCENARIOS if row[2]] == list(suite.SMOKES)


def test_smoke_scenarios_run_and_report():
    record, printed, wall = harness.run_row("suite", "smoke_pravega", check=True, repeats=1)
    assert record["ok"], record
    assert record["kernel_events"] > 0
    assert record["sim_time_s"] > 0
    assert record["simulations"] >= 1
    assert record["metrics"]["produce_rate"] > 0
    assert wall >= record["wall_s"] - 1e-3
    # The record must be JSON-serializable as-is (it lands in
    # BENCH_suite.json).
    json.dumps(record)


@pytest.mark.perf
def test_parallel_jobs_do_not_change_results(tmp_path, capsys):
    """Byte-determinism across --jobs 1 and --jobs 2, every bench.

    Everything but the wall-clock fields must be identical; serializing
    the deterministic views to JSON makes the comparison byte-level.
    """
    for bench in harness.BENCHES:
        views = []
        for jobs in (1, 2):
            path = tmp_path / f"{bench}-{jobs}.json"
            argv = ["run", bench, "--check", "--jobs", str(jobs), "--json", str(path)]
            assert bench_main(argv) == 0, capsys.readouterr().out
            records = json.loads(path.read_text())["scenarios"]
            assert [r["name"] for r in records] == [
                row[0] for row in harness.load(bench).SCENARIOS if row[2]
            ]
            views.append(json.dumps([harness.deterministic(r) for r in records], sort_keys=True))
        assert views[0] == views[1], bench


def test_suite_report_shape(tmp_path, capsys):
    path = tmp_path / "suite.json"
    assert bench_main(["run", "suite", "--scenario", "table1", "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    # the shape of every bench's report, the committed suite file's too;
    # the jobs count the walls were measured at is in the manifest
    assert set(report) == {"manifest", "repeats", "wall_s_total", "scenarios"}
    assert set(report) == set(json.loads((ROOT / "BENCH_suite.json").read_text()))
    assert set(report["manifest"]) == {*claims.MANIFEST, "jobs"}
    assert report["manifest"]["jobs"] == 1 and report["wall_s_total"] > 0
    (record,) = report["scenarios"]
    assert set(record) == {
        "name", "seed", "ok", "error", "metrics", "claims", "wall_s",
        "sim_time_s", "simulations", "kernel_events", "events_per_second",
    }


def test_a_scenario_is_held_to_its_claim_rows(monkeypatch):
    rows = (
        claims.Claim("smoke_pravega.writes", "events are acknowledged",
                     claims.gt("produce_rate", 0)),
        claims.Claim("smoke_pravega.impossible", "the write p50 is under a nanosecond",
                     claims.lt("write_p50_us", 1e-3), assumes="nothing"),
    )
    monkeypatch.setattr(claims, "CLAIMS", rows)
    record, _, _ = harness.run_row("suite", "smoke_pravega", check=True, repeats=1)
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
    assert bench_main(["run", "suite", "--scenario", "table1", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    status = re.search(r"^  table1 +[\d,]+ events +[\d.]+s  ok$", out, flags=re.M)
    assert status, out
    assert status.start() < out.index("Table 1 (simulated deployment")
    assert "Client batching" in out
    assert out.rstrip().endswith("suite: ok")


def test_a_subset_is_written_only_to_an_explicit_json(monkeypatch, capsys):
    written = []
    monkeypatch.setattr(harness, "write_json", lambda path, report: written.append(path))
    assert bench_main(["run", "suite", "--scenario", "table1"]) == 0
    assert written == []
    assert "a subset is written only to an explicit --json" in capsys.readouterr().out
    assert bench_main(["run", "suite", "--scenario", "table1", "--json", "x.json"]) == 0
    assert written == ["x.json"]


def test_a_full_run_refuses_a_row_without_a_full_thunk(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_main(["run", "suite", "--scenario", "smoke_pravega"])
    assert exc.value.code == 2
    assert "scenario(s) ['smoke_pravega'] of bench 'suite' have no full variant" in (
        capsys.readouterr().err
    )


def test_longest_scenario_tracks_the_critical_path(monkeypatch, capsys):
    walls = {"smoke_pravega": 1.5, "smoke_kafka": 3.0, "smoke_pulsar": 1.0, "smoke_workload": 0.5}

    def run_row(bench, name, check, repeats):
        record = {"name": name, "seed": 0, "ok": True, "error": None, "metrics": {},
                  "claims": [], "wall_s": walls[name], "kernel_events": 1}
        return record, "", walls[name]

    monkeypatch.setattr(harness, "run_row", run_row)
    assert bench_main(["run", "suite", "--check", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    # the derived figures are printed, not stored: the sum of the row
    # walls and the row no jobs count can push the run's wall below
    assert "sum of scenario walls 6.0s" in out
    assert "longest smoke_kafka 3.0s" in out


def test_unknown_scenario_is_rejected(capsys):
    for token, message in (
        ("no_such_scenario", "unknown scenario 'no_such_scenario'"),
        (",", "the selection is empty"),
    ):
        with pytest.raises(SystemExit) as exc:
            bench_main(["run", "suite", "--scenario", token])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
