"""Regression-gate self-tests: the gate's teeth, demonstrated.

(a) the gate passes on the repo's committed BENCH_*.json files;
(b) it fails with the *right* structured diff when wall-time,
    kernel-event and figure-metric fields are synthetically perturbed;
(c) per-metric tolerance overrides change the verdict.

The comparison layer is exercised directly (no re-runs), so these run
in tier-1 in milliseconds; one real smoke re-run (`suite:table1`, a
6 ms scenario) keeps the full loop honest.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench.gate import (
    WALL_RATIO,
    compare,
    load_bench_files,
    main as gate_main,
    resolve_tolerance,
    run_gate,
    structure_checks,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.gate


@pytest.fixture(scope="module")
def committed():
    files = load_bench_files(REPO_ROOT)
    assert files, "no committed BENCH_*.json files found"
    return files


def _suite_record(files, name):
    for record in files["BENCH_suite.json"]["runs"]["jobs_1"]["scenarios"]:
        if record["name"] == name:
            return record
    raise AssertionError(f"scenario {name} not in BENCH_suite.json")


# ----------------------------------------------------------------------
# (a) committed files pass
# ----------------------------------------------------------------------
def test_structure_checks_pass_on_committed_files(committed):
    drifts = structure_checks(committed)
    assert drifts == []


def test_committed_records_compare_clean_against_themselves(committed):
    for fname, report in committed.items():
        assert compare(fname, "", report, copy.deepcopy(report)) == []


def test_gate_passes_without_reruns_on_this_repo():
    report = run_gate(REPO_ROOT, smoke="none")
    assert report.ok, [d.as_dict() for d in report.drifts]
    assert set(report.files) >= {
        "BENCH_kernel.json",
        "BENCH_suite.json",
        "BENCH_workload.json",
        "BENCH_scale.json",
        "BENCH_capacity.json",
        "BENCH_read.json",
    }


def test_gate_cli_passes_with_cheap_smoke(capsys):
    rc = gate_main(["--root", str(REPO_ROOT), "--smoke", "suite:table1"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "gate: ok" in out


# ----------------------------------------------------------------------
# (b) perturbed copies fail with the right structured diff
# ----------------------------------------------------------------------
def test_perturbed_wall_time_fails_as_wall_kind(committed):
    base = _suite_record(committed, "fig05a")
    bad = copy.deepcopy(base)
    bad["wall_s"] = base["wall_s"] * (WALL_RATIO * 10)
    drifts = compare("BENCH_suite.json", "scenarios[fig05a]", base, bad)
    assert len(drifts) == 1
    drift = drifts[0]
    assert drift.kind == "wall"
    assert drift.path.endswith("wall_s")
    assert drift.drift > WALL_RATIO
    assert drift.tolerance == WALL_RATIO


def test_wall_time_within_allowance_passes(committed):
    base = _suite_record(committed, "fig05a")
    ok = copy.deepcopy(base)
    ok["wall_s"] = base["wall_s"] * 2.0  # different machine, same order
    assert compare("BENCH_suite.json", "scenarios[fig05a]", base, ok) == []


def test_perturbed_kernel_events_fails_exactly(committed):
    base = _suite_record(committed, "fig05a")
    bad = copy.deepcopy(base)
    bad["kernel_events"] = base["kernel_events"] + 1
    drifts = compare("BENCH_suite.json", "scenarios[fig05a]", base, bad)
    assert [d.kind for d in drifts] == ["exact"]
    assert drifts[0].path.endswith("kernel_events")
    assert drifts[0].committed == base["kernel_events"]
    assert drifts[0].fresh == base["kernel_events"] + 1
    assert drifts[0].tolerance == 0.0


def test_perturbed_figure_metric_fails(committed):
    base = _suite_record(committed, "fig05a")
    bad = copy.deepcopy(base)
    bad["metrics"]["pravega_flush_max_eps"] *= 1.01  # a silent 1% rot
    drifts = compare("BENCH_suite.json", "scenarios[fig05a]", base, bad)
    assert len(drifts) == 1
    assert drifts[0].path.endswith("metrics.pravega_flush_max_eps")
    assert drifts[0].drift == pytest.approx(0.01, rel=1e-6)


def test_missing_and_extra_metric_fields_are_reported(committed):
    base = _suite_record(committed, "fig05a")
    bad = copy.deepcopy(base)
    del bad["metrics"]["pravega_flush_max_eps"]
    bad["metrics"]["novel_metric"] = 1.0
    kinds = {d.kind for d in compare("f", "s", base, bad)}
    assert kinds == {"missing", "extra"}


def test_perturbed_capacity_rate_fails(committed):
    base = committed["BENCH_capacity.json"]["points"][0]
    committed_view = {k: v for k, v in base.items() if k != "wall_s"}
    bad = copy.deepcopy(committed_view)
    bad["rate_eps"] *= 0.9  # capacity regression: 10% lower found rate
    drifts = compare("BENCH_capacity.json", "points[0]", committed_view, bad)
    paths = {d.path for d in drifts}
    assert "points[0].rate_eps" in paths


def test_structure_check_rejects_thin_or_unconfirmed_capacity(committed):
    files = copy.deepcopy(committed)
    files["BENCH_capacity.json"]["points"] = files["BENCH_capacity.json"]["points"][:2]
    drifts = structure_checks(files)
    assert any(d.path == "points" and d.kind == "structure" for d in drifts)

    files = copy.deepcopy(committed)
    files["BENCH_capacity.json"]["points"][0]["confirmed"] = False
    drifts = structure_checks(files)
    assert any("confirmed" in d.path for d in drifts)


def test_structure_check_rejects_failed_suite_scenario(committed):
    files = copy.deepcopy(committed)
    files["BENCH_suite.json"]["runs"]["jobs_1"]["scenarios"][0]["ok"] = False
    drifts = structure_checks(files)
    assert any(d.path.endswith(".ok") for d in drifts)


def test_structure_check_rejects_bad_geo_points(committed):
    # a lost acked write in global-strong mode
    files = copy.deepcopy(committed)
    for point in files["BENCH_geo.json"]["points"]:
        if point["mode"] == "global_strong":
            point["rpo_bytes"] = 120
            break
    drifts = structure_checks(files)
    assert any("rpo_bytes" in d.path and d.file == "BENCH_geo.json" for d in drifts)

    # admission lag over the configured staleness bound
    files = copy.deepcopy(committed)
    for point in files["BENCH_geo.json"]["points"]:
        if point["mode"] == "async":
            point["max_lag_at_admission"] = point["staleness_bound_bytes"] + 1
            break
    drifts = structure_checks(files)
    assert any("max_lag_at_admission" in d.path for d in drifts)

    # a point that never measured failover recovery
    files = copy.deepcopy(committed)
    files["BENCH_geo.json"]["points"][0]["rto_s"] = None
    drifts = structure_checks(files)
    assert any(d.path.endswith(".rto_s") for d in drifts)

    # a thinned sweep (fewer than 2 modes x 3 tiers)
    files = copy.deepcopy(committed)
    files["BENCH_geo.json"]["points"] = files["BENCH_geo.json"]["points"][:4]
    drifts = structure_checks(files)
    assert any(
        d.path == "points" and d.file == "BENCH_geo.json" for d in drifts
    )


def test_structure_check_rejects_bad_kernel_baseline(committed):
    # a before/after wall pair is only a pair at identical event counts
    files = copy.deepcopy(committed)
    files["BENCH_kernel.json"]["baseline"]["scenarios"]["ping_pong_sliced"]["events"] += 1
    drifts = structure_checks(files)
    assert [d.path for d in drifts] == ["baseline.scenarios.ping_pong_sliced.events"]

    # ... and says which commit and which box it was measured on
    files = copy.deepcopy(committed)
    del files["BENCH_kernel.json"]["baseline"]["commit"]
    del files["BENCH_kernel.json"]["cpu_count"]
    drifts = structure_checks(files)
    assert {d.path for d in drifts} == {"baseline", "cpu_count"}


def test_kernel_gc_collections_are_contracted_but_never_compared(committed):
    # How often the collector ran belongs to the interpreter process, not
    # to the simulation: a fresh run may report any counts ...
    base = committed["BENCH_kernel.json"]["scenarios"]["mini_workload"]
    fresh = copy.deepcopy(base)
    fresh["gc_collections"] = [n + 17 for n in base["gc_collections"]]
    assert compare("BENCH_kernel.json", "scenarios.mini_workload", base, fresh) == []
    # ... but it must report them,
    del fresh["gc_collections"]
    drifts = compare("BENCH_kernel.json", "scenarios.mini_workload", base, fresh)
    assert [(d.kind, d.path) for d in drifts] == [
        ("missing", "scenarios.mini_workload.gc_collections")
    ]
    # ... and the committed record must hold three non-negative ints.
    for broken in ([1, 2], [1, 2, -1], [1.0, 2, 3], [True, 2, 3], None, "1/2/3"):
        files = copy.deepcopy(committed)
        files["BENCH_kernel.json"]["scenarios"]["cancel_storm"]["gc_collections"] = broken
        drifts = structure_checks(files)
        assert [d.path for d in drifts] == ["scenarios.cancel_storm.gc_collections"], broken
    files = copy.deepcopy(committed)
    del files["BENCH_kernel.json"]["scenarios"]["timeout_churn"]["gc_collections"]
    assert [d.path for d in structure_checks(files)] == [
        "scenarios.timeout_churn.gc_collections"
    ]
    # The scenario's simulated counters stay exact beside it.
    fresh = copy.deepcopy(base)
    fresh["stats"]["events_executed"] += 1
    assert [d.kind for d in compare("BENCH_kernel.json", "s", base, fresh)] == ["exact"]


def test_structure_check_rejects_bad_read_report(committed):
    # no mass fan-out point: every point is dropped below 1000 readers
    files = copy.deepcopy(committed)
    for point in files["BENCH_read.json"]["fanout"]["points"]:
        point["readers"] = min(point["readers"], 100)
    drifts = structure_checks(files)
    assert any(
        d.path == "fanout.points" and d.file == "BENCH_read.json"
        for d in drifts
    )

    # coalescing that *increases* LTS ops is a broken single-flight
    files = copy.deepcopy(committed)
    replay = files["BENCH_read.json"]["replay"]
    replay["on"]["lts_fetch_ops"] = replay["off"]["lts_fetch_ops"] + 1
    drifts = structure_checks(files)
    assert any(d.path == "replay.on.lts_fetch_ops" for d in drifts)

    # coalescing must not change the bytes readers observe
    files = copy.deepcopy(committed)
    files["BENCH_read.json"]["replay"]["on"]["delivered_bytes"] += 1
    drifts = structure_checks(files)
    assert any(d.path == "replay.on.delivered_bytes" for d in drifts)

    # a hit rate outside [0, 1] is a broken counter
    files = copy.deepcopy(committed)
    name = next(iter(files["BENCH_read.json"]["policies"]))
    files["BENCH_read.json"]["policies"][name]["hit_rate"] = 1.2
    drifts = structure_checks(files)
    assert any(
        d.path == f"policies[{name}].hit_rate" and d.kind == "structure"
        for d in drifts
    )

    # determinism fields must be recorded for re-run comparison
    files = copy.deepcopy(committed)
    del files["BENCH_read.json"]["fanout"]["points"][0]["kernel_events"]
    drifts = structure_checks(files)
    assert any(d.path.endswith(".kernel_events") for d in drifts)

    # a fan-out point whose readers never drained the backlog
    files = copy.deepcopy(committed)
    files["BENCH_read.json"]["fanout"]["points"][0]["caught_up"] = False
    drifts = structure_checks(files)
    assert any(d.path.endswith(".caught_up") for d in drifts)


def test_structure_check_rejects_uncontracted_file(committed):
    # a new or renamed bench file must not be "guarded" by nothing
    files = copy.deepcopy(committed)
    files["BENCH_bogus.json"] = {}
    drifts = structure_checks(files)
    assert [d.file for d in drifts] == ["BENCH_bogus.json"]
    assert drifts[0].kind == "structure"


def test_cross_file_disagreement_is_reported(committed):
    files = copy.deepcopy(committed)
    files["BENCH_workload.json"]["scenarios"][0]["kernel_events"] += 1
    # keep the suite's twin untouched: the two files now disagree
    drifts = structure_checks(files)
    assert any(
        "kernel_events" in d.path and d.file == "BENCH_workload.json"
        for d in drifts
    )


def test_gate_fails_end_to_end_on_perturbed_copy(tmp_path, committed):
    for fname, report in committed.items():
        bad = copy.deepcopy(report)
        if fname == "BENCH_capacity.json":
            bad["points"][0]["confirmed"] = False
        (tmp_path / fname).write_text(json.dumps(bad))
    report = run_gate(tmp_path, smoke="none")
    assert not report.ok
    assert any("confirmed" in d.path for d in report.drifts)
    # the structured diff names the file, the path and the expectation
    drift = next(d for d in report.drifts if "confirmed" in d.path)
    assert drift.file == "BENCH_capacity.json"
    assert drift.kind == "structure"


# ----------------------------------------------------------------------
# (c) per-metric tolerance overrides
# ----------------------------------------------------------------------
def test_tolerance_override_relaxes_a_metric(committed):
    base = _suite_record(committed, "fig05a")
    bad = copy.deepcopy(base)
    bad["metrics"]["pravega_flush_max_eps"] *= 1.01
    assert compare("f", "s", base, bad) != []
    assert compare(
        "f", "s", base, bad, overrides=[("*pravega_flush_max_eps", 0.05)]
    ) == []


def test_tolerance_override_tightens_wall(committed):
    base = _suite_record(committed, "fig05a")
    bad = copy.deepcopy(base)
    bad["wall_s"] = base["wall_s"] * 5.0
    assert compare("f", "s", base, bad) == []  # inside the default 10x
    drifts = compare("f", "s", base, bad, overrides=[("*wall_s", 2.0)])
    assert [d.kind for d in drifts] == ["wall"]
    assert drifts[0].tolerance == 2.0


def test_first_matching_override_wins():
    assert resolve_tolerance("metrics.p99_ms", [("metrics.*", 0.1), ("*", 0.5)]) == (
        "metric", 0.1,
    )
    assert resolve_tolerance("metrics.p99_ms", [("nomatch.*", 0.1)]) == ("exact", 0.0)
    # wall fields keep ratio semantics under overrides
    assert resolve_tolerance("scenarios[x].wall_s", [("*wall_s", 3.0)]) == ("wall", 3.0)


def test_nan_metrics_compare_equal():
    assert compare("f", "s", {"m": float("nan")}, {"m": float("nan")}) == []
