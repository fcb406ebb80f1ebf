"""Regression-gate self-tests: the gate's teeth, demonstrated.

(a) the gate passes on the repo's committed BENCH_*.json files;
(b) it fails with the *right* structured diff when wall-time,
    kernel-event and figure-metric fields are synthetically perturbed,
    and repeats ``claims.check``'s message when a claim is broken — for
    every row of ``repro.bench.claims`` in every committed file;
(c) per-metric tolerance overrides change the verdict;
(d) the claim vocabulary: a margin's sign is the verdict.

The comparison layer is exercised directly (no re-runs), so these run
in tier-1 in milliseconds; one real smoke re-run (`suite:table1`, a
6 ms scenario) keeps the full loop honest.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.bench import claims, harness
from repro.bench.__main__ import main as bench_main
from repro.bench.gate import (
    WALL_RATIO,
    compare,
    load_bench_files,
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
    return claims.records(files["BENCH_suite.json"])[name]


def _names(fname):
    """The scenarios the bench writing ``fname`` defines for it."""
    return harness.scenario_names(fname.removeprefix("BENCH_").removesuffix(".json"))


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
        "BENCH_read.json",
    }


def test_gate_cli_passes_with_cheap_smoke(capsys):
    rc = bench_main(["gate", "--root", str(REPO_ROOT), "--smoke", "suite:table1"])
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
    # a max-throughput search whose highest feasible probe is 10% lower
    base = _suite_record(committed, "fig05c")
    bad = copy.deepcopy(base)
    best = bad["metrics"]["probes"]["Pravega (flush)"][0]
    assert best["feasible"]
    best["rate_eps"] *= 0.9
    drifts = compare("BENCH_suite.json", "fig05c", base, bad)
    assert [(d.kind, d.path) for d in drifts] == [
        ("exact", "fig05c.metrics.probes.Pravega (flush)[0].rate_eps")
    ]


# ----------------------------------------------------------------------
# (b') a broken claim in a committed file: the gate repeats, word for
# word, what claims.check says — it states no claim of its own about
# any single file
# ----------------------------------------------------------------------
def _assert_gate_repeats_the_check(committed, fname, mutate, fragment):
    files = copy.deepcopy(committed)
    mutate(files[fname])
    expected = claims.check(files[fname], _names(fname))
    assert any(fragment in message for message in expected), expected
    assert [
        (d.kind, d.message) for d in structure_checks(files) if d.file == fname
    ] == [("structure", message) for message in expected]


def _set(node, path, value):
    """Write ``value`` where the view key ``path`` reads it."""
    for key in range(len(node)) if isinstance(node, list) else list(node):
        if path == str(key):
            node[key] = value
            return
        if path.startswith(f"{key}."):
            return _set(node[key], path[len(f"{key}."):], value)
    raise KeyError(path)


def _pushes(predicate, metrics):
    """Single-operand edits of ``metrics`` that push ``predicate`` just
    past its threshold."""
    if isinstance(predicate, claims.Both):
        for part in predicate.parts:
            yield from _pushes(part, metrics)
    elif isinstance(predicate, claims.Counts):
        yield {f"{predicate.a}.0": -1}
    elif isinstance(predicate, claims.Is):
        expected = predicate.expected
        if isinstance(expected, bool):
            yield {predicate.a: not expected}
        else:
            yield {predicate.a: expected + ("?" if isinstance(expected, str) else 1)}
    else:
        # `a > k·b` breaks with a just under k·b, or b just over a/k
        sign = 1 if predicate.op[0] == ">" else -1
        b = metrics[predicate.b] if isinstance(predicate.b, str) else predicate.b
        threshold = predicate.k * b
        yield {predicate.a: threshold - sign * 1e-9 * (abs(threshold) or 1.0)}
        if isinstance(predicate.b, str):
            pivot = metrics[predicate.a] / predicate.k
            yield {predicate.b: pivot + sign * 1e-9 * (abs(pivot) or 1.0)}


#: rows no single operand flips alone at the committed values: the push
#: that breaks them takes a tighter row on the same operand down too
#: (Pravega at 2x the LTS rate is also far below 0.95x Kafka; zero base
#: crashes is also fewer than the favorable configuration's one; an
#: LTS-op cut under 4x is also under 10x)
DOMINATED = {
    "fig07b.parallel_flushes_lift_cap", "fig10b.base_pulsar_unstable", "replay.ops_cut_4x",
}


def _push_past_threshold(row):
    """Mutation of a report: one operand of ``row`` goes just past its
    threshold, and exactly that row flips."""
    def mutate(report):
        metrics = claims.records(report)[row.scenario]["metrics"]
        flat = claims.view(metrics)
        pushes = [
            (edit, [v["id"] for v in claims.evaluate(row.scenario, {**flat, **edit})
                    if not v["ok"]])
            for edit in _pushes(row.predicate, flat)
        ]
        alone = [edit for edit, flipped in pushes if flipped == [row.id]]
        assert bool(alone) != (row.id in DOMINATED), (row.id, pushes)
        edit = alone[0] if alone else next(e for e, f in pushes if row.id in f)
        for path, value in edit.items():
            _set(metrics, path, value)

    return mutate


FILES = sorted(f"BENCH_{name}.json" for name in harness.BENCHES)


def _file_of(scenario):
    """The committed file a row is pushed in: the one recording its scenario."""
    return next(f for f in FILES if scenario in _names(f))


#: (file, mutation, fragment of claims.check's message): per file, one
#: of the scenarios its owner defines goes unrecorded; then every row of
#: the claims table, in the file recording its scenario
BROKEN_CLAIMS = [
    pytest.param(fname, lambda r: r["scenarios"].pop(), ": not recorded", id=fname)
    for fname in FILES
] + [
    pytest.param(_file_of(row.scenario), _push_past_threshold(row), row.statement, id=row.id)
    for row in claims.CLAIMS
]


def test_every_committed_file_has_a_perturbation(committed):
    assert {param.values[0] for param in BROKEN_CLAIMS} == set(committed)


@pytest.mark.parametrize("fname, mutate, fragment", BROKEN_CLAIMS)
def test_gate_reports_the_owning_benchs_message(committed, fname, mutate, fragment):
    _assert_gate_repeats_the_check(committed, fname, mutate, fragment)


def test_the_probes_one_check_per_file_catches(committed):
    # a file without one of its scenarios (a kernel file without
    # mini_workload, a suite file without fig10a and its 14 rows) and a
    # metric past a documented bound (a replay that saves no LTS fetch)
    # are drifts
    def drop(name):
        return lambda r: r.update(scenarios=[s for s in r["scenarios"] if s["name"] != name])

    def no_fetch_saved(report):
        claims.records(report)["replay"]["metrics"]["lts_ops_ratio"] = 1.0

    for fname, mutate, message in (
        ("BENCH_kernel.json", drop("mini_workload"), "mini_workload: not recorded"),
        ("BENCH_suite.json", drop("fig10a"), "fig10a: not recorded"),
        ("BENCH_read.json", no_fetch_saved, "replay: claim failed: replay.ops_cut_4x"),
    ):
        files = copy.deepcopy(committed)
        mutate(files[fname])
        messages = [d.message for d in structure_checks(files) if d.file == fname]
        assert any(m.startswith(message) for m in messages), (fname, messages)


def test_every_file_carries_the_run_manifest(committed):
    for fname, report in committed.items():
        assert set(claims.MANIFEST) <= set(report["manifest"]), fname
        files = copy.deepcopy(committed)
        files[fname]["manifest"].pop("cpu_count")
        assert [d.message for d in structure_checks(files)] == [
            "manifest: lacks ['cpu_count']"
        ]
    # a `run --check` smoke writes nothing and may run outside a git
    # checkout; a full run's file, and every committed one, names its commit
    report = copy.deepcopy(committed["BENCH_read.json"])
    report["manifest"]["git_sha"] = None
    names = harness.scenario_names("read")
    assert claims.check(report, names) == ["manifest: lacks ['git_sha']"]
    assert not [p for p in claims.check(report, names, full=False) if "manifest" in p]


def test_structure_check_rejects_failed_suite_scenario(committed):
    def stale_verdicts(report):  # the table moved on, the file did not
        report["scenarios"][0]["claims"][0]["margin"] += 0.25

    for mutate, fragment in (
        # a scenario recorded not ok whose rows all hold
        (lambda r: claims.records(r)["table1"].update(ok=False, error="KeyError: 'x'"),
         "table1: not ok (KeyError: 'x')"),
        # a claim row that failed when the scenario ran is still failed
        # when the gate re-evaluates the committed metrics
        (lambda r: claims.records(r)["fig12"]["metrics"].update(pravega_caught_up=False),
         "claim failed: fig12.pravega_catches_up: Pravega catches up"),
        (stale_verdicts, "recorded claims are not what the claims table says"),
    ):
        _assert_gate_repeats_the_check(committed, "BENCH_suite.json", mutate, fragment)
    # a scenario that died before it had metrics to evaluate: its
    # exception is the one message, not a failure per row it could not read
    files = copy.deepcopy(committed)
    claims.records(files["BENCH_suite.json"])["table1"].update(
        ok=False, error="ZeroDivisionError: division by zero", metrics={}, claims=[],
    )
    assert [d.message for d in structure_checks(files)] == [
        "table1: not ok (ZeroDivisionError: division by zero)"
    ]
    # a metric a row reads has gone missing: the row fails, not the gate
    files = copy.deepcopy(committed)
    del claims.records(files["BENCH_suite.json"])["fig05a"]["metrics"]["kafka_flush_max_eps"]
    unread, failed, stale = [d.message for d in structure_checks(files)]
    assert unread == (
        "fig05a: fig05a.kafka_flush_collapses cannot read its operand "
        "(KeyError: 'kafka_flush_max_eps')"
    )
    assert failed.startswith("fig05a: claim failed: fig05a.kafka_flush_collapses: ")
    assert failed.endswith("(margin 0)")
    assert stale.startswith("fig05a: recorded claims are not what the claims table says")


def test_a_null_measurement_fails_its_row_instead_of_crashing(committed):
    # a replay whose simulated clock went unrecorded records sim_time_s =
    # null: the run still writes its record, and the gate names the row
    # and the operand
    metrics = copy.deepcopy(claims.records(committed["BENCH_read.json"])["replay"]["metrics"])
    metrics["on"]["sim_time_s"] = None
    record = harness.record("replay", metrics)
    assert [v for v in record["claims"] if not v["ok"]] == [
        {"id": "replay.on_recorded", "ok": False, "margin": 0.0}
    ]
    report = {"manifest": harness.manifest(), "scenarios": [record]}
    unread, failed = claims.check(report, ["replay"])
    assert unread == (
        "replay: replay.on_recorded cannot read its operand (KeyError: 'on.sim_time_s')"
    )
    assert "coalescing on: the replay records the fields a re-run is compared on" in failed
    _assert_gate_repeats_the_check(
        committed, "BENCH_suite.json",
        lambda r: claims.records(r)["fig05c"]["metrics"].update(pravega_noflush_eps=None),
        "claim failed: fig05c.noflush_gain_modest",
    )


def test_a_wrongly_shaped_file_is_a_drift_not_a_crash(committed):
    for fname, mutate, fragment in (
        # the layout the kernel file once had: scenarios keyed by name
        ("BENCH_kernel.json",
         lambda r: r.update(scenarios={s["name"]: s for s in r["scenarios"]}),
         "no scenario recorded"),
        ("BENCH_suite.json", lambda r: r.update(manifest=["git_sha"]),
         "malformed report: AttributeError"),
        ("BENCH_read.json", lambda r: claims.records(r)["replay"].update(metrics=3),
         "malformed report: TypeError"),
    ):
        _assert_gate_repeats_the_check(committed, fname, mutate, fragment)
    files = copy.deepcopy(committed)
    files["BENCH_suite.json"] = []
    assert [d.message for d in structure_checks(files)] == [
        "malformed report: AttributeError: 'list' object has no attribute 'get'"
    ]


def test_kernel_gc_collections_are_contracted_but_never_compared(committed):
    # How often the collector ran belongs to the interpreter process, not
    # to the simulation: a fresh run may report any counts ...
    base = claims.records(committed["BENCH_kernel.json"])["mini_workload"]
    fresh = copy.deepcopy(base)
    fresh["metrics"]["gc_collections"] = [n + 17 for n in base["metrics"]["gc_collections"]]
    assert compare("BENCH_kernel.json", "mini_workload", base, fresh) == []
    # ... but it must report them,
    del fresh["metrics"]["gc_collections"]
    drifts = compare("BENCH_kernel.json", "mini_workload", base, fresh)
    assert [(d.kind, d.path) for d in drifts] == [
        ("missing", "mini_workload.metrics.gc_collections")
    ]
    # ... and the committed record must hold three non-negative ints.
    for broken in ([1, 2], [1, 2, -1], [1.0, 2, 3], [True, 2, 3], [1, 2, 3, 4], None, "1/2/3"):
        _assert_gate_repeats_the_check(
            committed, "BENCH_kernel.json",
            lambda r: claims.records(r)["cancel_storm"]["metrics"].update(gc_collections=broken),
            "cancel_storm: claim failed: cancel_storm.gc_counted",
        )
    _assert_gate_repeats_the_check(
        committed, "BENCH_kernel.json",
        lambda r: claims.records(r)["timeout_churn"]["metrics"].pop("gc_collections"),
        "timeout_churn: claim failed: timeout_churn.gc_counted",
    )
    # The scenario's simulated counters stay exact beside it.
    fresh = copy.deepcopy(base)
    fresh["metrics"]["stats"]["events_executed"] += 1
    assert [d.kind for d in compare("BENCH_kernel.json", "s", base, fresh)] == ["exact"]


def test_structure_check_rejects_uncontracted_file(committed):
    # a new or renamed bench file must not be "guarded" by nothing: the
    # owned files are a table, an unowned one is a set difference
    files = copy.deepcopy(committed)
    files["BENCH_bogus.json"] = {}
    drifts = structure_checks(files)
    assert [d.file for d in drifts] == ["BENCH_bogus.json"]
    assert drifts[0].kind == "structure"
    assert set(committed) == {f"BENCH_{name}.json" for name in harness.BENCHES}


def test_gate_fails_end_to_end_on_perturbed_copy(tmp_path, committed):
    for fname, report in committed.items():
        bad = copy.deepcopy(report)
        if fname == "BENCH_suite.json":
            claims.records(bad)["fig12"]["metrics"]["pravega_caught_up"] = False
        (tmp_path / fname).write_text(json.dumps(bad))
    report = run_gate(tmp_path, smoke="none")
    assert not report.ok
    # the structured diff names the file and quotes the claim row (the
    # committed verdict, taken when Pravega caught up, is now stale)
    failed, stale = report.drifts
    assert {failed.file, stale.file} == {"BENCH_suite.json"}
    assert {failed.kind, stale.kind} == {"structure"}
    assert "claim failed: fig12.pravega_catches_up: Pravega catches up" in failed.message


def test_smoke_rerun_reports_unknown_and_uncommitted_scenarios(committed):
    report = run_gate(REPO_ROOT, smoke="suite:no_such_scenario,kernel,nofamily:x")
    assert [(d.file, d.kind) for d in report.drifts] == [
        ("BENCH_suite.json", "missing"),
        ("(gate)", "structure"),
    ]
    # a family named without scenarios re-runs its default one
    kernel = report.smoke[1]
    assert (kernel["check"], kernel["scenarios"], kernel["drifts"]) == (
        "kernel", ["timeout_churn"], 0,
    )


# ----------------------------------------------------------------------
# (b'') the one driver: `python -m repro.bench run <name> --check`
# ----------------------------------------------------------------------
@pytest.mark.perf
@pytest.mark.parametrize("name", ["kernel", "read"])
def test_run_check_exits_zero(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "run", name, "--check"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, f"{proc.stdout}\n{proc.stderr}"
    assert f"{name}: ok" in proc.stdout


def test_run_rejects_an_unknown_scenario(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_main(["run", "kernel", "--check", "--scenario", "no_such"])
    assert exc.value.code == 2
    assert "unknown scenario 'no_such'" in capsys.readouterr().err


def test_run_check_rejects_a_scenario_without_a_check_variant(capsys):
    # naming a scenario --check cannot run is a usage error, not an empty `ok`
    # (a figure has no smoke variant), also when named beside one
    for wanted, smokeless in (
        ("fig05a", ["fig05a"]),
        ("smoke_kafka,fig05c", ["fig05c"]),
    ):
        with pytest.raises(SystemExit) as exc:
            bench_main(["run", "suite", "--check", "--scenario", wanted])
        assert exc.value.code == 2
        assert f"scenario(s) {smokeless!r}" in capsys.readouterr().err
    # and a report that recorded nothing is never ok
    assert claims.check({"manifest": harness.manifest()}, []) == ["no scenario recorded"]

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
    nan = float("nan")
    assert compare("f", "s", {"m": nan}, {"m": nan}) == []
    assert compare("f", "s", {"wall_s": nan}, {"wall_s": nan}) == []
    # every comparison with NaN is False: against a number it is a drift
    # in either direction, on a metric and on a wall field alike
    for field, kind in (("m", "exact"), ("wall_s", "wall")):
        for committed, fresh in ((1.0, nan), (nan, 1.0)):
            drifts = compare("f", "p", {field: committed}, {field: fresh})
            assert [(d.kind, d.path) for d in drifts] == [(kind, f"p.{field}")]
    assert compare("f", "p", {"m": 1.0}, {"m": nan}, overrides=[("m", 0.5)])


# ----------------------------------------------------------------------
# (d) the claim vocabulary: the margin's sign is the verdict, and the
# margin moves with the operand
# ----------------------------------------------------------------------
_MAGNITUDE = st.floats(min_value=1e-3, max_value=1e9)


@given(
    op=st.sampled_from([">", ">=", "<", "<="]),
    a=_MAGNITUDE, b=_MAGNITUDE, k=st.floats(min_value=0.05, max_value=20.0),
    step=_MAGNITUDE, b_is_metric=st.booleans(),
)
def test_margin_sign_is_the_verdict_and_margin_is_monotone(op, a, b, k, step, b_is_metric):
    predicate = claims.Compare("a", op, "b" if b_is_metric else b, k)
    ok, margin = predicate({"a": a, "b": b})
    # ok <=> margin >= 0; on the threshold itself strictness decides
    assert ok == (margin > 0 or (margin == 0 and op in (">=", "<=")))
    assert (margin == 0) == (a == k * b)
    _, moved = predicate({"a": a + step, "b": b})
    assert moved >= margin if op[0] == ">" else moved <= margin
    # `both` is as strong as its weakest part; an equality is all or nothing
    held = claims.equal("a", a)
    assert held({"a": a}) == (True, 1.0) and held({"a": a + step}) == (False, 0.0)
    assert claims.both(predicate, held)({"a": a, "b": b}) == (ok, min(margin, 1.0))


def test_margin_is_absolute_against_a_zero_threshold():
    assert claims.gt("a", 0)({"a": 2.5}) == (True, 2.5)
    assert claims.gt("a", 0)({"a": 0}) == (False, 0)
    assert claims.ge("a", 0)({"a": 0}) == (True, 0)
    assert claims.between("a", 1.0, 3.0)({"a": 2.5}) == (True, (3.0 - 2.5) / 3.0)
