"""Regression-gate self-tests: the gate's teeth, demonstrated.

(a) the gate passes on the repo's committed BENCH_*.json files;
(b) it fails with the *right* structured diff when wall-time,
    kernel-event and figure-metric fields are synthetically perturbed,
    and with the owning bench's own message when a claim is broken —
    for the figure suite, every row of ``repro.bench.claims``;
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
from repro.bench.suite import records as suite_records
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
    return suite_records(files["BENCH_suite.json"])[name]


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


# ----------------------------------------------------------------------
# (b') a broken claim in a committed file: the gate repeats, word for
# word, what the owning bench's check_claims says — it states no claim
# of its own about any single file
# ----------------------------------------------------------------------
def _assert_gate_repeats_the_bench(committed, fname, mutate, fragment):
    files = copy.deepcopy(committed)
    mutate(files[fname])
    expected = harness.owner(fname).check_claims(files[fname])
    assert any(fragment in message for message in expected), expected
    assert [
        (d.kind, d.message) for d in structure_checks(files) if d.file == fname
    ] == [("structure", message) for message in expected]


def _first(points, **match):
    return next(p for p in points if all(p[k] == v for k, v in match.items()))


def _pushes(predicate, metrics):
    """Single-operand edits of ``metrics`` that push ``predicate`` just
    past its threshold."""
    if isinstance(predicate, claims.Both):
        for part in predicate.parts:
            yield from _pushes(part, metrics)
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
#: crashes is also fewer than the favorable configuration's one)
DOMINATED = {"fig07b.parallel_flushes_lift_cap", "fig10b.base_pulsar_unstable"}


def _push_past_threshold(row):
    """Mutation of a suite report: one operand of ``row`` goes just past
    its threshold, and exactly that row flips."""
    def mutate(report):
        metrics = suite_records(report)[row.scenario]["metrics"]
        pushes = [
            (edit, [v["id"] for v in claims.evaluate(row.scenario, {**metrics, **edit})
                    if not v["ok"]])
            for edit in _pushes(row.predicate, metrics)
        ]
        alone = [edit for edit, flipped in pushes if flipped == [row.id]]
        assert bool(alone) != (row.id in DOMINATED), (row.id, pushes)
        metrics.update(alone[0] if alone else next(e for e, f in pushes if row.id in f))

    return mutate


#: (file, mutation, fragment of the owning bench's message): one broken
#: claim per committed file, then every row of the figure-claims table
BROKEN_CLAIMS = [
    pytest.param(fname, mutate, fragment, id=fname)
    for fname, mutate, fragment in (
        # a before/after wall pair is only a pair at identical event counts
        ("BENCH_kernel.json",
         lambda r: r["baseline"]["scenarios"]["ping_pong_sliced"].update(events=1),
         "baseline.ping_pong_sliced"),
        ("BENCH_scale.json", lambda r: r["scenarios"].clear(), "no scale scenarios"),
        # a scenario that died before it had metrics to evaluate
        ("BENCH_suite.json",
         lambda r: r["scenarios"][0].update(ok=False, error="KeyError: 'x'"),
         "not ok (KeyError: 'x')"),
        ("BENCH_workload.json", lambda r: r.update(scenarios=[]), "no suite scenarios"),
        ("BENCH_capacity.json",
         lambda r: r["points"][0].update(confirmed=False), "not discrete-confirmed"),
        # a lost acked write in global-strong mode
        ("BENCH_geo.json",
         lambda r: _first(r["points"], mode="global_strong").update(rpo_bytes=120),
         "nonzero RPO"),
        # coalescing must not change the bytes readers observe
        ("BENCH_read.json",
         lambda r: r["replay"]["on"].update(delivered_bytes=1),
         "changed delivered bytes"),
    )
] + [
    pytest.param("BENCH_suite.json", _push_past_threshold(row), row.statement, id=row.id)
    for row in claims.CLAIMS
]


def test_every_committed_file_has_a_perturbation(committed):
    assert {param.values[0] for param in BROKEN_CLAIMS} == set(committed)


@pytest.mark.parametrize("fname, mutate, fragment", BROKEN_CLAIMS)
def test_gate_reports_the_owning_benchs_message(committed, fname, mutate, fragment):
    _assert_gate_repeats_the_bench(committed, fname, mutate, fragment)


def test_structure_check_rejects_thin_or_unconfirmed_capacity(committed):
    for mutate, fragment in (
        (lambda r: r.update(points=r["points"][:2]), "2 capacity points"),
        (lambda r: r["points"][0].update(converged=False), "did not converge"),
    ):
        _assert_gate_repeats_the_bench(committed, "BENCH_capacity.json", mutate, fragment)


def test_structure_check_rejects_failed_suite_scenario(committed):
    def stale_verdicts(report):  # the table moved on, the file did not
        report["scenarios"][0]["claims"][0]["margin"] += 0.25

    for mutate, fragment in (
        # a claim row that failed when the scenario ran is still failed
        # when the gate re-evaluates the committed metrics
        (lambda r: suite_records(r)["fig12"]["metrics"].update(pravega_caught_up=False),
         "claim failed: fig12.pravega_catches_up: Pravega catches up"),
        (stale_verdicts, "recorded claims are not what the claims table says"),
    ):
        _assert_gate_repeats_the_bench(committed, "BENCH_suite.json", mutate, fragment)
    # a metric a row reads has gone missing: a malformed report, not a crash
    files = copy.deepcopy(committed)
    del suite_records(files["BENCH_suite.json"])["fig05a"]["metrics"]["kafka_flush_max_eps"]
    assert [d.message for d in structure_checks(files)] == [
        "malformed report: KeyError: 'kafka_flush_max_eps'"
    ]


def test_structure_check_rejects_bad_geo_points(committed):
    for mutate, fragment in (
        # admission lag over the configured staleness bound
        (lambda r: _first(r["points"], mode="async").update(max_lag_at_admission=10**9),
         "exceeds bound"),
        # a point that never measured failover recovery
        (lambda r: r["points"][0].update(rto_s=None), "never recovered"),
        # a point that lost the field a claim reads
        (lambda r: r["points"][0].pop("availability"), "lacks ['availability']"),
        # a thinned sweep (fewer than 2 modes x 3 tiers)
        (lambda r: r.update(points=r["points"][:4]), "4 geo points"),
    ):
        _assert_gate_repeats_the_bench(committed, "BENCH_geo.json", mutate, fragment)


def test_structure_check_rejects_bad_kernel_baseline(committed):
    # ... and says which commit and which box it was measured on
    for mutate, fragment in (
        (lambda r: r["baseline"].pop("commit"), "baseline: no commit"),
        (lambda r: r.pop("cpu_count"), "cpu_count"),
        (lambda r: r["scenarios"]["ping_pong"].pop("stats"), "lacks events + stats"),
    ):
        _assert_gate_repeats_the_bench(committed, "BENCH_kernel.json", mutate, fragment)


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
        _assert_gate_repeats_the_bench(
            committed, "BENCH_kernel.json",
            lambda r: r["scenarios"]["cancel_storm"].update(gc_collections=broken),
            "cancel_storm: gc_collections",
        )
    _assert_gate_repeats_the_bench(
        committed, "BENCH_kernel.json",
        lambda r: r["scenarios"]["timeout_churn"].pop("gc_collections"),
        "timeout_churn: gc_collections None",
    )
    # The scenario's simulated counters stay exact beside it.
    fresh = copy.deepcopy(base)
    fresh["stats"]["events_executed"] += 1
    assert [d.kind for d in compare("BENCH_kernel.json", "s", base, fresh)] == ["exact"]


def test_structure_check_rejects_bad_read_report(committed):
    def no_mass_fanout(report):  # every point dropped below 1000 readers
        for point in report["fanout"]["points"]:
            point["events"] = point["events"] * point["readers"] // 100
            point["readers"] = 100

    for mutate, fragment in (
        (no_mass_fanout, "no >=1000-reader"),
        # coalescing that *increases* LTS ops is a broken single-flight
        (lambda r: r["replay"]["on"].update(lts_fetch_ops=10**6), "increased LTS ops"),
        # a hit rate outside [0, 1] is a broken counter
        (lambda r: r["policies"]["generation/always"].update(hit_rate=1.2), "outside [0,1]"),
        # determinism fields must be recorded for re-run comparison
        (lambda r: r["fanout"]["points"][0].pop("kernel_events"), "no kernel_events"),
        # a fan-out point whose readers never drained the backlog
        (lambda r: r["fanout"]["points"][0].update(caught_up=False), "not caught up"),
        (lambda r: r.pop("seed"), "no seed"),
    ):
        _assert_gate_repeats_the_bench(committed, "BENCH_read.json", mutate, fragment)
    # a record missing altogether is a malformed report, not a gate crash
    files = copy.deepcopy(committed)
    del files["BENCH_read.json"]["replay"]["on"]
    assert [d.message for d in structure_checks(files)] == [
        "malformed report: KeyError: 'on'"
    ]


def test_structure_check_rejects_uncontracted_file(committed):
    # a new or renamed bench file must not be "guarded" by nothing: the
    # owned files are a table, an unowned one is a set difference
    files = copy.deepcopy(committed)
    files["BENCH_bogus.json"] = {}
    drifts = structure_checks(files)
    assert [d.file for d in drifts] == ["BENCH_bogus.json"]
    assert drifts[0].kind == "structure"
    assert set(committed) == {f"BENCH_{name}.json" for name in harness.OWNERS}


def test_cross_file_disagreement_is_reported(committed):
    files = copy.deepcopy(committed)
    files["BENCH_workload.json"]["scenarios"][0]["kernel_events"] += 1
    # keep the suite's twin untouched: the two files now disagree
    drifts = structure_checks(files)
    assert [(d.file, d.path) for d in drifts] == [
        ("BENCH_workload.json", "workload_diurnal.kernel_events")
    ]


def test_gate_fails_end_to_end_on_perturbed_copy(tmp_path, committed):
    for fname, report in committed.items():
        bad = copy.deepcopy(report)
        if fname == "BENCH_capacity.json":
            bad["points"][0]["confirmed"] = False
        (tmp_path / fname).write_text(json.dumps(bad))
    report = run_gate(tmp_path, smoke="none")
    assert not report.ok
    # the structured diff names the file and quotes the bench's claim
    (drift,) = report.drifts
    assert drift.file == "BENCH_capacity.json"
    assert drift.kind == "structure"
    assert "not discrete-confirmed" in drift.message


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
        harness.main(["kernel", "--check", "--scenario", "no_such"])
    assert exc.value.code == 2
    assert "unknown scenario(s) ['no_such']" in capsys.readouterr().err


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
