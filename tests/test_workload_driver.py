"""End-to-end workload driver tests: auto-scaling under a diurnal
pattern, multi-tenant determinism, pattern-aware backpressure caps and
fault scheduling, and the bench driver's scenario selection."""

import pytest

from repro.bench import PravegaAdapter, WorkloadSpec, harness
from repro.faults import FaultPlan
from repro.pravega import ScalingPolicy
from repro.sim import Simulator
from repro.workload import (
    Constant,
    Diurnal,
    FlashCrowd,
    MMPP,
    SloSpec,
    TenantSpec,
    correlate_scale_events,
    fault_at_peak,
    run_tenants,
)


# ----------------------------------------------------------------------
# Auto-scaling across one day/night cycle (fast tier-1 variant of the
# bench_workload diurnal figure: smaller rates, coarser tick)
# ----------------------------------------------------------------------
@pytest.mark.workload
def test_diurnal_splits_during_peak_and_merges_in_trough():
    pattern = Diurnal(trough_eps=200.0, peak_eps=2000.0, period=40.0)
    sim = Simulator()
    adapter = PravegaAdapter(sim)
    tenant = TenantSpec(
        "cycle",
        WorkloadSpec(
            event_size=100,
            partitions=1,
            key_mode="none",  # keyless writes spread over live segments
            duration=42.0,
            warmup=1.0,
            tick=0.02,
            arrival=pattern,
            seed=7,
        ),
        slo=SloSpec(p99_latency=0.100),
        scaling=ScalingPolicy.by_event_rate(600, min_segments=1),
    )
    run = run_tenants(sim, adapter, [tenant])
    correlation = correlate_scale_events(
        adapter.cluster.controller.scale_events,
        pattern,
        run.epoch,
        43.0,
        stream="bench/cycle",
    )
    # The controller split while the sinusoid climbed through the peak...
    assert correlation["scale_up"] >= 1, correlation
    assert correlation["scale_up_above_mean"] >= 1, correlation
    # ...and merged segments back on the way down into the trough.
    assert correlation["scale_down"] >= 1, correlation
    # Traffic was carried throughout.
    assert run.slo["cycle"]["availability"] >= 0.99
    assert not run.results["cycle"].crashed


# ----------------------------------------------------------------------
# Determinism: identical seeds => identical runs
# ----------------------------------------------------------------------
def _tiny_multi_tenant_run():
    sim = Simulator()
    adapter = PravegaAdapter(sim)
    window = dict(duration=2.0, warmup=0.5)
    tenants = [
        TenantSpec("a", WorkloadSpec(
            arrival=Constant(1500.0), partitions=2, consumers=1, seed=1, **window
        )),
        TenantSpec("b", WorkloadSpec(
            arrival=MMPP(rates_eps=(500.0, 3000.0), mean_dwell=(2.0, 1.0)),
            partitions=1,
            seed=2,
            **window,
        )),
    ]
    run = run_tenants(sim, adapter, tenants)
    signature = {}
    for name, result in run.results.items():
        signature[name] = {
            "produce_rate": result.produce_rate,
            "consume_rate": result.consume_rate,
            "extra": dict(result.extra),
            "events": sim._events_executed,
        }
    return signature


@pytest.mark.workload
def test_multi_tenant_runs_are_bit_identical():
    assert _tiny_multi_tenant_run() == _tiny_multi_tenant_run()


def test_run_tenants_rejects_disagreeing_windows():
    # one SLO window is shared by every tenant, so they must agree on it
    sim = Simulator()
    tenants = [
        TenantSpec("a", WorkloadSpec(duration=2.0, warmup=0.5)),
        TenantSpec("b", WorkloadSpec(duration=3.0, warmup=0.5)),
    ]
    with pytest.raises(ValueError, match="warmup, duration"):
        run_tenants(sim, PravegaAdapter(sim), tenants)
    assert sim.now == 0.0  # refused before provisioning anything


def test_tenant_with_bad_workload_fails_at_construction():
    with pytest.raises(ValueError, match="producers"):
        TenantSpec("a", WorkloadSpec(producers=0))


# ----------------------------------------------------------------------
# Pattern-aware spec defaults
# ----------------------------------------------------------------------
def test_backlog_cap_scales_with_pattern_peak():
    flat = WorkloadSpec(target_rate=1_000.0)
    assert flat.peak_rate == 1_000.0
    assert flat.effective_backlog_cap == 1_000.0 * 2.0 + 10_000

    spiky = WorkloadSpec(
        target_rate=1_000.0,
        arrival=FlashCrowd(base_eps=1_000.0, spike_eps=8_000.0, at=10.0),
    )
    # The cap follows the pattern's *peak*, not the baseline: a flash
    # crowd must not be silently clipped by a cap sized for the trough.
    assert spiky.peak_rate == 8_000.0
    assert spiky.effective_backlog_cap == 8_000.0 * 2.0 + 10_000

    pinned = WorkloadSpec(target_rate=1_000.0, backlog_cap=500.0)
    assert pinned.effective_backlog_cap == 500.0


def test_load_timeout_override():
    spec = WorkloadSpec(duration=10.0, warmup=1.0)
    assert spec.effective_load_timeout == 1.0 + 10.0 * 20 + 600


@pytest.mark.parametrize(
    "field, value",
    [
        ("tick", 0), ("tick", -0.01), ("producers", 0), ("partitions", 0),
        ("bench_hosts", 0), ("event_size", 0), ("consumers", -1),
        ("key_mode", "ranodm"),
    ],
)
def test_bad_spec_fails_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        WorkloadSpec(**{field: value})


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (SloSpec, "p99_latency", 0.0), (SloSpec, "availability", 0.0),
        (SloSpec, "availability", 1.5),
    ],
)
def test_bad_slo_config_fails_at_construction(cls, field, value):
    # unchecked, p99_latency=0 fails every window that saw traffic, and
    # an availability outside (0, 1] is no fraction of acked events
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})


# ----------------------------------------------------------------------
# Fault composition: fault-under-burst
# ----------------------------------------------------------------------
def test_fault_at_peak_schedules_at_pattern_peak():
    pattern = FlashCrowd(base_eps=100.0, spike_eps=900.0, at=12.0, rise=2.0, hold=6.0)
    plan = FaultPlan(seed=3)
    fault_at_peak(plan, pattern, "crash_restart", "broker-0", horizon=40.0, downtime=2.0)
    fault_at_peak(plan, pattern, "crash", "broker-1", horizon=40.0, offset=-1.0)
    assert len(plan.rules) == 2
    peak = pattern.peak_time(0.0, 40.0)
    assert pattern.rate(peak) == pytest.approx(900.0)
    assert plan.rules[0].at == pytest.approx(peak)
    assert plan.rules[0].downtime == 2.0
    assert plan.rules[1].at == pytest.approx(peak - 1.0)


# ----------------------------------------------------------------------
# Scenario selection (`run <bench> --scenario`, every bench)
# ----------------------------------------------------------------------
def test_expand_selection_exact_and_prefix():
    suite = harness.load("suite")
    assert harness.select(suite, ["fig10a"]) == ["fig10a"]
    assert harness.select(suite, ["fig10"]) == ["fig10a", "fig10b"]
    assert harness.select(suite, ["workload"]) == [
        "workload_diurnal", "workload_flash", "workload_slo",
    ]
    # duplicates collapse, order is the registry's; tokens are
    # comma-separated and the flag repeatable
    assert harness.select(suite, ["fig10b,fig10", "fig10a"]) == ["fig10a", "fig10b"]
    # an exact name wins over the prefix it also is
    kernel = harness.load("kernel")
    assert harness.select(kernel, ["ping_pong"]) == ["ping_pong"]
    assert harness.select(kernel, ["mini"]) == ["mini_workload", "mini_tracer_off"]
    assert harness.select(kernel, []) == [row[0] for row in kernel.SCENARIOS]


def test_expand_selection_rejects_unknown():
    suite = harness.load("suite")
    with pytest.raises(ValueError, match="unknown scenario 'not_a_scenario'"):
        harness.select(suite, ["fig10,not_a_scenario"])
    with pytest.raises(ValueError, match="the selection is empty"):
        harness.select(suite, [" , "])
