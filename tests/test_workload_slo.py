"""SLO engine unit tests: windowed accounting, error budgets, burn rate."""

import math

import pytest

from repro.bench.adapters import PravegaAdapter
from repro.bench.runner import WorkloadSpec, run_probe
from repro.sim import Simulator
from repro.workload import (
    SloSpec,
    SloTracker,
    capacity_report,
    saturation_margin,
    sustainable_verdict,
)


def make_tracker(**kw):
    spec_kw = {}
    for key in ("p99_latency", "availability"):
        if key in kw:
            spec_kw[key] = kw.pop(key)
    spec = SloSpec(**spec_kw)
    start = kw.pop("start", 0.0)
    end = kw.pop("end", 10.0)
    assert not kw
    return SloTracker(spec, start, end)


def test_perfect_run_meets_slo():
    tracker = make_tracker(p99_latency=0.050)
    for second in range(10):
        t = second + 0.1
        tracker.on_sent(t, 100)
        tracker.on_ack(t, 100, latency=0.005, ok=True)
    report = tracker.report()
    assert report["offered"] == 1_000
    assert report["acked"] == 1_000
    assert report["availability"] == 1.0
    assert report["burn_rate"] == 0.0
    assert report["budget_remaining"] == 1.0
    assert report["latency_compliance"] == 1.0
    assert report["windows"] == 10.0
    assert report["ok"] == 1.0


def test_availability_and_burn_rate_math():
    # 99.9% target => 0.1% error budget.  2 failures out of 1000 is a
    # bad-fraction of 0.002 => burn rate 2.0, budget fully consumed.
    tracker = make_tracker(availability=0.999, end=1.0)
    tracker.on_sent(0.5, 1_000)
    tracker.on_ack(0.5, 998, latency=0.001, ok=True)
    tracker.on_ack(0.5, 2, latency=0.0, ok=False)
    report = tracker.report()
    assert report["availability"] == pytest.approx(0.998)
    assert report["burn_rate"] == pytest.approx(2.0)
    assert report["budget_remaining"] == 0.0
    assert report["ok"] == 0.0


def test_unacked_events_count_against_budget():
    # Offered but never acknowledged (stuck in queues at run end) is an
    # availability miss — the open-loop driver owes every offered event.
    tracker = make_tracker(end=1.0)
    tracker.on_sent(0.2, 100)
    tracker.on_ack(0.2, 90, latency=0.001, ok=True)
    report = tracker.report()
    assert report["offered"] == 100
    assert report["acked"] == 90
    assert report["availability"] == pytest.approx(0.9)


def test_latency_attribution_by_send_time():
    # An ack arriving after a window closes still charges the window the
    # event was *sent* in (send-time attribution).
    tracker = make_tracker(p99_latency=0.010, end=2.0)
    tracker.on_sent(0.5, 10)
    tracker.on_sent(1.5, 10)
    # Window 0 events ack late AND slow; window 1 events are fast.
    tracker.on_ack(0.5, 10, latency=1.2, ok=True)
    tracker.on_ack(1.5, 10, latency=0.001, ok=True)
    report = tracker.report()
    assert report["windows"] == 2.0
    assert report["latency_bad_windows"] == 1.0
    assert report["latency_compliance"] == pytest.approx(0.5)
    assert report["worst_window_p99"] == pytest.approx(1.2)


def test_sent_but_never_acked_window_is_infinitely_slow():
    tracker = make_tracker(end=2.0)
    tracker.on_sent(0.5, 10)
    tracker.on_ack(0.5, 10, latency=0.001, ok=True)
    tracker.on_sent(1.5, 10)  # nothing ever acks in window 1
    report = tracker.report()
    assert math.isinf(report["worst_window_p99"])
    assert report["latency_bad_windows"] == 1.0


def test_events_outside_measurement_interval_ignored():
    tracker = make_tracker(start=5.0, end=10.0)
    tracker.on_sent(4.0, 100)  # warmup
    tracker.on_ack(4.0, 100, latency=0.5, ok=True)
    tracker.on_sent(12.0, 100)  # cooldown
    tracker.on_sent(6.0, 50)
    tracker.on_ack(6.0, 50, latency=0.001, ok=True)
    report = tracker.report()
    assert report["offered"] == 50
    assert report["acked"] == 50
    assert report["latency_compliance"] == 1.0


def test_latency_compliance_threshold():
    # 10 windows, 2 slow => 80% compliance < 95% target => SLO not met
    # even though availability is perfect.
    tracker = make_tracker(p99_latency=0.010)  # 95% compliance required
    for second in range(10):
        slow = second in (3, 7)
        tracker.on_sent(second + 0.5, 100)
        tracker.on_ack(second + 0.5, 100, latency=0.5 if slow else 0.001, ok=True)
    report = tracker.report()
    assert report["availability"] == 1.0
    assert report["latency_compliance"] == pytest.approx(0.8)
    assert report["ok"] == 0.0


def test_read_keys_absent_without_read_target():
    # The report is the write SLO's: no read keys.
    tracker = make_tracker(end=1.0)
    tracker.on_sent(0.5, 10)
    tracker.on_ack(0.5, 10, latency=0.001, ok=True)
    report = tracker.report()
    assert "delivered" not in report
    assert not any(key.startswith("read_") for key in report)
    assert "worst_window_read_p99" not in report
    assert report["ok"] == 1.0


def test_emit_prefixes_into_extra():
    tracker = make_tracker(end=1.0)
    tracker.on_sent(0.5, 10)
    tracker.on_ack(0.5, 10, latency=0.001, ok=True)
    extra = {}
    tracker.emit(extra)
    assert extra["slo.availability"] == 1.0
    assert extra["slo.ok"] == 1.0
    assert all(isinstance(v, float) for v in extra.values())


def test_capacity_report_ranks_tenants():
    reports = {
        "healthy": {
            "offered": 1_000.0,
            "acked": 1_000.0,
            "burn_rate": 0.0,
            "latency_compliance": 1.0,
            "ok": 1.0,
        },
        "burning": {
            "offered": 1_000.0,
            "acked": 950.0,
            "burn_rate": 50.0,
            "latency_compliance": 0.5,
            "ok": 0.0,
        },
    }
    capacity = capacity_report(reports)
    assert capacity["healthy"]["meets_slo"] == 1.0
    assert capacity["burning"]["meets_slo"] == 0.0
    assert capacity["healthy"]["headroom"] > capacity["burning"]["headroom"]
    assert capacity["burning"]["burn_rate"] == 50.0



def test_a_shedding_tenant_is_infeasible_though_its_slo_looks_fine():
    # 20,050 e/s offered per 1 ms tick against a 20-event backlog cap:
    # now and then a 21-event group pushes the backlog past the cap while
    # its ack lags, and the driver skips that tick, so the probe offers
    # only part of its load and its saturation margin looks fine
    sim = Simulator()
    spec = WorkloadSpec(
        target_rate=20_050.0, tick=0.001, backlog_cap=20, seed=2, duration=1.0, warmup=0.25
    )
    result = run_probe(sim, PravegaAdapter(sim), spec)
    assert result.extra["shed_ticks"] > 0
    assert not result.crashed and not result.extra.get("load_timed_out")
    margin = saturation_margin(result)
    assert margin > 0

    assert sustainable_verdict(result, margin) == (False, -1.0)
    result.extra["shed_ticks"] = 0.0  # the same run, had it shed nothing
    assert sustainable_verdict(result, margin) == (True, margin)


def test_a_partial_last_window_keeps_its_sends():
    # a 2.5 s interval is two whole windows and a half one; what is sent
    # in [2.0, 2.5) and never acked burns the budget like any other send
    tracker = make_tracker(end=2.5)
    tracker.on_sent(2.2, 100)
    report = tracker.report()
    assert report["windows"] == 3.0
    assert report["offered"] == 100.0
    assert report["burn_rate"] > 1.0
    assert report["latency_bad_windows"] == 1.0
    assert report["ok"] == 0.0
