"""The sustainable-throughput search: properties, committed searches, verdicts.

Four layers:

* **search properties** — for any monotone feasibility oracle with its
  threshold inside ``[floor, cap]`` the bracket converges: the found
  rate is feasible, the bracket's upper end is infeasible, and the
  relative width is within tolerance.
* **committed searches** — every max-throughput search recorded in
  ``BENCH_suite.json`` (the gate re-runs fig05c's exactly) converged:
  both ends of its bracket are probes the oracle judged.
* **probe verdicts** — the one verdict over a real system's probe, at
  rates off a committed search, accepts a rate comfortably inside the
  found rate (acking what it was offered) and refuses one comfortably
  past the bracket.
* **max throughput** — the figures' wrapper reports its highest
  feasible probe, not the probe that happened to produce the most.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import WorkloadSpec, harness
from repro.bench.claims import records
from repro.bench.runner import run_probe
from repro.capacity import Probe, find_max_throughput, find_sustainable_rate
from repro.sim import Simulator
from repro.workload import saturation_margin, sustainable_verdict

SUITE_PATH = Path(__file__).resolve().parents[1] / "BENCH_suite.json"

pytestmark = pytest.mark.capacity


def monotone_oracle(threshold: float):
    """Feasible iff rate <= threshold; margin is the signed distance."""

    def oracle(rate: float) -> Probe:
        margin = (threshold - rate) / threshold
        return Probe(rate=rate, feasible=rate <= threshold, margin=margin)

    return oracle


# ----------------------------------------------------------------------
# Search properties
# ----------------------------------------------------------------------
class TestSearchProperties:
    @pytest.mark.parametrize("threshold", [17.0, 1_234.5, 98_765.0, 4.2e6])
    @pytest.mark.parametrize("start", [10.0, 5_000.0, 9e6])
    def test_monotone_oracle_converges(self, threshold, start):
        rel_tol = 0.05
        result = find_sustainable_rate(
            monotone_oracle(threshold),
            start=start, floor=1.0, cap=1e7, rel_tol=rel_tol,
        )
        lo, hi = result.bracket
        assert result.converged
        assert result.rate == lo
        # the found rate is feasible, the bracket's far end is not
        assert lo <= threshold < hi
        assert result.width_rel <= rel_tol

    @pytest.mark.parametrize("growth", [1.3, 2.0, 4.0])
    def test_growth_rates_all_converge(self, growth):
        result = find_sustainable_rate(
            monotone_oracle(50_000.0),
            start=1_000.0, floor=10.0, cap=1e7, growth=growth, rel_tol=0.05,
        )
        assert result.converged
        assert result.bracket[0] <= 50_000.0 < result.bracket[1]

    def test_probe_count_is_logarithmic(self):
        result = find_sustainable_rate(
            monotone_oracle(3_333_333.0),
            start=1_000.0, floor=1.0, cap=1e7, rel_tol=0.02,
        )
        # ~log2(cap/start) bracketing + ~log2(bracket/tol) bisection
        assert result.converged
        assert result.probe_count <= 2 * (
            math.log(1e7 / 1_000.0, 2) + math.log(2 / 0.02, 2)
        )

    def test_threshold_below_floor_reports_zero(self):
        result = find_sustainable_rate(
            monotone_oracle(0.5), start=100.0, floor=10.0, cap=1e6,
        )
        assert result.rate == 0.0
        assert not result.converged

    def test_threshold_above_cap_reports_cap(self):
        result = find_sustainable_rate(
            monotone_oracle(1e9), start=100.0, floor=10.0, cap=1e6,
        )
        assert result.rate == 1e6
        assert result.converged  # feasible at the cap is an answer

    def test_probe_budget_respected(self):
        result = find_sustainable_rate(
            monotone_oracle(123_456.0),
            start=1.0, floor=1.0, cap=1e9, rel_tol=1e-6, max_probes=5,
        )
        assert result.probe_count <= 5
        assert not result.converged

    def test_probe_cache_avoids_duplicate_rates(self):
        # no cache is needed: the ramp and the bisection never revisit a rate
        seen = []

        def oracle(rate: float) -> Probe:
            seen.append(rate)
            return monotone_oracle(10_000.0)(rate)

        find_sustainable_rate(oracle, start=100.0, floor=1.0, cap=1e6)
        assert len(seen) == len(set(seen))

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            find_sustainable_rate(monotone_oracle(10.0), start=5.0, floor=10.0, cap=100.0)
        with pytest.raises(ValueError):
            find_sustainable_rate(monotone_oracle(10.0), start=50.0, floor=1.0, cap=10.0)
        with pytest.raises(ValueError):
            find_sustainable_rate(
                monotone_oracle(10.0), start=5.0, floor=1.0, cap=100.0, growth=1.0
            )
        # a bad budget is a config error, not "nothing is sustainable"
        for bad in (0.0, -0.1, 1.0, 2.0):
            with pytest.raises(ValueError):
                find_sustainable_rate(monotone_oracle(10.0), start=5.0, rel_tol=bad)
        for bad in (0, -1):
            with pytest.raises(ValueError):
                find_sustainable_rate(monotone_oracle(10.0), start=5.0, max_probes=bad)


# ----------------------------------------------------------------------
# Committed searches
# ----------------------------------------------------------------------
def _committed_searches():
    """``(scenario, label, probe log)`` of every search in the suite file."""
    with open(SUITE_PATH) as fh:
        suite = records(json.load(fh))
    return [
        (name, label, log)
        for name, record in suite.items()
        for label, log in record["metrics"].get("probes", {}).items()
    ]


def _bracket(log):
    """The highest feasible probe and the lowest infeasible one above it."""
    lo = max((p["rate_eps"] for p in log if p["feasible"]), default=0.0)
    hi = min(p["rate_eps"] for p in log if not p["feasible"] and p["rate_eps"] > lo)
    return lo, hi


def test_golden_points_are_confirmed_and_converged():
    searches = _committed_searches()
    assert len(searches) == 45
    for name, label, log in searches:
        # fig09 bisects to 0.12, every other figure to 0.2
        rel_tol = 0.12 if name == "fig09" else 0.2
        lo, hi = _bracket(log)
        assert lo > 0, (name, label)
        assert (hi - lo) / hi <= rel_tol, (name, label)
        # the ramp and the bisection never ask a rate twice
        rates = [p["rate_eps"] for p in log]
        assert len(rates) == len(set(rates)), (name, label)


# ----------------------------------------------------------------------
# The one verdict on committed searches
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", ["pravega", "kafka", "pulsar"])
def test_discrete_probe_verdicts_on_committed_points(system):
    # Fig. 8a asks all three systems at one segment with one tail reader
    fig08 = harness.load("fig08_tail_reads")
    label = system.capitalize()
    log = next(log for name, lab, log in _committed_searches() if (name, lab) == ("fig08a", label))
    lo, hi = _bracket(log)

    def probe(rate: float):
        sim = Simulator()
        result = run_probe(sim, fig08.VARIANTS[label](sim), fig08._spec(1, rate, 1))
        feasible, _ = sustainable_verdict(result, saturation_margin(result))
        return feasible, result

    # comfortably inside the found rate: feasible, and the acked/offered
    # ratio (the produce rate over the offered one) is within 10 % of 1
    feasible, inside = probe(lo * 0.8)
    assert feasible
    assert inside.produce_rate / inside.target_rate == pytest.approx(1.0, abs=0.10)

    # comfortably past the bracket's infeasible end: refused
    assert not probe(hi * 2.0)[0]


# ----------------------------------------------------------------------
# The figures' max-throughput wrapper
# ----------------------------------------------------------------------
KNEE = 100_000.0
TICK = 0.01


class _Knee:
    """A scripted system: every group is acked 1 ms after it is sent
    while the offered rate (group size per tick) is at most ``KNEE``;
    past it, every fifth group is never acked.  Acking 0.8x the offered
    rate is saturated, yet at 2x ``KNEE`` it out-produces every feasible
    rate."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.groups = 0

    def setup(self, partitions: int) -> None:
        pass

    def new_producer(self, host: str) -> "_Knee":
        return self

    def send_group(self, partition, count: int, size: int):
        fut = self.sim.future()
        self.groups += 1
        if count <= KNEE * TICK or self.groups % 5:
            self.sim.schedule(0.001, lambda: fut.set_result(None))
        return fut

    def flush(self):
        return self.sim.future()


def test_max_throughput_reports_the_highest_feasible_probe():
    spec = WorkloadSpec(partitions=1, duration=1.0, warmup=0.25, tick=TICK)
    log: list = []
    best = find_max_throughput(
        _Knee, spec, start=KNEE / 2, cap=4 * KNEE, rel_tol=0.5, log=log
    )
    assert [(p["rate_eps"], p["feasible"]) for p in log] == [
        (KNEE / 2, True), (KNEE, True), (2 * KNEE, False),
    ]
    sim = Simulator()
    saturated = run_probe(sim, _Knee(sim), replace(spec, target_rate=2 * KNEE))
    # the saturated probe produced more, but only a feasible one is a max
    assert saturated.produce_rate > best.produce_rate
    assert best.target_rate == KNEE
    assert best.produce_rate == pytest.approx(KNEE, rel=0.01)
    assert all(p["kernel_events"] > 0 and p["wall_s"] >= 0 for p in log)


class _Mute(_Knee):
    """Acks nothing: no rate down to the floor is feasible."""

    def send_group(self, partition, count: int, size: int):
        return self.sim.future()


def test_max_throughput_is_all_zero_when_nothing_is_feasible():
    spec = WorkloadSpec(partitions=1, duration=1.0, warmup=0.25, tick=TICK)
    log: list = []
    best = find_max_throughput(_Mute, spec, start=1_000.0, cap=1_000.0, rel_tol=0.5, log=log)
    assert not any(p["feasible"] for p in log) and log[-1]["rate_eps"] == 1.0
    assert (best.target_rate, best.produce_rate, best.write_latency.count) == (0.0, 0.0, 0)
