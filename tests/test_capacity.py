"""Capacity planner: search properties, golden fixture, probe verdicts.

Three layers:

* **search properties** — for any monotone feasibility oracle with its
  threshold inside ``[floor, cap]`` the bracket converges: the found
  rate is feasible, the bracket's upper end is infeasible, and the
  relative width is within tolerance.
* **golden fixture** — ``tests/data/golden_capacity.json`` regenerates
  byte for byte at the fixed seed (the golden kernel/trace contract).
* **probe verdicts** — the discrete SLO-engine probe, re-run on every
  committed golden point, accepts a rate comfortably inside the found
  rate (acking what it was offered) and refuses one comfortably past
  the bracket.
* **max throughput** — the figures' wrapper reports its highest
  feasible probe, not the probe that happened to produce the most.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace

import pytest

from golden_capacity import GOLDEN_CONFIG, build_capacity_map, render

from repro.bench import WorkloadSpec
from repro.bench.runner import run_probe
from repro.capacity import (
    MIXES,
    CapacityPlanner,
    PlannerConfig,
    Probe,
    find_max_throughput,
    find_sustainable_rate,
)
from repro.sim import Simulator

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_PATH = os.path.join(DATA_DIR, "golden_capacity.json")

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
        # margins carried through from the oracle
        assert result.margin >= 0.0

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
# Golden fixture
# ----------------------------------------------------------------------
def test_golden_capacity_regenerates_byte_identical():
    with open(GOLDEN_PATH, "rb") as fh:
        committed = fh.read()
    fresh = render(build_capacity_map()).encode()
    assert fresh == committed, (
        "golden capacity map drifted — the kernel, the SLO engine or the "
        "search changed behaviour; if intentional, regenerate with "
        "`PYTHONPATH=src:tests python tests/golden_capacity.py > "
        "tests/data/golden_capacity.json`"
    )


def test_golden_points_are_confirmed_and_converged():
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    assert len(golden["points"]) == 3
    for point in golden["points"]:
        assert point["converged"], point["system"]
        assert point["bracket_width_rel"] <= golden["rel_tol"]
        assert point["probes"] == len(point["probe_log"])
        # both bracket ends are the oracle's own verdicts: the lower end
        # a feasible probe, the upper end an infeasible one
        verdicts = {p["rate_eps"]: p["feasible"] for p in point["probe_log"]}
        lo, hi = point["bracket_eps"]
        assert verdicts.get(lo) is True, point["system"]
        assert verdicts.get(hi) is False, point["system"]


# ----------------------------------------------------------------------
# The discrete probe's verdicts on committed points
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", ["pravega", "kafka", "pulsar"])
def test_discrete_probe_verdicts_on_committed_points(system):
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    point = next(p for p in golden["points"] if p["system"] == system)
    planner = CapacityPlanner(system, MIXES["uniform"], GOLDEN_CONFIG)

    # comfortably inside the found rate: feasible, and the tenant's
    # acked/offered ratio (its produce rate over the offered one) is
    # within 10 % of 1
    inside = planner.discrete_probe(point["rate_eps"] * 0.8)
    assert inside.feasible
    assert inside.detail["min_headroom"] == pytest.approx(1.0, abs=0.10)

    # comfortably past the bracket's infeasible end: refused
    assert not planner.discrete_probe(point["bracket_eps"][1] * 2.0).feasible


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
