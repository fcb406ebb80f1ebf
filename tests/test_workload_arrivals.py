"""Arrival processes: statistical properties and determinism.

Two kinds of guarantee:

* statistics — empirical event counts track the configured rate
  functions (means within tolerance, MMPP bursts visible, Zipf rank
  frequencies exact under largest-remainder apportionment);
* determinism — same seed, same draw sequence, bit-identical counts;
  cross-``--jobs`` identity rides the suite determinism test via the
  ``smoke_workload`` scenario (see test_suite_runner.py).
"""

import math

import pytest

from repro.workload import (
    Constant,
    Diurnal,
    FlashCrowd,
    MMPP,
    Poisson,
    ZipfSkew,
)

TICK = 0.005


def _total_events(process, seed, t0, t1, tick=TICK, fraction=1.0):
    sampler = process.sampler(seed, fraction)
    total = 0
    steps = int(round((t1 - t0) / tick))
    for i in range(steps):
        total += sampler.events(t0 + i * tick, t0 + (i + 1) * tick)
    return total


def _count_series(process, seed, t0, t1, tick=TICK):
    sampler = process.sampler(seed, 1.0)
    steps = int(round((t1 - t0) / tick))
    return [
        sampler.events(t0 + i * tick, t0 + (i + 1) * tick) for i in range(steps)
    ]


# ----------------------------------------------------------------------
# Shapes
# ----------------------------------------------------------------------
def test_constant_is_exact():
    # Carry integration loses at most one fractional event at the end.
    assert _total_events(Constant(12_345.0), seed=1, t0=0.0, t1=10.0) == 123_450


def test_diurnal_shape_and_mean():
    diurnal = Diurnal(trough_eps=500.0, peak_eps=1_500.0, period=40.0)
    assert diurnal.rate(0.0) == pytest.approx(500.0)
    assert diurnal.rate(20.0) == pytest.approx(1_500.0)
    # Full-period mean is (trough + peak) / 2.
    assert diurnal.mean_rate(0.0, 40.0) == pytest.approx(1_000.0, rel=1e-3)
    total = _total_events(diurnal, seed=1, t0=0.0, t1=40.0)
    assert abs(total - 40_000) / 40_000 < 0.01


def test_flash_crowd_shape():
    flash = FlashCrowd(base_eps=100.0, spike_eps=900.0, at=10.0, rise=1.0, hold=5.0, fall=4.0)
    assert flash.rate(9.9) == 100.0
    assert flash.rate(10.5) == pytest.approx(500.0)
    assert flash.rate(12.0) == 900.0
    assert flash.rate(30.0) == 100.0
    assert flash.peak_rate == 900.0


# ----------------------------------------------------------------------
# Stochastic processes: empirical means and burstiness
# ----------------------------------------------------------------------
def test_poisson_empirical_mean():
    total = _total_events(Poisson(10_000.0), seed=42, t0=0.0, t1=20.0)
    # 200k expected events; 3 sigma ~ 0.7%.
    assert abs(total - 200_000) / 200_000 < 0.01


def test_poisson_modulated_by_shape():
    # Trough at t=0, peak at t=10: the first half period averages 1000 eps.
    shaped = Poisson(Diurnal(0.0, 2_000.0, period=20.0))
    total = _total_events(shaped, seed=9, t0=0.0, t1=10.0)
    assert abs(total - 10_000) / 10_000 < 0.05
    assert shaped.peak_rate == 2_000.0


def test_mmpp_stationary_mean_and_bursts():
    mmpp = MMPP(rates_eps=(1_000.0, 9_000.0), mean_dwell=(8.0, 2.0))
    # Stationary mean: (1000*8 + 9000*2) / 10 = 2600 eps.
    assert mmpp.rate(0.0) == pytest.approx(2_600.0)
    series = _count_series(mmpp, seed=5, t0=0.0, t1=400.0, tick=0.01)
    total = sum(series)
    expect = 2_600.0 * 400.0
    assert abs(total - expect) / expect < 0.10  # dwell randomness is slow
    # Burstiness: 1-second windows must show both regimes.
    per_second = [
        sum(series[i : i + 100]) for i in range(0, len(series), 100)
    ]
    assert max(per_second) > 0.7 * 9_000
    assert min(per_second) < 1.5 * 1_000


# ----------------------------------------------------------------------
# Key skew
# ----------------------------------------------------------------------
def test_uniform_skew_is_even():
    router = ZipfSkew(s=0.0).router(4, seed=1)  # 1/r^0: every key weighs 1
    counts = [0] * 4
    for _ in range(1_000):
        for key, share in router.shares(10, 0.0):
            counts[key] += share
    assert counts == [2_500] * 4


def test_zipf_rank_frequencies_are_exact():
    s = 1.0
    partitions = 8
    router = ZipfSkew(s=s).router(partitions, seed=3)
    counts = [0] * partitions
    total = 0
    for _ in range(10_000):
        for key, share in router.shares(13, 0.0):
            counts[key] += share
            total += share
    ordered = sorted(counts, reverse=True)
    weights = [1.0 / (r + 1) ** s for r in range(partitions)]
    norm = sum(weights)
    for rank, count in enumerate(ordered):
        expect = total * weights[rank] / norm
        # Largest-remainder carry makes long-run shares exact to +-1 per key.
        assert abs(count - expect) <= partitions + 1, (rank, count, expect)


def test_zipf_pinned_hot_key_is_stable_across_seeds():
    a = ZipfSkew(s=1.2, pinned=True).router(8, seed=1)
    b = ZipfSkew(s=1.2, pinned=True).router(8, seed=999)
    hot_a = max(a.shares(1_000, 0.0), key=lambda kv: kv[1])[0]
    hot_b = max(b.shares(1_000, 0.0), key=lambda kv: kv[1])[0]
    assert hot_a == hot_b


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "process",
    [
        Constant(5_000.0),
        Poisson(5_000.0),
        MMPP(rates_eps=(500.0, 4_000.0)),
        Diurnal(200.0, 2_000.0, period=20.0),
    ],
    ids=["constant", "poisson", "mmpp", "diurnal"],
)
def test_bit_identical_across_runs(process):
    first = _count_series(process, seed=11, t0=0.0, t1=30.0)
    second = _count_series(process, seed=11, t0=0.0, t1=30.0)
    assert first == second
    assert sum(first) > 0


def test_seeds_decorrelate_stochastic_draws():
    a = _count_series(Poisson(5_000.0), seed=1, t0=0.0, t1=5.0)
    b = _count_series(Poisson(5_000.0), seed=2, t0=0.0, t1=5.0)
    assert a != b
    # ...while both converge to the same mean.
    assert abs(sum(a) - sum(b)) / 25_000 < 0.05


def test_fraction_splits_load_across_producers():
    whole = _total_events(Constant(10_000.0), seed=1, t0=0.0, t1=5.0)
    halves = sum(
        _total_events(Constant(10_000.0), seed=i, t0=0.0, t1=5.0, fraction=0.5)
        for i in range(2)
    )
    assert abs(whole - halves) <= 2
