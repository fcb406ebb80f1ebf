"""Tests for the hybrid fluid/discrete simulation mode.

Three layers of guarantees:

* **Off means off** — with ``WorkloadSpec.fluid`` (the one fluid
  switch) unset, no controller is created and the golden-kernel /
  golden-trace fixtures stay byte-identical: the fluid merge cannot
  perturb the deterministic kernel.
* **Model units** — the calibration resampler, the fault-plan
  breakpoint scan, the tiering-backpressure (throttle) conservation
  model and the refusal ladder, each exercised directly.
* **Cross-validation** — the figure-5a and figure-6a *headline metrics*
  measured discrete vs fluid must agree within 5% (the accuracy
  contract of ISSUE/ROADMAP; ``benchmarks/bench_scale.py`` runs the
  full-figure version and records wall-clock speedups).
"""

import dataclasses
import json
import os
import types

import pytest

from golden_kernel import build_fig05_numbers, build_trace
from golden_trace import build_pravega_trace

from repro.bench import (
    KafkaAdapter,
    PravegaAdapter,
    WorkloadSpec,
    find_max_throughput,
    run_workload,
)
from repro.common.metrics import LatencyHistogram, percentile
from repro.sim import Simulator
from repro.sim.fluid import FluidSpec, _weighted_quantiles, fault_breakpoints

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

pytestmark = pytest.mark.fluid


def _spec(**overrides) -> WorkloadSpec:
    base = dict(
        event_size=100,
        target_rate=50_000,
        partitions=1,
        producers=1,
        consumers=0,
        duration=3.0,
        warmup=1.0,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


# ----------------------------------------------------------------------
# Off means off
# ----------------------------------------------------------------------
@pytest.mark.parametrize("env", [None, "1"])
def test_fluid_off_creates_no_controller(monkeypatch, env):
    # the spec is the one switch: the retired REPRO_FLUID toggle is inert
    if env is not None:
        monkeypatch.setenv("REPRO_FLUID", env)
    sim = Simulator()
    result = run_workload(sim, PravegaAdapter(sim), _spec(duration=1.0))
    assert "fluid.spans" not in result.extra
    assert "fluid.refusal" not in result.extra


def test_fluid_off_golden_kernel_byte_identical():
    with open(os.path.join(DATA_DIR, "golden_kernel.json")) as fh:
        golden = json.load(fh)
    assert [[t, label] for t, label in build_trace()] == golden["trace"]
    assert build_fig05_numbers() == golden["fig05"]


def test_fluid_off_golden_trace_byte_identical():
    with open(os.path.join(DATA_DIR, "golden_trace_pravega.json")) as fh:
        golden = json.load(fh)
    built = json.loads(json.dumps(build_pravega_trace()))
    assert built == golden


# ----------------------------------------------------------------------
# Model units
# ----------------------------------------------------------------------
def test_weighted_quantiles_resample_matches_percentiles():
    samples = sorted((float(v), 1) for v in range(1, 101))
    grid = _weighted_quantiles(samples, 100, 129)
    assert len(grid) == 129
    assert grid == sorted(grid)
    for q in (0.10, 0.50, 0.90, 0.99):
        assert percentile(grid, q) == pytest.approx(
            percentile([v for v, _ in samples], q), rel=0.03
        )
    # Weights matter: one heavy sample dominates every quantile.
    heavy = [(1.0, 1), (2.0, 998), (3.0, 1)]
    grid = _weighted_quantiles(heavy, 1000, 9)
    assert grid == [2.0] * 9


def test_record_bulk_matches_per_event_recording():
    base = sorted(0.001 * (i + 1) for i in range(64))
    bulk = LatencyHistogram()
    bulk.record_bulk(base, 10_000, shift=0.002)
    loop = LatencyHistogram()
    for _ in range(10_000 // 64):
        for v in base:
            loop.record(v + 0.002)
    assert bulk.count == 10_000
    assert bulk.mean == pytest.approx(loop.mean, rel=1e-6)
    assert bulk.p50 == pytest.approx(loop.p50, rel=0.05)
    assert bulk.p99 == pytest.approx(loop.p99, rel=0.05)


def test_fault_breakpoints_scheduled_and_stochastic():
    def engine(*rules):
        return types.SimpleNamespace(plan=types.SimpleNamespace(rules=rules))

    scheduled = types.SimpleNamespace(
        at=2.0, delay=0.5, duration=1.0, downtime=0.25, repeat=False
    )
    points, reason = fault_breakpoints(engine(scheduled), epoch=10.0)
    assert reason is None
    assert points == [12.5, 14.75]  # injection, recovery + 1s margin

    stochastic = types.SimpleNamespace(at=None)
    points, reason = fault_breakpoints(engine(scheduled, stochastic), epoch=0.0)
    assert reason == "stochastic-faults"
    assert points == []

    repeating = types.SimpleNamespace(at=1.0, repeat=True)
    _, reason = fault_breakpoints(engine(repeating), epoch=0.0)
    assert reason == "repeating-faults"


def test_container_throttle_conservation_model():
    """The tiering-backpressure probe: admitted-vs-flushed byte rates
    project when the StorageWriter watermark gate will close, and the
    sustainable fraction is flush bandwidth over admitted rate."""
    from repro.pravega import PravegaCluster, PravegaClusterConfig

    sim = Simulator()
    cluster = PravegaCluster.build(sim, PravegaClusterConfig(lts_kind="memory"))
    sim.run_until_complete(cluster.start(), timeout=120)
    store = next(iter(cluster.stores.values()))
    container = next(iter(store.containers.values()))
    # Prime the flush pipeline marker (the probe refuses before first flush).
    container.storage_writer.bytes_flushed = 1
    sw = container.storage_writer
    headroom = sw.config.backlog_high_watermark - sw.total_backlog_bytes

    # Keeping up (admitted ~ flushed): no throttle projected.
    assert container.fluid_throttle((100e6, 99.5e6, 0.0)) is None
    # No admission at all: nothing to throttle.
    assert container.fluid_throttle((0.0, 0.0, 0.0)) is None
    # Structural growth: onset = watermark headroom / growth rate.
    eta, flush, growth = container.fluid_throttle((150e6, 100e6, 0.0))
    assert flush == 100e6
    assert growth == pytest.approx(50e6)
    assert eta == pytest.approx(headroom / 50e6)
    # Cache filling faster than the SW backlog: cache headroom governs.
    cache_headroom = container.cache.spec.capacity_bytes - container.cache.used_bytes
    fast = cache_headroom / 1e9
    eta, _, _ = container.fluid_throttle((150e6, 100e6, 1e9))
    assert eta == pytest.approx(min(headroom / 50e6, fast))
    # Unprimed flush pipeline: the byte gap is pipeline fill, not growth.
    container.storage_writer.bytes_flushed = 0
    assert container.fluid_throttle((150e6, 100e6, 0.0)) is None


def test_refusal_ladder():
    fluid = FluidSpec()
    # Consumers: the flow model only carries the produce path.
    sim = Simulator()
    result = run_workload(
        sim, PravegaAdapter(sim), _spec(consumers=1, duration=1.0, fluid=fluid)
    )
    assert result.extra["fluid.refusal"] == "consumers"
    assert result.extra["fluid.spans"] == 0.0
    # Too short to amortize settle + calibration + minimum jump.
    sim = Simulator()
    result = run_workload(
        sim, PravegaAdapter(sim), _spec(duration=0.3, warmup=0.1, fluid=fluid)
    )
    assert result.extra["fluid.refusal"] == "run-too-short"


def test_fluid_spans_engage_and_report():
    sim = Simulator()
    result = run_workload(sim, PravegaAdapter(sim), _spec(fluid=FluidSpec()))
    assert result.extra["fluid.spans"] >= 1.0
    assert result.extra["fluid.time_s"] > 1.0
    assert result.extra["fluid.events_avoided"] > 0.0
    assert "fluid.refusal" not in result.extra


# ----------------------------------------------------------------------
# Cross-validation: headline metrics, discrete vs fluid, within 5%.
# The full-figure versions (all variants, wall-clock speedups) run in
# benchmarks/bench_scale.py; these keep the cheapest representative of
# each figure in tier-1.
# ----------------------------------------------------------------------
def _max_eps(make, fluid):
    best = find_max_throughput(
        make,
        _spec(target_rate=0, fluid=fluid),
        start_rate=100_000,
        growth=2.0,
        refine_steps=1,
        max_rate=4_000_000,
    )
    return best.produce_rate


def test_fig05a_headline_xval_pravega_flush():
    make = lambda sim: PravegaAdapter(sim, journal_sync=True)  # noqa: E731
    discrete = _max_eps(make, None)
    fluid = _max_eps(make, FluidSpec())
    assert fluid == pytest.approx(discrete, rel=0.05)


def test_fig05a_headline_xval_kafka_noflush():
    make = lambda sim: KafkaAdapter(sim, flush_every_message=False)  # noqa: E731
    discrete = _max_eps(make, None)
    fluid = _max_eps(make, FluidSpec())
    assert fluid == pytest.approx(discrete, rel=0.05)


def test_fig06a_headline_xval_low_rate_latency():
    def p95(fluid):
        sim = Simulator()
        spec = dataclasses.replace(
            _spec(target_rate=2_000, fluid=fluid), tick=1e-3
        )
        return run_workload(sim, PravegaAdapter(sim), spec).write_latency.p95

    assert p95(FluidSpec()) == pytest.approx(p95(None), rel=0.05)
