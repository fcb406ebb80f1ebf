"""Tests for the benchmark harness: key tables, workload runner, the
saturation verdict, adapters, slice scaling."""

import math

import pytest

from repro.common.hashing import routing_key_position, stable_hash64
from repro.sim import DiskSpec, NetworkSpec, Simulator
from repro.bench import (
    BenchResult,
    KafkaAdapter,
    PravegaAdapter,
    PulsarAdapter,
    Table,
    WorkloadSpec,
    modulo_key_table,
    range_key_table,
    run_workload,
)
from repro.bench.adapters import scaled_disk_spec, scaled_network_spec
from repro.bench.runner import WorkloadEngine, _drive, _spread, run_probe
from repro.workload import saturation_margin, sustainable_verdict


def feasible(result: BenchResult) -> bool:
    """The max-throughput probe's verdict on one run."""
    return sustainable_verdict(result, saturation_margin(result))[0]


class TestKeyTables:
    def test_modulo_table_routes_correctly(self):
        keys = modulo_key_table(16)
        for p, key in enumerate(keys):
            assert stable_hash64(key) % 16 == p

    def test_range_table_routes_correctly(self):
        keys = range_key_table(8)
        for s, key in enumerate(keys):
            position = routing_key_position(key)
            assert s / 8 <= position < (s + 1) / 8

    def test_tables_cached(self):
        assert modulo_key_table(4) is modulo_key_table(4)

    def test_single_partition(self):
        assert len(modulo_key_table(1)) == 1
        assert len(range_key_table(1)) == 1


class TestSpread:
    def test_exact_division(self):
        shares = dict(_spread(16, 4, rotate=0))
        assert all(v == 4 for v in shares.values())

    def test_remainder_rotates(self):
        first = dict(_spread(5, 4, rotate=0))
        second = dict(_spread(5, 4, rotate=1))
        assert sum(first.values()) == sum(second.values()) == 5
        assert first != second

    def test_fewer_events_than_partitions(self):
        shares = _spread(2, 8, rotate=0)
        assert len(shares) == 2
        assert all(v == 1 for _, v in shares)

    def test_single_partition_fast_path(self):
        assert _spread(100, 1, rotate=7) == [(0, 100)]


#: each signal on its own turns a clean run infeasible
INFEASIBLE_SIGNALS = {
    "crash": lambda r: setattr(r, "crashed", True),
    "shed_tick": lambda r: r.extra.update(shed_ticks=1.0),
    "load_timeout": lambda r: r.extra.update(load_timed_out=1.0),
    # 0.89x offered acked in the window
    "acked_short": lambda r: setattr(r, "produce_rate", 890.0),
    # p95 > 1 s: queues growing without bound
    "p95_runaway": lambda r: [r.write_latency.record(5.0) for _ in range(100)],
}


class TestResults:
    @pytest.mark.parametrize("signal", sorted(INFEASIBLE_SIGNALS))
    def test_one_signal_makes_a_clean_run_infeasible(self, signal):
        result = BenchResult(target_rate=1000.0, produce_rate=980.0, extra={"shed_ticks": 0.0})
        for _ in range(100):
            result.write_latency.record(0.002)
        assert feasible(result) and saturation_margin(result) > 0
        INFEASIBLE_SIGNALS[signal](result)
        ok, margin = sustainable_verdict(result, saturation_margin(result))
        assert not ok and margin <= 0

    def test_table_renders(self):
        table = Table(["a", "b"], title="t")
        table.add("x", 123)
        rendered = table.render()
        assert "t" in rendered and "x" in rendered and "123" in rendered


class TestSliceScaling:
    def test_disk_scaling_preserves_utilization(self):
        """k-scaled devices see identical utilization from 1/k of the load:
        the basis of the Fig. 10/11 representative-slice method."""
        spec = DiskSpec()
        scaled = scaled_disk_spec(spec, 10)
        ops_full, size = 1000.0, 64 * 1024
        util_full = ops_full * (spec.op_latency + size / spec.bandwidth)
        util_slice = (ops_full / 10) * (
            scaled.op_latency + size / scaled.bandwidth
        )
        assert util_slice == pytest.approx(util_full)

    def test_network_scaling_preserves_utilization(self):
        spec = NetworkSpec()
        scaled = scaled_network_spec(spec, 8)
        msgs, size = 1000.0, 8 * 1024
        full = msgs * (spec.per_message_overhead + size / spec.bandwidth)
        sliced = (msgs / 8) * (scaled.per_message_overhead + size / scaled.bandwidth)
        assert sliced == pytest.approx(full)

    def test_identity_scale_returns_same_spec(self):
        spec = DiskSpec()
        assert scaled_disk_spec(spec, 1) is spec

    def test_rtt_unchanged_by_scaling(self):
        assert scaled_network_spec(NetworkSpec(), 4).rtt == NetworkSpec().rtt


class TestRunWorkload:
    def _spec(self, **overrides):
        defaults = dict(
            event_size=100,
            target_rate=5_000,
            partitions=2,
            producers=1,
            consumers=1,
            duration=1.0,
            warmup=0.5,
        )
        defaults.update(overrides)
        return WorkloadSpec(**defaults)

    @pytest.mark.parametrize(
        "make",
        [PravegaAdapter, KafkaAdapter, PulsarAdapter],
        ids=["pravega", "kafka", "pulsar"],
    )
    def test_all_systems_meet_modest_rate(self, make):
        sim = Simulator()
        result = run_workload(sim, make(sim), self._spec())
        assert feasible(result)
        assert result.errors == 0
        assert result.produce_rate == pytest.approx(5_000, rel=0.1)
        assert result.consume_rate > 0

    def test_latencies_recorded(self):
        sim = Simulator()
        result = run_workload(sim, PravegaAdapter(sim), self._spec())
        assert result.write_latency.count > 0
        assert result.e2e_latency.count > 0
        assert result.write_latency.p95 < 0.1

    def test_no_key_mode(self):
        sim = Simulator()
        result = run_workload(
            sim, KafkaAdapter(sim), self._spec(key_mode="none", consumers=0)
        )
        assert feasible(result)

    def test_overload_detected_as_saturation(self):
        """A target far beyond capacity must be judged infeasible."""
        sim = Simulator()
        adapter = KafkaAdapter(sim, flush_every_message=True)
        result = run_workload(
            sim, adapter, self._spec(target_rate=3_000_000, consumers=0, partitions=1)
        )
        assert saturation_margin(result) < 0
        assert not feasible(result)

    @pytest.mark.parametrize(
        "make",
        [PravegaAdapter, KafkaAdapter, PulsarAdapter],
        ids=["pravega", "kafka", "pulsar"],
    )
    def test_probe_stopped_at_window_close_measures_the_full_run(self, make):
        """A probe ends once its window measurements are final, without
        the drain: its rates and write percentiles are the full run's."""
        spec = self._spec(target_rate=20_000)
        sim = Simulator()
        full = run_workload(sim, make(sim), spec)
        sim = Simulator()
        probe = run_probe(sim, make(sim), spec)
        # a consumer's window outlasts the ack grace by the warmup
        assert sim.now == probe.extra["window_end"] + spec.warmup
        assert feasible(full) and feasible(probe)
        assert probe.produce_rate == full.produce_rate
        assert probe.consume_rate == full.consume_rate
        for q in ("p50", "p95", "p99"):
            assert getattr(probe.write_latency, q) == getattr(full.write_latency, q)

    def test_totals_tracked(self):
        sim = Simulator()
        result = run_workload(
            sim, PravegaAdapter(sim), self._spec(consumers=0)
        )
        assert result.extra["produced_total"] >= result.produce_rate * 1.0

    @pytest.mark.parametrize("key_mode", ["random", "none"])
    @pytest.mark.parametrize("consumers", [0, 1])
    def test_send_log_kept_only_for_a_consumer(self, key_mode, consumers):
        """Only a consumer drains the per-partition send log; a write-only
        run (the WorkloadSpec default) must not grow it for nothing."""
        sim = Simulator()
        adapter = PravegaAdapter(sim)
        spec = self._spec(consumers=consumers, key_mode=key_mode)
        adapter.setup(spec.partitions)
        engine = WorkloadEngine(sim, adapter, spec).start()
        _drive(sim, [engine])
        result = engine.finalize()
        assert result.errors == 0 and result.write_latency.count > 0
        if consumers:
            assert result.e2e_latency.count > 0
        else:
            assert all(not queue for queue in engine._trackers.values())
