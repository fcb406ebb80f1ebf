"""EventStreamWriter unit tests: dynamic batching, routing, dedup,
bulk-group splitting, reroute on seal."""

from collections import deque

import pytest

from repro.common.keyspace import KeyRange, split_range
from repro.pravega import ScalingPolicy, StreamConfiguration
from repro.pravega.client.writer import WriterConfig, _Batch, _PendingEvent
from repro.sim import Simulator, all_of

from helpers import build_cluster, make_stream, run


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def cluster(sim):
    return build_cluster(sim)


def segment_info(sim, cluster, name):
    store = cluster.store_cluster.store_for_segment(name)
    return run(sim, store.rpc_get_info("bench-0", name))


class TestRouting:
    def test_same_key_same_segment(self, sim, cluster):
        make_stream(sim, cluster, stream="s4",
                    config=StreamConfiguration(scaling=ScalingPolicy.fixed(4)))
        writer = cluster.create_writer("bench-0", "test", "s4")
        results = [
            run(sim, writer.write_event(b"x", routing_key="fixed-key"))
            for _ in range(5)
        ]
        assert len({r["segment"] for r in results}) == 1

    def test_no_key_round_robins(self, sim, cluster):
        make_stream(sim, cluster, stream="rr",
                    config=StreamConfiguration(scaling=ScalingPolicy.fixed(4)))
        writer = cluster.create_writer("bench-0", "test", "rr")
        results = [run(sim, writer.write_event(b"x")) for _ in range(8)]
        assert len({r["segment"] for r in results}) == 4

    def test_bulk_no_key_spreads_over_segments(self, sim, cluster):
        make_stream(sim, cluster, stream="bulk",
                    config=StreamConfiguration(scaling=ScalingPolicy.fixed(4)))
        writer = cluster.create_writer("bench-0", "test", "bulk")
        run(sim, writer.write_synthetic_events(40, 100))
        run(sim, writer.flush())
        lengths = [
            segment_info(sim, cluster, f"test/bulk/{i}").length for i in range(4)
        ]
        assert all(length == 10 * 108 for length in lengths)


class TestBatching:
    def test_concurrent_events_share_batches(self, sim, cluster):
        make_stream(sim, cluster, stream="b1")
        writer = cluster.create_writer("bench-0", "test", "b1")
        futs = [writer.write_event(b"e" * 50, routing_key="k") for _ in range(100)]
        run(sim, all_of(sim, futs))
        container = cluster.store_cluster.store_for_segment(
            "test/b1/0"
        ).container_for("test/b1/0")
        # 100 events but far fewer appends: client batching worked.
        assert container.metrics.counter("append.count").value < 30

    def test_oversized_bulk_group_splits(self, sim, cluster):
        make_stream(sim, cluster, stream="big")
        config = WriterConfig(max_batch_size=10_000)
        writer = cluster.create_writer("bench-0", "test", "big", config)
        run(sim, writer.write_synthetic_events(1_000, 100, routing_key="k"))
        run(sim, writer.flush())
        info = segment_info(sim, cluster, "test/big/0")
        assert info.length == 1_000 * 108

    def test_rtt_estimate_adapts(self, sim, cluster):
        make_stream(sim, cluster, stream="rtt")
        writer = cluster.create_writer("bench-0", "test", "rtt")
        for _ in range(20):
            run(sim, writer.write_event(b"x", routing_key="k"))
        segment_writer = next(iter(writer._segment_writers.values()))
        assert segment_writer.rtt_estimate != writer.config.initial_rtt
        assert 0 < segment_writer.rtt_estimate < 0.05

    def test_inflight_batches_are_found_and_removed_by_identity(self, sim):
        """``batch in _inflight`` / ``_inflight.remove(batch)`` must not fall
        back to a field-by-field compare (lists of events, payloads,
        futures) when the batch is not the deque head."""
        first, second = _Batch(), _Batch()
        assert first != second and first == first
        inflight = deque([first, second])
        assert second in inflight
        inflight.remove(second)
        assert len(inflight) == 1 and inflight[0] is first
        event = _PendingEvent(None, 1, sim.future(), 0.0, None)
        twin = _PendingEvent(None, 1, event.future, 0.0, None)
        assert event != twin and len({event, twin}) == 2

    def test_batch_carries_its_running_event_count(self, sim, cluster):
        make_stream(sim, cluster, stream="cnt")
        writer = cluster.create_writer("bench-0", "test", "cnt")
        counts = [1, 7, 15, 3, 40]
        # Two waves, so open batches are filled twice (before and after
        # the batching window).
        futs = [writer.write_synthetic_events(n, 100, routing_key="k") for n in counts]
        sim.run(until=sim.now + 0.0002)
        futs += [writer.write_synthetic_events(n, 100, routing_key="k") for n in counts]
        run(sim, all_of(sim, futs))
        assert writer.events_written == 2 * sum(counts)
        info = segment_info(sim, cluster, "test/cnt/0")
        assert info.length == 2 * sum(counts) * 108
        container = cluster.store_cluster.store_for_segment(
            "test/cnt/0"
        ).container_for("test/cnt/0")
        assert container.get_attribute("test/cnt/0", writer.writer_id) == 2 * sum(counts)


class TestExactlyOnceBookkeeping:
    def test_event_numbers_monotonic_per_segment(self, sim, cluster):
        make_stream(sim, cluster, stream="nums")
        writer = cluster.create_writer("bench-0", "test", "nums")
        futs = [writer.write_event(b"x", routing_key="k") for _ in range(10)]
        run(sim, all_of(sim, futs))
        container = cluster.store_cluster.store_for_segment(
            "test/nums/0"
        ).container_for("test/nums/0")
        assert container.get_attribute("test/nums/0", writer.writer_id) == 10

    def test_two_writers_do_not_collide(self, sim, cluster):
        make_stream(sim, cluster, stream="two")
        first = cluster.create_writer("bench-0", "test", "two")
        second = cluster.create_writer("bench-1", "test", "two")
        futs = [first.write_event(b"a", routing_key="k") for _ in range(5)]
        futs += [second.write_event(b"b", routing_key="k") for _ in range(5)]
        run(sim, all_of(sim, futs))
        info = segment_info(sim, cluster, "test/two/0")
        assert info.length == 10 * 9  # all ten events landed exactly once

    def test_flush_with_no_writes_returns(self, sim, cluster):
        make_stream(sim, cluster, stream="idle")
        writer = cluster.create_writer("bench-0", "test", "idle")
        run(sim, writer.flush())


class TestSealHandling:
    def test_writes_reroute_after_manual_scale(self, sim, cluster):
        client = make_stream(sim, cluster, stream="reroute")
        writer = cluster.create_writer("bench-0", "test", "reroute")
        run(sim, writer.write_event(b"before", routing_key="k"))
        run(
            sim,
            client.scale_stream(
                "test", "reroute", [0], split_range(KeyRange.full(), 2)
            ),
        )
        result = run(sim, writer.write_event(b"after", routing_key="k"))
        assert result["segment"] in (1, 2)

    def test_inflight_events_survive_seal(self, sim, cluster):
        client = make_stream(sim, cluster, stream="midair")
        writer = cluster.create_writer("bench-0", "test", "midair")
        futs = [writer.write_event(f"e{i}".encode(), routing_key="k") for i in range(50)]
        # Scale while appends are in flight.
        scale = client.scale_stream(
            "test", "midair", [0], split_range(KeyRange.full(), 2)
        )
        run(sim, scale)
        run(sim, all_of(sim, futs), timeout=120)
        total = sum(
            segment_info(sim, cluster, f"test/midair/{i}").length
            for i in range(3)
        )
        # 50 events x (8B header + 2-3B payload); exactly once.
        expected = sum(8 + len(f"e{i}") for i in range(50))
        assert total == expected
