"""Controller unit tests: lifecycle, epoch/successor metadata, key-space
invariants, segment-to-store mapping, system-table persistence."""

import pytest

from repro.common.errors import (
    StreamError,
    StreamExistsError,
    StreamNotFoundError,
    StreamSealedError,
)
from repro.common.keyspace import KeyRange, split_range
from repro.pravega import ScalingPolicy, StreamConfiguration
from repro.sim import Simulator

from helpers import build_cluster, make_stream, run


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def cluster(sim):
    return build_cluster(sim)


@pytest.fixture()
def client(sim, cluster):
    return make_stream(sim, cluster)  # creates test/stream with 1 segment


class TestStreamLifecycle:
    def test_duplicate_stream_rejected(self, sim, cluster, client):
        fut = client.create_stream("test", "stream")
        sim.run(until=sim.now + 1)
        assert isinstance(fut.exception, StreamExistsError)

    def test_unknown_stream_rejected(self, sim, cluster, client):
        fut = client.get_active_segments("test", "nope")
        sim.run(until=sim.now + 1)
        assert isinstance(fut.exception, StreamNotFoundError)

    def test_initial_segments_match_policy(self, sim, cluster, client):
        run(sim, client.create_stream(
            "test", "wide",
            StreamConfiguration(scaling=ScalingPolicy.fixed(6)),
        ))
        segments = run(sim, client.get_active_segments("test", "wide"))
        assert len(segments) == 6
        metadata = cluster.controller.streams["test/wide"]
        assert metadata.check_key_space_invariant()

    def test_seal_stream_seals_all_segments(self, sim, cluster, client):
        run(sim, client.seal_stream("test", "stream"))
        store = cluster.store_cluster.store_for_segment("test/stream/0")
        info = run(sim, store.rpc_get_info("bench-0", "test/stream/0"))
        assert info.sealed

    def test_sealed_stream_rejects_scaling(self, sim, cluster, client):
        run(sim, client.seal_stream("test", "stream"))
        fut = client.scale_stream("test", "stream", [0], split_range(KeyRange.full(), 2))
        sim.run(until=sim.now + 1)
        assert isinstance(fut.exception, StreamSealedError)

    def test_delete_requires_seal(self, sim, cluster, client):
        fut = client.delete_stream("test", "stream")
        sim.run(until=sim.now + 1)
        assert isinstance(fut.exception, StreamError)
        run(sim, client.seal_stream("test", "stream"))
        run(sim, client.delete_stream("test", "stream"))
        fut = client.get_active_segments("test", "stream")
        sim.run(until=sim.now + 1)
        assert isinstance(fut.exception, StreamNotFoundError)

    def test_stream_metadata_persisted_in_system_table(self, sim, cluster, client):
        """§2.2: stream metadata lives in Pravega itself (KV tables)."""
        controller = cluster.controller
        table = controller._metadata_table
        store = cluster.store_cluster.store_for_segment(table)
        entries = run(sim, store.rpc_table_get("bench-0", table, ["test/stream"]))
        assert "test/stream" in entries


class TestScalingMetadata:
    def test_scale_up_assigns_successors_and_predecessors(self, sim, cluster, client):
        run(sim, client.scale_stream("test", "stream", [0], split_range(KeyRange.full(), 3)))
        successors = run(sim, client.get_successors("test", "stream", 0))
        assert sorted(successors) == [1, 2, 3]
        assert all(preds == [0] for preds in successors.values())

    def test_scale_down_merges_predecessors(self, sim, cluster, client):
        run(sim, client.scale_stream("test", "stream", [0], split_range(KeyRange.full(), 2)))
        run(sim, client.scale_stream("test", "stream", [1, 2], [KeyRange.full()]))
        successors_of_1 = run(sim, client.get_successors("test", "stream", 1))
        successors_of_2 = run(sim, client.get_successors("test", "stream", 2))
        assert list(successors_of_1) == [3]
        assert sorted(successors_of_1[3]) == [1, 2]
        assert successors_of_1 == successors_of_2

    def test_partial_overlap_scale(self, sim, cluster, client):
        """Scale only part of the key space; others remain active."""
        run(sim, client.scale_stream("test", "stream", [0], split_range(KeyRange.full(), 4)))
        # Merge only the middle two of the four.
        metadata = cluster.controller.streams["test/stream"]
        active = sorted(
            metadata.active_segments(), key=lambda r: r.key_range.low
        )
        middle = [active[1].segment_number, active[2].segment_number]
        merged = KeyRange(active[1].key_range.low, active[2].key_range.high)
        run(sim, client.scale_stream("test", "stream", middle, [merged]))
        assert metadata.check_key_space_invariant()
        assert len(metadata.active_segments()) == 3

    def test_scale_rejects_non_partition_ranges(self, sim, cluster, client):
        fut = client.scale_stream(
            "test", "stream", [0],
            [KeyRange(0.0, 0.4), KeyRange(0.5, 1.0)],  # gap!
        )
        sim.run(until=sim.now + 1)
        assert isinstance(fut.exception, StreamError)

    def test_scale_rejects_inactive_segment(self, sim, cluster, client):
        run(sim, client.scale_stream("test", "stream", [0], split_range(KeyRange.full(), 2)))
        fut = client.scale_stream("test", "stream", [0], split_range(KeyRange.full(), 2))
        sim.run(until=sim.now + 1)
        assert isinstance(fut.exception, StreamError)

    def test_epochs_recorded(self, sim, cluster, client):
        run(sim, client.scale_stream("test", "stream", [0], split_range(KeyRange.full(), 2)))
        metadata = cluster.controller.streams["test/stream"]
        assert len(metadata.epochs) == 2
        assert metadata.epochs[1].epoch == 1

    def test_new_segments_created_before_seal(self, sim, cluster, client):
        """Fig. 2b ordering: successors exist by the time the old segment
        is sealed, so writers can re-route immediately."""
        run(sim, client.scale_stream("test", "stream", [0], split_range(KeyRange.full(), 2)))
        for number in (1, 2):
            store = cluster.store_cluster.store_for_segment(f"test/stream/{number}")
            info = run(sim, store.rpc_get_info("bench-0", f"test/stream/{number}"))
            assert not info.sealed

    def test_head_segments_are_epoch_zero(self, sim, cluster, client):
        run(sim, client.scale_stream("test", "stream", [0], split_range(KeyRange.full(), 2)))
        heads = run(sim, client.head_segments("test", "stream"))
        assert [h.segment_number for h in heads] == [0]


class TestSegmentPlacement:
    def test_segment_maps_to_consistent_store(self, sim, cluster, client):
        first = cluster.store_cluster.store_for_segment("test/stream/0")
        second = cluster.store_cluster.store_for_segment("test/stream/0")
        assert first is second

    def test_locations_expose_store_hosts(self, sim, cluster, client):
        locations = run(sim, client.get_active_segments("test", "stream"))
        assert all(l.store_host.startswith("segmentstore-") for l in locations)

    def test_many_segments_spread_over_containers(self, sim, cluster, client):
        run(sim, client.create_stream(
            "test", "big", StreamConfiguration(scaling=ScalingPolicy.fixed(32))
        ))
        locations = run(sim, client.get_active_segments("test", "big"))
        hosts = {l.store_host for l in locations}
        assert len(hosts) >= 2  # spread across stores


class TestRetentionPolicies:
    def test_time_retention_truncates_old_data(self, sim, cluster, client):
        from repro.pravega import RetentionPolicy, ScalingPolicy, StreamConfiguration

        config = StreamConfiguration(
            scaling=ScalingPolicy.fixed(1),
            retention=RetentionPolicy.by_time(60.0),
        )
        run(sim, client.create_stream("test", "timed", config))
        writer = cluster.create_writer("bench-0", "test", "timed")

        def load():
            for _ in range(200):
                writer.write_event(b"x" * 92, routing_key="k")
                yield sim.timeout(0.5)

        run(sim, sim.process(load()), timeout=300)
        run(sim, writer.flush())
        # Data spans ~100 s; with a 60 s limit + 30 s polls, the head must
        # have been truncated at least once by now.
        sim.run(until=sim.now + 65)
        store = cluster.store_cluster.store_for_segment("test/timed/0")
        info = run(sim, store.rpc_get_info("bench-0", "test/timed/0"))
        assert info.start_offset > 0
        assert cluster.controller.metrics.counter("retention.truncations").value >= 1
