"""EventStreamReader unit tests: multiplexed tail reads, synthetic mode,
positions, release, multi-reader coordination."""

import pytest

from repro.common.errors import ReaderError
from repro.pravega import ScalingPolicy, StreamConfiguration
from repro.pravega.client.reader import ReaderConfig
from repro.pravega.container import CacheFullError
from repro.sim import Simulator

from helpers import build_cluster, drain_reader, make_stream, run


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def cluster(sim):
    return build_cluster(sim)


def setup_reader(sim, cluster, stream="r", segments=2, config=None, writer_events=0):
    make_stream(
        sim,
        cluster,
        stream=stream,
        config=StreamConfiguration(scaling=ScalingPolicy.fixed(segments)),
    )
    writer = cluster.create_writer("bench-0", "test", stream)
    for i in range(writer_events):
        writer.write_event(f"e{i:04d}".encode(), routing_key=f"k{i % 8}")
    if writer_events:
        run(sim, writer.flush())
    group = run(sim, cluster.create_reader_group("bench-0", "g", "test", stream))
    reader = cluster.create_reader("bench-0", "r0", group, config)
    run(sim, reader.join())
    return writer, group, reader


class TestReading:
    def test_read_before_join_rejected(self, sim, cluster):
        make_stream(sim, cluster, stream="nj")
        group = run(sim, cluster.create_reader_group("bench-0", "g", "test", "nj"))
        reader = cluster.create_reader("bench-0", "r0", group)
        with pytest.raises(ReaderError):
            reader.read_next()

    def test_reads_drain_all_events(self, sim, cluster):
        _, _, reader = setup_reader(sim, cluster, writer_events=60)
        batches = drain_reader(sim, reader, 60)
        events = [e for b in batches for e in b.events]
        assert sorted(events) == [f"e{i:04d}".encode() for i in range(60)]

    def test_tail_read_blocks_until_write(self, sim, cluster):
        writer, _, reader = setup_reader(sim, cluster, segments=1)
        pending = reader.read_next()
        sim.run(until=sim.now + 0.05)
        assert not pending.done
        writer.write_event(b"late", routing_key="k")
        batch = run(sim, pending)
        assert batch.events == [b"late"]

    def test_multiplexes_across_segments(self, sim, cluster):
        """Data arriving on any assigned segment unblocks the reader,
        even while other segments are idle (the tail-read multiplexing
        that a scale event exposed)."""
        writer, _, reader = setup_reader(sim, cluster, segments=4)
        pending = reader.read_next()
        sim.run(until=sim.now + 0.02)
        # Find a key for any one segment and write only there.
        writer.write_event(b"only-one-segment", routing_key="some-key")
        batch = run(sim, pending)
        assert batch.events == [b"only-one-segment"]

    def test_offsets_advance(self, sim, cluster):
        writer, _, reader = setup_reader(sim, cluster, segments=1, writer_events=10)
        drain_reader(sim, reader, 10)
        assert reader._offsets[0] > 0

    def test_synthetic_mode_counts_events(self, sim, cluster):
        make_stream(sim, cluster, stream="syn")
        writer = cluster.create_writer("bench-0", "test", "syn")
        run(sim, writer.write_synthetic_events(25, 100, routing_key="k"))
        run(sim, writer.flush())
        group = run(sim, cluster.create_reader_group("bench-0", "g", "test", "syn"))
        reader = cluster.create_reader(
            "bench-0", "r0", group, ReaderConfig(fixed_event_size=100)
        )
        run(sim, reader.join())
        total = 0
        while total < 25:
            batch = run(sim, reader.read_next())
            total += batch.event_count
        assert total == 25

    def test_synthetic_mode_without_size_rejected(self, sim, cluster):
        make_stream(sim, cluster, stream="synbad")
        writer = cluster.create_writer("bench-0", "test", "synbad")
        run(sim, writer.write_synthetic_events(5, 100, routing_key="k"))
        run(sim, writer.flush())
        group = run(sim, cluster.create_reader_group("bench-0", "g", "test", "synbad"))
        reader = cluster.create_reader("bench-0", "r0", group)  # no fixed size
        run(sim, reader.join())
        fut = reader.read_next()
        sim.run(until=sim.now + 1)
        assert isinstance(fut.exception, ReaderError)


    def test_cache_full_surfaces_as_reader_error(self, sim, cluster, monkeypatch):
        """A container that cannot make room for an LTS fetch fails the
        read with CacheFullError; the reader reports it like any other
        segment failure instead of letting it escape unwrapped."""
        _, _, reader = setup_reader(sim, cluster, segments=1, writer_events=5)
        segment = reader._segments[0][0]
        container = cluster.store_cluster.store_for_segment(segment).container_for(
            segment
        )
        run(sim, container.storage_writer.flush_all())
        container.read_indexes[segment].drop_all()  # next read goes to LTS

        def full(payload):
            raise CacheFullError("cache full")

        monkeypatch.setattr(container.cache, "insert", full)
        fut = reader.read_next()
        sim.run(until=sim.now + 1)
        assert isinstance(fut.exception, ReaderError)
        assert isinstance(fut.exception.__cause__, CacheFullError)


class TestCoordination:
    def test_release_all_hands_segments_back(self, sim, cluster):
        _, group, reader = setup_reader(sim, cluster, segments=3)
        assert len(reader.assigned_segments) == 3
        run(sim, reader.release_all())
        assert reader.assigned_segments == []
        state = run(sim, group.state())
        assert len(state["unassigned"]) == 3

    def test_late_joiner_picks_up_released_segments(self, sim, cluster):
        writer, group, first = setup_reader(sim, cluster, segments=4, writer_events=40)
        run(sim, first.release_all())
        run(sim, group.reader_offline("r0"))
        second = cluster.create_reader("bench-1", "r1", group)
        run(sim, second.join())
        assert len(second.assigned_segments) == 4
        drain_reader(sim, second, 40)

    def test_fair_share_with_leaver_still_member(self, sim, cluster):
        """A reader that released segments but stayed in the group still
        counts toward the fair share."""
        writer, group, first = setup_reader(sim, cluster, segments=4)
        run(sim, first.release_all())
        second = cluster.create_reader("bench-1", "r1", group)
        run(sim, second.join())
        assert len(second.assigned_segments) == 2

    def test_checkpoint_positions_persisted(self, sim, cluster):
        writer, group, reader = setup_reader(sim, cluster, segments=1, writer_events=10)
        drain_reader(sim, reader, 10)
        run(sim, reader.checkpoint_positions())
        state = run(sim, group.state())
        assert state["assigned"]["r0"][0] == reader._offsets[0]

    def test_idle_reader_eventually_acquires_new_segments(self, sim, cluster):
        writer, group, reader = setup_reader(sim, cluster, segments=1)
        pending = reader.read_next()
        # Another reader joins and releases; first reader keeps working.
        second = cluster.create_reader("bench-1", "r1", group)
        run(sim, second.join())
        writer.write_event(b"x", routing_key="k")
        batch = run(sim, pending)
        assert batch.event_count == 1
