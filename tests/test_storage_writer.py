"""Tests for the storage writer: chunking, flush triggers, backpressure,
truncation sequencing, retention deletes."""

import pytest

from repro.common.payload import Payload
from repro.lts import FileSystemLTS, InMemoryLTS, LtsSpec
from repro.pravega.container.storage_writer import StorageWriter, StorageWriterConfig
from repro.sim import Simulator


@pytest.fixture()
def sim():
    return Simulator()


def make_writer(sim, lts=None, **config_overrides):
    defaults = dict(flush_threshold=1000, flush_timeout=0.1)
    defaults.update(config_overrides)
    lts = lts or InMemoryLTS(sim)
    writer = StorageWriter(sim, 0, lts, StorageWriterConfig(**defaults))
    return writer, lts


class TestFlushing:
    def test_threshold_triggers_flush(self, sim):
        writer, lts = make_writer(sim)
        writer.add("seg", 0, Payload.synthetic(1500), sequence=0)
        sim.run(until=0.05)
        assert writer.flushed_offset("seg") == 1500
        assert lts.exists("seg#chunk-0")

    def test_small_appends_buffer_until_age(self, sim):
        writer, lts = make_writer(sim)
        writer.add("seg", 0, Payload.synthetic(100), sequence=0)
        sim.run(until=0.01)
        assert writer.flushed_offset("seg") == 0  # below threshold, young
        sim.run(until=0.5)
        assert writer.flushed_offset("seg") == 100  # age flush

    def test_chunks_are_contiguous_and_ordered(self, sim):
        writer, lts = make_writer(sim)
        offset = 0
        for i in range(10):
            writer.add("seg", offset, Payload.synthetic(600), sequence=i)
            offset += 600
            sim.run(until=sim.now + 0.2)
        chunks = writer.chunks["seg"]
        assert chunks[0].start_offset == 0
        for left, right in zip(chunks, chunks[1:]):
            assert left.end_offset == right.start_offset
        assert chunks[-1].end_offset == 6000

    def test_content_preserved_through_chunks(self, sim):
        writer, lts = make_writer(sim)
        writer.add("seg", 0, Payload.of(b"hello "), sequence=0)
        writer.add("seg", 6, Payload.of(b"world"), sequence=1)
        sim.run_until_complete(writer.flush_all())
        data = sim.run_until_complete(lts.read_chunk(writer.chunks["seg"][0].chunk_name))
        assert data.content == b"hello world"

    def test_segments_flush_in_parallel(self, sim):
        """Different segments' chunks go to LTS concurrently — the
        mechanism behind multi-segment write scaling (Fig. 7b)."""
        lts = FileSystemLTS(
            sim, LtsSpec(per_stream_bandwidth=100e6, aggregate_bandwidth=800e6, op_latency=0.0)
        )
        writer, _ = make_writer(sim, lts=lts, flush_threshold=1)
        size = 10 * 1024 * 1024
        for i in range(8):
            writer.add(f"seg-{i}", 0, Payload.synthetic(size), sequence=i)
        sim.run_until_complete(writer.flush_all())
        aggregate_rate = 8 * size / sim.now
        assert aggregate_rate > 3 * 100e6

    def test_flush_all_drains_everything(self, sim):
        writer, _ = make_writer(sim)
        for i in range(5):
            writer.add(f"seg-{i}", 0, Payload.synthetic(50), sequence=i)
        sim.run_until_complete(writer.flush_all())
        assert writer.backlog_bytes == 0
        assert all(writer.flushed_offset(f"seg-{i}") == 50 for i in range(5))


class TestBackpressure:
    def test_gate_open_below_watermark(self, sim):
        writer, _ = make_writer(sim, backlog_high_watermark=10_000)
        assert writer.admission_gate().done

    def test_gate_blocks_above_watermark(self, sim):
        slow_lts = FileSystemLTS(
            sim, LtsSpec(per_stream_bandwidth=1e6, aggregate_bandwidth=1e6, op_latency=0.0)
        )
        writer, _ = make_writer(
            sim,
            lts=slow_lts,
            flush_threshold=10**9,
            flush_timeout=10.0,
            backlog_high_watermark=5_000,
            backlog_low_watermark=1_000,
        )
        writer.add("seg", 0, Payload.synthetic(6_000), sequence=0)
        gate = writer.admission_gate()
        assert not gate.done
        # Force the flush; once the backlog drains the gate opens.
        sim.run_until_complete(writer.flush_all())
        assert gate.done

    def test_throttled_writers_released_in_order(self, sim):
        writer, _ = make_writer(
            sim,
            flush_threshold=10**9,
            flush_timeout=0.05,
            backlog_high_watermark=1_000,
            backlog_low_watermark=500,
        )
        writer.add("seg", 0, Payload.synthetic(2_000), sequence=0)
        order = []
        for i in range(3):
            writer.admission_gate().add_callback(lambda f, i=i: order.append(i))
        sim.run(until=1.0)
        assert order == [0, 1, 2]

    def test_running_backlog_matches_the_pending_buffers(self, sim, monkeypatch):
        """``backlog_bytes`` is a running counter; it must equal the re-summed
        pending buffers after every kind of mutation: add, flush swap-out,
        requeue after an LTS failure (with a newer buffer behind it), and
        deleting a segment that still has unflushed data."""
        from repro.common.errors import StorageError

        writer, lts = make_writer(sim, flush_threshold=1000, flush_timeout=0.1)

        def resummed():
            return sum(p.size for p in writer._pending.values())

        real_write = lts.write_chunk
        failures = [2]

        def flaky_write(name, payload):
            if failures[0] > 0:
                failures[0] -= 1
                # Data arriving while the failed flush is out lands in a
                # fresh buffer that the requeue must merge behind the old one.
                writer.add("seg-a", 1200, Payload.synthetic(300), sequence=90 + failures[0])
                failed = sim.future()
                failed.set_exception(StorageError("injected"))
                return failed
            return real_write(name, payload)

        monkeypatch.setattr(lts, "write_chunk", flaky_write)
        writer.add("seg-a", 0, Payload.synthetic(1200), sequence=0)  # threshold flush
        writer.add("seg-b", 0, Payload.synthetic(400), sequence=1)  # age flush later
        writer.add("seg-c", 0, Payload.synthetic(250), sequence=2)
        assert writer.backlog_bytes == resummed() == 1850
        for _ in range(40):
            sim.run(until=sim.now + 0.01)
            assert writer.backlog_bytes == resummed()
            if sim.now > 0.05 and "seg-c" in writer._pending:
                sim.run_until_complete(writer.delete_segment("seg-c"))
                assert writer.backlog_bytes == resummed()
        assert failures[0] == 0
        assert writer.backlog_bytes == resummed() == 0
        assert writer.flushed_offset("seg-a") == 1800


class TestTruncationSequence:
    def test_no_outstanding_means_everything_truncatable(self, sim):
        writer, _ = make_writer(sim)
        assert writer.truncation_sequence() > 10**9

    def test_truncation_tracks_min_outstanding(self, sim):
        writer, _ = make_writer(sim, flush_threshold=10**9, flush_timeout=100.0)
        writer.add("a", 0, Payload.synthetic(10), sequence=3)
        writer.add("b", 0, Payload.synthetic(10), sequence=7)
        assert writer.truncation_sequence() == 2
        sim.run_until_complete(writer.flush_all())
        assert writer.truncation_sequence() > 10**9

    def test_callback_fired_on_flush(self, sim):
        writer, _ = make_writer(sim)
        observed = []
        writer.on_truncation_candidate = observed.append
        writer.add("seg", 0, Payload.synthetic(5_000), sequence=4)
        sim.run(until=0.2)
        assert observed and observed[-1] >= 4


class TestRetentionAndDeletion:
    def test_truncate_segment_deletes_covered_chunks(self, sim):
        writer, lts = make_writer(sim)
        writer.add("seg", 0, Payload.synthetic(1_200), sequence=0)
        sim.run_until_complete(writer.flush_all())
        writer.add("seg", 1_200, Payload.synthetic(1_200), sequence=1)
        sim.run_until_complete(writer.flush_all())
        assert len(writer.chunks["seg"]) == 2
        sim.run_until_complete(writer.truncate_segment("seg", 1_200))
        assert len(writer.chunks["seg"]) == 1
        assert lts.total_bytes() == 1_200

    def test_truncate_keeps_partially_covered_chunks(self, sim):
        writer, lts = make_writer(sim)
        writer.add("seg", 0, Payload.synthetic(2_000), sequence=0)
        sim.run_until_complete(writer.flush_all())
        sim.run_until_complete(writer.truncate_segment("seg", 1_000))
        assert len(writer.chunks["seg"]) == 1

    def test_delete_segment_removes_all_chunks(self, sim):
        writer, lts = make_writer(sim)
        writer.add("seg", 0, Payload.synthetic(3_000), sequence=0)
        sim.run_until_complete(writer.flush_all())
        sim.run_until_complete(writer.delete_segment("seg"))
        assert lts.total_bytes() == 0
        assert "seg" not in writer.chunks

    def test_chunks_for_range(self, sim):
        writer, _ = make_writer(sim)
        for i in range(3):
            writer.add("seg", i * 1_200, Payload.synthetic(1_200), sequence=i)
            sim.run_until_complete(writer.flush_all())
        covering = writer.chunks_for_range("seg", 1_300, 100)
        assert len(covering) == 1
        assert covering[0].start_offset == 1_200

    def test_snapshot_restore_roundtrip(self, sim):
        writer, _ = make_writer(sim)
        writer.add("seg", 0, Payload.synthetic(1_500), sequence=0)
        sim.run_until_complete(writer.flush_all())
        snapshot = writer.snapshot()
        other, _ = make_writer(sim)
        other.restore(snapshot)
        assert other.flushed_offset("seg") == 1_500
        assert len(other.chunks["seg"]) == 1
