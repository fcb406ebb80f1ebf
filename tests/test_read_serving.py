"""Serving-tier read-path tests (DESIGN.md §13, marker: read).

Covers the contracts the serving tier must keep while it optimizes the
read path:

* the default configuration is byte-identical to the committed golden
  record (tests/data/golden_read_default.json) — the serving features
  are invisible until opted into;
* read-your-writes at the tail (a read parks as a bare future the append
  fan-out resolves), including across a seal + successor handoff, both
  through the read RPC process and on the bare container future;
* bytes reconstructed through eviction + LTS re-fetch are identical to
  what the writer framed;
* a coalesced fetch fans the leader's failure out to every joined
  waiter (injected ``lts_fail``), and a retry serves all of them with a
  single storage read; a reader released mid-fetch fails only itself;
* a detached reader, a withdrawn container read, or an interrupted raw
  read is removed from the tail wakeup list.
"""

import json
from pathlib import Path

import pytest

from repro.common.errors import StorageError
from repro.faults import FaultEngine, FaultPlan
from repro.pravega import (
    PravegaCluster,
    PravegaClusterConfig,
    ScalingPolicy,
    StreamConfiguration,
)
from repro.pravega.client.serializers import unframe_events
from repro.pravega.container.container import ContainerConfig, ServingConfig
from repro.pravega.container.storage_writer import StorageWriterConfig
from repro.pravega.segment_store import SegmentStoreConfig
from repro.sim import Interrupt, Simulator

from helpers import drain_reader, make_stream, run

pytestmark = pytest.mark.read

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "data" / "golden_read_default.json"

#: every serving-tier feature on (coalescing is the only one)
FULL = ServingConfig(coalesce_lts_fetches=True)

#: How a tail read reaches the park: "process" through the segment
#: store's read RPC, a sim process the client reader drives; "direct" as
#: the bare future SegmentContainer.read hands out, no process in front.
TAIL_PATHS = ["process", "direct"]


@pytest.fixture()
def sim():
    return Simulator()


def build_serving_cluster(
    sim,
    serving=None,
    cache=None,
    storage=None,
    readahead_chunks=None,
    **overrides,
):
    """A started cluster with serving-tier knobs on its containers."""
    container_kw = {}
    if serving is not None:
        container_kw["serving"] = serving
    if cache is not None:
        container_kw["cache"] = cache
    if storage is not None:
        container_kw["storage"] = storage
    if readahead_chunks is not None:
        container_kw["readahead_chunks"] = readahead_chunks
    config = PravegaClusterConfig(
        lts_kind=overrides.pop("lts_kind", "memory"),
        store=SegmentStoreConfig(container=ContainerConfig(**container_kw)),
        **overrides,
    )
    cluster = PravegaCluster.build(sim, config)
    sim.run_until_complete(cluster.start(), timeout=120)
    return cluster


def segment_location(sim, cluster, scope, stream, number=0):
    client = cluster.controller_client("bench-0")
    loc = run(sim, client.get_location(scope, stream, number))
    return loc.qualified_name, cluster.stores[loc.store_host]


def tier_out(sim, cluster, qualified, store, total_bytes):
    """Flush the segment to LTS and evict its cached bytes."""
    container = store.container_for(qualified)
    run(sim, container.storage_writer.flush_all())
    assert container.storage_writer.flushed_offset(qualified) >= total_bytes
    manager = container.cache_manager
    manager.advance_generation()
    saved = manager.target_utilization
    manager.target_utilization = 0.0
    try:
        manager.maybe_evict()
    finally:
        manager.target_utilization = saved
    index = container.read_indexes[qualified]
    assert index.read_cached(0, 1) is None, "eviction left offset 0 cached"
    return container


def read_all_bytes(sim, store, qualified, total_bytes, host="bench-0"):
    """Drain [0, total_bytes) through the read RPC; returns the bytes."""
    parts = []
    offset = 0
    while offset < total_bytes:
        result = run(sim, store.rpc_read(host, qualified, offset, 256 * 1024))
        if result.end_of_segment:
            break
        assert result.payload.content is not None
        parts.append(result.payload.content)
        offset += result.payload.size
    return b"".join(parts)


# ----------------------------------------------------------------------
# Golden guard: the default path is byte-identical to the committed run
# ----------------------------------------------------------------------
class TestGoldenDefaultPath:
    def test_smoke_pravega_matches_committed_record(self):
        """With every serving feature off (the default), the end-to-end
        Pravega smoke run reproduces the committed fixture exactly —
        metrics, simulated time and kernel event count.  Re-pinned when
        the process-backed tail park was deleted: its kernel events fell,
        its metrics and simulated time did not move."""
        from repro.bench import harness

        fixture = json.loads(GOLDEN.read_text())
        record, _, _ = harness.run_row("suite", fixture["scenario"], check=True, repeats=1)
        for key, want in fixture["fields"].items():
            assert record[key] == want, (
                f"default read path drifted: {key} = {record[key]!r}, "
                f"committed {want!r}"
            )


# ----------------------------------------------------------------------
# Read-your-writes at the tail
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", TAIL_PATHS)
class TestTailReadYourWrites:
    def test_tail_read_sees_each_write(self, sim, path):
        cluster = build_serving_cluster(sim)
        make_stream(
            sim, cluster, stream="ryw",
            config=StreamConfiguration(scaling=ScalingPolicy.fixed(1)),
        )
        writer = cluster.create_writer("bench-0", "test", "ryw")
        if path == "process":
            group = run(
                sim, cluster.create_reader_group("bench-0", "g", "test", "ryw")
            )
            reader = cluster.create_reader("bench-0", "r0", group)
            run(sim, reader.join())
            read_next = reader.read_next
        else:
            qualified, store = segment_location(sim, cluster, "test", "ryw")
            container = store.container_for(qualified)
            offset = 0

            def read_next():
                return container.read(qualified, offset, 65536)

        for i in range(5):
            pending = read_next()
            sim.run(until=sim.now + 0.01)
            assert not pending.done, "tail read completed before the write"
            writer.write_event(f"tail-{i}".encode(), routing_key="k")
            result = run(sim, pending)
            if path == "process":
                events = result.events
            else:
                events, consumed = unframe_events(result.payload.content)
                assert consumed == result.payload.size
                assert result.offset == offset
                offset += result.payload.size
            assert events == [f"tail-{i}".encode()]
        if path == "direct":
            assert not container._tail_waiters.get(qualified)

    def test_read_your_writes_across_seal_and_successor(self, sim, path):
        from repro.common.keyspace import KeyRange, split_range

        cluster = build_serving_cluster(sim)
        client = make_stream(sim, cluster, stream="handoff")
        writer = cluster.create_writer("bench-0", "test", "handoff")
        for i in range(25):
            writer.write_event(f"k:{i:04d}".encode(), routing_key="k")
        run(sim, writer.flush())
        run(
            sim,
            client.scale_stream(
                "test", "handoff", [0], split_range(KeyRange.full(), 2)
            ),
        )
        for i in range(25, 50):
            writer.write_event(f"k:{i:04d}".encode(), routing_key="k")
        run(sim, writer.flush())
        if path == "process":
            group = run(
                sim, cluster.create_reader_group("bench-0", "g", "test", "handoff")
            )
            reader = cluster.create_reader("bench-0", "r0", group)
            run(sim, reader.join())
            batches = drain_reader(sim, reader, 50)
            events = [e for b in batches for e in b.events]
        else:
            # The sealed predecessor read to its end-of-segment, then every
            # successor up to its current length, each straight on its
            # container.
            events, _ = self._read_direct(sim, cluster, 0, sealed=True)
            tails = []
            for number in sorted(run(sim, client.get_successors("test", "handoff", 0))):
                more, tail = self._read_direct(sim, cluster, number, sealed=False)
                events += more
                tails.append(tail)
            # A tail read parked on each successor: the next write reaches
            # exactly the one its routing key maps to.
            parked = [
                container.read(qualified, end, 65536)
                for container, qualified, end in tails
            ]
            writer.write_event(b"k:0050", routing_key="k")
            run(sim, writer.flush())
            sim.run(until=sim.now + 0.05)
            delivered = [unframe_events(f.value.payload.content)[0] for f in parked if f.done]
            assert delivered == [[b"k:0050"]]
        numbers = [int(e.decode().split(":")[1]) for e in events]
        assert numbers == list(range(50))

    @staticmethod
    def _read_direct(sim, cluster, number, sealed):
        """Read segment ``number`` of test/handoff from offset 0 through
        SegmentContainer.read: to its end-of-segment when ``sealed``, else
        up to its current length.  Returns (events, (container, qualified,
        end offset))."""
        qualified, store = segment_location(sim, cluster, "test", "handoff", number)
        container = store.container_for(qualified)
        length = None if sealed else container.get_info(qualified).length
        data, offset = b"", 0
        while length is None or offset < length:
            result = run(sim, container.read(qualified, offset, 65536))
            assert result.offset == offset
            if result.end_of_segment:
                break
            data += result.payload.content
            offset += result.payload.size
        events, consumed = unframe_events(data)
        assert consumed == len(data)
        return events, (container, qualified, offset)


# ----------------------------------------------------------------------
# Byte identity through eviction + LTS re-fetch
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "serving",
    [None, ServingConfig(coalesce_lts_fetches=True), FULL],
    ids=["default", "coalesce", "full"],
)
class TestEvictionByteIdentity:
    def test_refetched_bytes_match_written(self, sim, serving):
        storage = StorageWriterConfig(flush_threshold=8192, flush_timeout=0.05)
        cluster = build_serving_cluster(sim, serving=serving, storage=storage)
        make_stream(
            sim, cluster, stream="bytes",
            config=StreamConfiguration(scaling=ScalingPolicy.fixed(1)),
        )
        writer = cluster.create_writer("bench-0", "test", "bytes")
        # > 1 MiB of framed data: the segment spans several index
        # entries, so eviction can release the head of the segment
        # (the live tail entry itself is never evictable).
        events = [
            (f"payload-{i:05d}:" + "x" * (4096 + i % 97)).encode()
            for i in range(300)
        ]
        for i, event in enumerate(events):
            writer.write_event(event, routing_key=f"k{i % 4}")
        run(sim, writer.flush())
        qualified, store = segment_location(sim, cluster, "test", "bytes")
        container = store.container_for(qualified)
        total = container.get_info(qualified).length
        before = read_all_bytes(sim, store, qualified, total)

        tier_out(sim, cluster, qualified, store, total)
        misses_before = container.metrics.counter("read.cache_misses").value
        lts_before = container.metrics.counter("read.lts_fetch_ops").value
        after = read_all_bytes(sim, store, qualified, total)

        assert after == before, "re-fetched bytes differ from the original"
        assert len(after) == total
        assert container.metrics.counter("read.cache_misses").value > misses_before
        assert container.metrics.counter("read.lts_fetch_ops").value > lts_before
        # The framed stream decodes back to exactly the written events.
        decoded, consumed = unframe_events(after)
        assert consumed == total
        assert decoded == events


# ----------------------------------------------------------------------
# Coalesced fetch failure fan-out (injected lts_fail)
# ----------------------------------------------------------------------
class TestCoalescedFailureFanout:
    def _tiered_segment(self, sim, readahead_chunks=0):
        storage = StorageWriterConfig(flush_threshold=8192, flush_timeout=0.05)
        cluster = build_serving_cluster(
            sim,
            serving=ServingConfig(coalesce_lts_fetches=True),
            storage=storage,
            readahead_chunks=readahead_chunks,
        )
        make_stream(
            sim, cluster, stream="faulty",
            config=StreamConfiguration(scaling=ScalingPolicy.fixed(1)),
        )
        writer = cluster.create_writer("bench-0", "test", "faulty")
        for i in range(150):
            writer.write_event(
                (f"event-{i:04d}:" + "y" * 8192).encode(), routing_key="k"
            )
        run(sim, writer.flush())
        qualified, store = segment_location(sim, cluster, "test", "faulty")
        container = store.container_for(qualified)
        total = container.get_info(qualified).length
        baseline = read_all_bytes(sim, store, qualified, total)
        tier_out(sim, cluster, qualified, store, total)
        return cluster, store, container, qualified, total, baseline

    def _three_coalesced_reads(self, sim, store, container, qualified):
        """Three reads of one cold chunk whose storage read hangs on a
        future the test resolves: the first leads the fetch, the other two
        join it.  Returns (reads, the hung future, a thunk issuing the real
        storage read)."""
        lts = container.storage_writer.lts
        original = lts.read_chunk
        stalled = sim.future()
        asked = []

        def stall_once(name):
            lts.read_chunk = original
            asked.append(name)
            return stalled

        lts.read_chunk = stall_once
        coalesced = container.metrics.counter("read.coalesced_fetches")
        joined_before = coalesced.value
        reads = [
            store.rpc_read(f"bench-{i}", qualified, 0, 65536) for i in range(3)
        ]
        sim.run(until=sim.now + 1.0)
        assert coalesced.value == joined_before + 2, (
            "followers did not join the leader's in-flight fetch"
        )
        return reads, stalled, lambda: original(asked[0])

    def test_injected_lts_failure_reaches_the_reader(self, sim):
        cluster, store, container, qualified, total, baseline = (
            self._tiered_segment(sim)
        )
        engine = FaultEngine(sim, FaultPlan(seed=3).lts_fail("*", on_op=1))
        engine.start()
        container.faults = engine
        with pytest.raises(StorageError):
            run(sim, store.rpc_read("bench-0", qualified, 0, 65536))
        # The failed fetch left no stale single-flight registration: the
        # retry fetches cleanly and serves the same bytes.
        assert not container._inflight_fetches
        assert read_all_bytes(sim, store, qualified, total) == baseline

    def test_leader_failure_fans_out_to_every_joined_waiter(self, sim):
        cluster, store, container, qualified, total, baseline = (
            self._tiered_segment(sim)
        )
        reads, stalled, _ = self._three_coalesced_reads(sim, store, container, qualified)
        stalled.set_exception(StorageError("injected LTS failure"))
        sim.run(until=sim.now + 1.0)
        for fut in reads:
            assert fut.done
            with pytest.raises(StorageError):
                fut.value
        assert not container._inflight_fetches

        # Retry: one storage read serves all three waiters, bytes intact.
        ops = container.metrics.counter("read.lts_fetch_ops")
        ops_before = ops.value
        retries = [
            store.rpc_read(f"bench-{i}", qualified, 0, 65536) for i in range(3)
        ]
        sim.run(until=sim.now + 2.0)
        values = [fut.value for fut in retries]
        assert ops.value == ops_before + 1
        for result in values:
            assert result.payload.content == baseline[: result.payload.size]
            assert result.payload.size > 0

    def test_released_leader_does_not_fail_the_readers_that_joined_it(self, sim):
        """The reader whose read leads a coalesced fetch is released
        mid-fetch: only its own read ends (``Interrupt``); the fetch runs
        on and serves the two readers that joined it."""
        cluster, store, container, qualified, total, baseline = (
            self._tiered_segment(sim)
        )
        reads, stalled, read_chunk = self._three_coalesced_reads(
            sim, store, container, qualified
        )
        reads[0].interrupt()
        sim.run(until=sim.now + 0.1)
        read_chunk().add_callback(lambda f: stalled.set_result(f.value))
        sim.run(until=sim.now + 1.0)
        assert isinstance(reads[0].exception, Interrupt)
        outcomes = [repr(fut.exception) for fut in reads[1:] if fut.exception]
        assert not outcomes, f"joined readers failed with {outcomes}"
        for fut in reads[1:]:
            result = fut.value
            assert result.payload.size > 0
            assert result.payload.content == baseline[: result.payload.size]
        assert not container._inflight_fetches


# ----------------------------------------------------------------------
# Tail-waiter lifecycle: detached readers leave the wakeup list
# ----------------------------------------------------------------------
class TestTailWaiterLifecycle:
    def _parked_reader(self, sim):
        cluster = build_serving_cluster(sim)
        make_stream(
            sim, cluster, stream="park",
            config=StreamConfiguration(scaling=ScalingPolicy.fixed(1)),
        )
        writer = cluster.create_writer("bench-0", "test", "park")
        group = run(sim, cluster.create_reader_group("bench-0", "g", "test", "park"))
        reader = cluster.create_reader("bench-0", "r0", group)
        run(sim, reader.join())
        qualified, store = segment_location(sim, cluster, "test", "park")
        container = store.container_for(qualified)
        return cluster, writer, reader, container, qualified

    @pytest.mark.parametrize("path", TAIL_PATHS)
    def test_released_reader_leaves_the_wakeup_list(self, sim, path):
        cluster, writer, reader, container, qualified = self._parked_reader(sim)
        if path == "process":
            pending = reader.read_next()
        else:
            pending = container.read(qualified, 0, 65536)
        sim.run(until=sim.now + 0.05)
        assert len(container._tail_waiters.get(qualified, {})) == 1, (
            "tail read did not park a waiter"
        )
        if path == "process":
            run(sim, reader.release_all())
        else:
            container.cancel_tail_read(qualified, pending)
        sim.run(until=sim.now + 0.05)
        assert not container._tail_waiters.get(qualified), (
            "detached reader still registered in the tail wakeup list"
        )
        # The next append finds no stale waiter to deliver to.
        writer.write_event(b"after-detach", routing_key="k")
        run(sim, writer.flush())
        sim.run(until=sim.now + 0.05)
        assert not container._tail_waiters.get(qualified)
        if path == "direct":
            assert not pending.done, "the append resolved a withdrawn read"

    def test_interrupted_raw_read_is_deregistered(self, sim):
        cluster, writer, reader, container, qualified = self._parked_reader(sim)
        # Park a raw tail read at the segment's current end.
        store = [
            s for s in cluster.stores.values()
            if container in s.containers.values()
        ][0]
        fut = store.rpc_read("bench-0", qualified, 0, 65536)
        sim.run(until=sim.now + 0.05)
        assert list(container._tail_waiters[qualified].values()) == [(0, 65536)]
        fut.interrupt()
        sim.run(until=sim.now + 0.05)
        assert not container._tail_waiters.get(qualified), (
            "cancelled raw read still pinned in the wakeup list"
        )
