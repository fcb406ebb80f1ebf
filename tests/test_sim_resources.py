"""Unit tests for simulation resources, disks, page cache and network."""

import pytest

from repro.bench import (
    KafkaAdapter,
    PravegaAdapter,
    PulsarAdapter,
    WorkloadSpec,
    run_workload,
)
from repro.common.errors import SimulationError
from repro.faults import FaultEngine, FaultPlan
from repro.faults.engine import _FIFO_MARGIN
from repro.sim import (
    Disk,
    DiskSpec,
    FifoServer,
    Host,
    Network,
    NetworkSpec,
    PageCache,
    PageCacheSpec,
    Simulator,
    Store,
    all_of,
)


@pytest.fixture()
def sim():
    return Simulator()


class TestFifoServer:
    def test_requests_serialize(self, sim):
        server = FifoServer(sim)
        done = []
        server.submit(1.0).add_callback(lambda f: done.append(sim.now))
        server.submit(2.0).add_callback(lambda f: done.append(sim.now))
        sim.run()
        assert done == [1.0, 3.0]

    def test_backlog_seconds(self, sim):
        server = FifoServer(sim)
        server.submit(5.0)
        assert server.backlog_seconds() == pytest.approx(5.0)
        sim.run()
        assert server.backlog_seconds() == 0.0

    def test_idle_gap_not_counted(self, sim):
        server = FifoServer(sim)
        server.submit(1.0)
        sim.run()
        assert sim.now == 1.0
        sim.schedule(9.0, lambda: server.submit(1.0))
        sim.run()
        assert sim.now == 11.0

    def test_delay_finishes_where_submit_would(self):
        """``yield server.delay(t)`` resumes where ``yield server.submit(t)``
        would, with occupied and submitted requests on the same server,
        and the kernel counts the same events."""

        def run(wait):
            sim = Simulator()
            server = FifoServer(sim)
            done = []

            def proc():
                yield getattr(server, wait)(0.5)
                done.append(("proc", sim.now))
                server.submit(0.25).add_callback(lambda f: done.append(("after", sim.now)))

            server.occupy(1.0)
            server.submit(2.0).add_callback(lambda f: done.append(("before", sim.now)))
            sim.process(proc())
            sim.run()
            counters = (server.ops_served, server.total_busy_time, server.pending)
            return done, counters, sim.stats.snapshot()

        done, counters, stats = run("delay")
        assert done == [("before", 3.0), ("proc", 3.5), ("after", 3.75)]
        assert counters == (4, 3.75, 0)
        assert (done, counters, stats) == run("submit")


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("a")
        assert store.get().value == "a"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        fut = store.get()
        assert not fut.done
        store.put("x")
        assert fut.value == "x"

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        for item in ("a", "b", "c"):
            store.put(item)
        assert [store.get().value for _ in range(3)] == ["a", "b", "c"]


class TestDisk:
    def test_sequential_write_throughput(self, sim):
        disk = Disk(sim, DiskSpec(bandwidth=100e6, op_latency=0.0, fsync_latency=0.0))
        total = 50 * 1024 * 1024
        fut = disk.write("log", total)
        sim.run_until_complete(fut)
        assert sim.now == pytest.approx(total / 100e6)

    def test_file_switch_penalty_applied(self, sim):
        spec = DiskSpec(
            bandwidth=1e9, op_latency=0.0, file_switch_latency=1e-3, fsync_latency=0.0
        )
        disk = Disk(sim, spec)
        futures = [disk.write("a", 0), disk.write("b", 0), disk.write("b", 0)]
        sim.run_until_complete(all_of(sim, futures))
        # first op: no previous file; second op: switch a->b; third: same file.
        assert sim.now == pytest.approx(1e-3)
        assert disk.switches == 1

    def test_fsync_costs_extra(self, sim):
        spec = DiskSpec(bandwidth=1e9, op_latency=1e-4, fsync_latency=2e-4)
        disk = Disk(sim, spec)
        sim.run_until_complete(disk.write("f", 0, sync=True))
        assert sim.now == pytest.approx(3e-4)

    def test_multiplexed_beats_per_file_writes(self, sim):
        """The core mechanism behind Fig. 10: one multiplexed log file
        sustains far more throughput than many per-partition files."""
        spec = DiskSpec()
        single = Disk(sim, spec)
        chunk = 64 * 1024
        ops = 200
        futs = [single.write("shared", chunk) for _ in range(ops)]
        sim.run_until_complete(all_of(sim, futs))
        single_time = sim.now

        sim2 = Simulator()
        many = Disk(sim2, spec)
        futs = [many.write(f"part-{i % 100}", chunk) for i in range(ops)]
        sim2.run_until_complete(all_of(sim2, futs))
        assert sim2.now > 3 * single_time

    def test_negative_size_rejected(self, sim):
        disk = Disk(sim)
        with pytest.raises(SimulationError):
            disk.write("f", -1)


class TestPageCache:
    def test_write_absorbed_at_memory_speed(self, sim):
        disk = Disk(sim, DiskSpec(bandwidth=100e6))
        cache = PageCache(sim, disk, PageCacheSpec(memory_bandwidth=10e9))
        fut = cache.write("f", 1024 * 1024)
        sim.run_until_complete(fut)
        # Far faster than the disk would allow.
        assert sim.now < (1024 * 1024) / 100e6

    def test_dirty_limit_throttles_writers(self, sim):
        disk = Disk(sim, DiskSpec(bandwidth=100e6, op_latency=0.0))
        cache = PageCache(
            sim, disk, PageCacheSpec(dirty_limit=1024 * 1024, writeback_chunk=1024 * 1024)
        )
        first = cache.write("f", 1024 * 1024)
        second = cache.write("f", 1024 * 1024)
        sim.run_until_complete(second)
        assert first.done
        # The second write had to wait for writeback of ~1MB at 100MB/s.
        assert sim.now >= (1024 * 1024) / 100e6

    def test_flush_waits_for_file_clean(self, sim):
        disk = Disk(sim, DiskSpec(bandwidth=100e6))
        cache = PageCache(sim, disk)
        sim.run_until_complete(cache.write("f", 4 * 1024 * 1024))
        fut = cache.flush("f")
        sim.run_until_complete(fut)
        assert cache.dirty_bytes == 0

    def test_flush_clean_file_is_immediate(self, sim):
        disk = Disk(sim)
        cache = PageCache(sim, disk)
        assert cache.flush("nonexistent").done

    def test_writeback_drains_everything(self, sim):
        disk = Disk(sim, DiskSpec(bandwidth=1e9))
        cache = PageCache(sim, disk)
        for i in range(10):
            cache.write(f"file-{i}", 100_000)
        sim.run()
        assert cache.dirty_bytes == 0
        assert disk.bytes_written == 1_000_000


class TestNetwork:
    def test_transfer_latency_includes_half_rtt(self, sim):
        net = Network(sim, NetworkSpec(bandwidth=1e9, rtt=1e-3, per_message_overhead=0.0))
        fut = net.transfer("a", "b", 0)
        sim.run_until_complete(fut)
        assert sim.now == pytest.approx(0.5e-3)

    def test_transfer_serializes_on_sender_nic(self, sim):
        net = Network(sim, NetworkSpec(bandwidth=1e6, rtt=0.0, per_message_overhead=0.0))
        futs = [net.transfer("a", "b", 500_000) for _ in range(2)]
        sim.run_until_complete(all_of(sim, futs))
        assert sim.now == pytest.approx(1.0)

    def test_payload_delivered(self, sim):
        net = Network(sim)
        fut = net.transfer("a", "b", 100, payload={"k": 1})
        assert sim.run_until_complete(fut) == {"k": 1}

    def test_local_transfer_is_fast(self, sim):
        net = Network(sim)
        fut = net.transfer("a", "a", 1_000_000)
        sim.run_until_complete(fut)
        assert sim.now == pytest.approx(net.spec.local_latency)

    def test_host_registry_reuses_instances(self, sim):
        net = Network(sim)
        assert net.host("x") is net.host("x")


def _arrival(wait, src, dst, nbytes, before=(), faults=None):
    """Simulated instant a process resumes after one message sent with
    ``wait`` (``"transfer"`` or ``"delay"``), behind ``before`` messages
    sent un-awaited at t = 0."""
    sim = Simulator()
    net = Network(sim)
    if faults is not None:
        net.faults = faults(sim)
    for args in before:
        net.delay(*args)
    arrived = []

    def proc():
        yield getattr(net, wait)(src, dst, nbytes)
        arrived.append(sim.now)

    sim.process(proc())
    sim.run()
    return arrived[0]


def _delayed_links(sim):
    engine = FaultEngine(sim, FaultPlan(seed=0).net_delay("a->b", on_op=1, delay=0.004))
    engine.start()
    return engine


_SPEC = NetworkSpec()


def _remote(nbytes, messages=1):
    """Arrival of ``messages`` back-to-back sends totalling ``nbytes``."""
    return messages * _SPEC.per_message_overhead + nbytes / _SPEC.bandwidth + _SPEC.rtt / 2


@pytest.mark.parametrize(
    "case, expected",
    [
        (dict(src="a", dst="b", nbytes=1000), _remote(1000)),
        (dict(src="a", dst="a", nbytes=1000), _SPEC.local_latency),
        (
            dict(src="a", dst="b", nbytes=100, before=[("a", "c", 500_000)]),
            _remote(500_100, messages=2),
        ),
        (
            dict(src="a", dst="b", nbytes=100, before=[("a", "b", 10)], faults=_delayed_links),
            # FIFO clamp: behind the delayed first message on the link
            0.004 + _FIFO_MARGIN + _remote(110, messages=2),
        ),
    ],
    ids=["remote", "local", "queued-on-nic", "fault-delay"],
)
def test_network_delay_lands_where_transfer_does(case, expected):
    arrival = _arrival("delay", **case)
    assert arrival == pytest.approx(expected, rel=1e-12)
    assert arrival == _arrival("transfer", **case)


def test_network_delay_and_transfer_resume_in_the_same_order():
    """Two processes whose messages arrive at the same instant resume in
    send order either way, and the kernel counts the same events."""

    def run(wait):
        sim = Simulator()
        net = Network(sim)
        order = []

        def proc(name, src):
            yield getattr(net, wait)(src, "b", 100)
            order.append((name, sim.now))

        sim.process(proc("first", "a"))
        sim.process(proc("second", "c"))
        sim.run()
        return order, sim.stats.snapshot()

    (order, stats), transfer = run("delay"), run("transfer")
    assert order[0][0] == "first" and order[0][1] == order[1][1]
    assert (order, stats) == transfer


# ----------------------------------------------------------------------
# The device registry the layered yardstick reads
# ----------------------------------------------------------------------
def _cluster_disks(system, adapter):
    if system == "kafka":
        return [broker.disk for broker in adapter.cluster.brokers.values()]
    return [bookie.journal_disk for bookie in adapter.cluster.bk_cluster.bookies.values()]


def _device_totals(disks, hosts):
    return {
        "disk_ops": sum(d.ops for d in disks),
        "disk_bytes": sum(d.bytes_written for d in disks),
        "net_msgs": sum(h.messages_sent for h in hosts),
        "net_bytes": sum(h.bytes_sent for h in hosts),
    }


@pytest.mark.parametrize("system", ["pravega", "kafka", "pulsar"])
def test_device_registry_counts_every_disk_and_nic(system):
    # benchmarks/layered/workloads.py::device_counters sums its disk.* and
    # net.* metrics over sim.fluid_resources: a device that stopped
    # registering would silently zero them
    adapters = {"pravega": PravegaAdapter, "kafka": KafkaAdapter, "pulsar": PulsarAdapter}
    sim = Simulator()
    adapter = adapters[system](sim)
    spec = WorkloadSpec(target_rate=2_000.0, partitions=2, duration=0.3, warmup=0.1)
    run_workload(sim, adapter, spec)

    registered = sim.fluid_resources
    from_registry = _device_totals(
        [r for r in registered if isinstance(r, Disk)],
        [r for r in registered if isinstance(r, Host)],
    )
    from_cluster = _device_totals(
        _cluster_disks(system, adapter), adapter.cluster.network._hosts.values()
    )
    assert all(from_registry.values()), from_registry
    assert from_registry == from_cluster
