"""The four workloads of the layered benchmark.

Each workload is a class with three steps the runner times separately:

* ``setup()``   — build the cluster, create streams and readers, run the
  untimed warm-up (and, for ``replay_cold``, build and tier the backlog);
* ``run()``     — the timed region: a fixed amount of simulated work;
* ``collect()`` — read the public counters, check the outputs, and return
  the run's simulated statistics (all of them repeat exactly for a seed).

Only the program's public surface is used: ``repro.sim.Simulator``, the
``repro.bench`` adapters and ``run_workload``, ``PravegaCluster``'s client
factories and the public counters of the device and container models.
The load generator is open loop and lives here, outside the system under
test: latency is measured from the instant an event was due to be sent,
and events the generator had to skip (backlog above ``backlog_cap``) are
counted as shed, never hidden.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.bench import (
    KafkaAdapter,
    PravegaAdapter,
    PulsarAdapter,
    WorkloadSpec,
    attach_tracer,
    run_workload,
)
from repro.common.metrics import percentile
from repro.pravega import PravegaCluster
from repro.pravega.client.reader import ReaderConfig
from repro.sim import Simulator
from repro.sim.core import Interrupt
from repro.sim.disk import Disk
from repro.sim.network import Host

SimFactory = Callable[[], Simulator]

#: simulated seconds of the untimed warm-up every set-up runs on a
#: throw-away simulator (fills the interpreter's caches and the repo's
#: memo tables, so the timed region starts warm), per size
WARMUP_SIM_S = {"full": 0.25, "smoke": 0.05}

#: largest relative jitter the seed applies to a workload's rate and
#: event size.  Kept this small because the modelled latencies are very
#: sensitive to the offered rate (at +-1 % of rate write_small's p50 has
#: a quartile spread of 6 % across seeds), and the spread of every
#: simulated metric across seeds has to stay well inside its bound.
JITTER = 0.001


# ----------------------------------------------------------------------
# Sizes.  ``full`` is what BENCHMARK.json's runs use; ``smoke`` is ~1/20
# of the simulated durations and backlog for the self-test.  Topology,
# rates and ratios are the same in both.
# ----------------------------------------------------------------------
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "write_small": {
        # warm-up : window = 1 : 6, as in the 1 s + 6 s original
        "full": {"events": 350_000},
        "smoke": {"events": 17_500},
    },
    "tail_fanout": {
        "full": {"events": 150_000},
        "smoke": {"events": 7_500},
    },
    "replay_cold": {
        # 34 MB per segment: the container that owns five of the sixteen
        # segments then holds 170 MB, above its 128 MB cache (so the older
        # part is cold and comes from LTS) and below the cache's 192 MB
        # hard cap (so the replay never evicts).  Anything larger walks
        # into two read-path defects (README, "What the workloads found").
        # The smoke backlog fits in the cache and only checks the plumbing.
        "full": {"backlog_mb": 544},
        "smoke": {"backlog_mb": 50},
    },
    "parallel_3sys": {
        # warm-up : window = 3 : 8, as in the 0.75 s + 2 s original
        "full": {"window_s": 0.5},
        "smoke": {"window_s": 0.1},
    },
}


def _jitter(rng: random.Random, value: float) -> float:
    return value * (1.0 + rng.uniform(-JITTER, JITTER))


def _kernel_counts(sim: Simulator) -> tuple:
    stats = sim.stats
    return (stats.events_executed, stats.microtasks_executed, stats.cancellations_skipped)


def _ms(seconds: float) -> float:
    return seconds * 1e3


# ----------------------------------------------------------------------
# The open-loop generator
# ----------------------------------------------------------------------
class OpenLoop:
    """Events at a fixed rate on the simulated clock, spread over
    partitions like random routing keys would.

    ``send(partition, count, size)`` returns the ack future.  Every
    group's intended send time is the tick it was due on; ``sends`` keeps
    them per partition so readers can be matched against them.
    """

    def __init__(
        self,
        sim: Simulator,
        send: Callable[[int, int, int], object],
        flush: Callable[[], object],
        rate: float,
        event_size: int,
        partitions: int,
        events: int,
        tick: float = 0.005,
        warmup_events: int = 0,
    ) -> None:
        self.sim = sim
        self._send = send
        self._flush = flush
        self.rate = rate
        self.event_size = event_size
        self.partitions = partitions
        self.events = events
        self.tick = tick
        self.warmup_events = warmup_events
        #: as the repo's own driver: ~2 s of offered load may sit unacked
        self.backlog_cap = rate * 2.0 + 10_000
        self.due = 0
        self.sent = 0
        self.acked = 0
        self.shed = 0
        self.errors = 0
        self.first_send = 0.0
        self.last_ack = 0.0
        #: per partition, in send order: (events, intended send time,
        #: whether the group was due after the warm-up share)
        self.sends: List[List[tuple]] = [[] for _ in range(partitions)]
        #: ack latency of every group due after the warm-up share
        self.ack_latencies: List[float] = []

    def process(self):
        sim = self.sim
        tick = self.tick
        partitions = self.partitions
        size = self.event_size
        carry = 0.0
        rotate = 0
        self.first_send = sim.now + tick
        while self.due < self.events:
            yield tick
            carry += self.rate * tick
            count = min(int(carry), self.events - self.due)
            if count <= 0:
                continue
            carry -= count
            measured = self.due >= self.warmup_events
            self.due += count
            if self.sent - self.acked > self.backlog_cap:
                self.shed += count
                continue
            now = sim.now
            base, remainder = divmod(count, partitions)
            for offset in range(partitions):
                share = base + (1 if offset < remainder else 0)
                if share <= 0:
                    break
                partition = (rotate + offset) % partitions
                self.sent += share
                self.sends[partition].append((share, now, measured))
                self._send(partition, share, size).add_callback(
                    partial(self._on_ack, share, now, measured)
                )
            rotate += 1
        yield self._flush()

    def _on_ack(self, count: int, send_time: float, measured: bool, fut) -> None:
        if fut.exception is not None:
            self.errors += count
            return
        self.acked += count
        now = self.sim.now
        self.last_ack = now
        if measured:
            self.ack_latencies.append(now - send_time)


def _latency_stats(prefix: str, samples: List[float]) -> Dict[str, float]:
    ordered = sorted(samples)
    return {
        f"{prefix}_p50_ms": _ms(percentile(ordered, 0.50)),
        f"{prefix}_p99_ms": _ms(percentile(ordered, 0.99)),
        f"{prefix}_samples": len(ordered),
    }


# ----------------------------------------------------------------------
# Public counters of the modelled components
# ----------------------------------------------------------------------
def device_counters(sim: Simulator) -> Dict[str, float]:
    """Disk and NIC counters of every device on ``sim`` (devices enrol
    themselves in the simulator's public fluid-resource registry)."""
    out = dict.fromkeys(
        ("disk_ops", "disk_bytes", "disk_switches", "net_msgs", "net_bytes"), 0
    )
    for resource in sim.fluid_resources:
        if isinstance(resource, Disk):
            out["disk_ops"] += resource.ops
            out["disk_bytes"] += resource.bytes_written
            out["disk_switches"] += resource.switches
        elif isinstance(resource, Host):
            out["net_msgs"] += resource.messages_sent
            out["net_bytes"] += resource.bytes_sent
    return out


_CONTAINER_COUNTERS = (
    "append.count",
    "append.throttled",
    "append.cache_throttled",
    "read.cache_hits",
    "read.cache_misses",
    "read.lts_fetch_ops",
    "read.lts_bytes",
    "cache.evictions",
    "tier.flushes",
)


def pravega_counters(cluster: PravegaCluster) -> Dict[str, float]:
    """Container, tiering and LTS counters summed over the cluster."""
    out = dict.fromkeys(_CONTAINER_COUNTERS, 0.0)
    out["lts_chunks_written"] = 0
    seen = set()
    for store in cluster.stores.values():
        for container in store.containers.values():
            out["lts_chunks_written"] += container.storage_writer.chunks_written
            registry = container.metrics
            if id(registry) in seen:
                continue
            seen.add(id(registry))
            counters = registry.counters()
            for name in _CONTAINER_COUNTERS:
                out[name] += counters.get(name, 0.0)
    out["lts_bytes_written"] = cluster.lts.bytes_written
    out["lts_bytes_read"] = cluster.lts.bytes_read
    return out


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before.get(name, 0) for name in after}


# ----------------------------------------------------------------------
# Workload base
# ----------------------------------------------------------------------
class Workload:
    """One (workload, seed, size) instance; ``setup``/``run``/``collect``
    may be called once each, in that order."""

    name = ""
    #: one line for BENCHMARK.json: why the workload exists
    why = ""

    def __init__(self, seed: int, size: str, make_sim: SimFactory, tracer_factory=None) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.sizes = SIZES[self.name][size]
        self.warmup_s = WARMUP_SIM_S[size]
        self.make_sim = make_sim
        #: ``tracer_factory(sim)`` returns a ``repro.obs.Tracer`` for the
        #: simulated-critical-path pass; None on every other pass
        self.tracer_factory = tracer_factory
        self.tracers: List[object] = []
        self.sims: List[Simulator] = []
        self._kernel_base: Optional[List[tuple]] = None
        self.generate()

    def generate(self) -> None:
        """Derive this run's inputs from ``self.rng``."""
        raise NotImplementedError

    def inputs(self) -> Dict[str, float]:
        """The generated inputs, for the run manifest."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def collect(self) -> Dict[str, float]:
        raise NotImplementedError

    # -- helpers -------------------------------------------------------
    def new_sim(self) -> Simulator:
        sim = self.make_sim()
        self.sims.append(sim)
        return sim

    def attach(self, sim: Simulator, adapter) -> None:
        """Wire a tracer into ``adapter`` on the critical-path pass."""
        if self.tracer_factory is not None:
            tracer = self.tracer_factory(sim)
            attach_tracer(adapter, tracer)
            self.tracers.append(tracer)

    def mark_timed_start(self) -> None:
        """Call at the end of a set-up that already ran the simulator, so
        the kernel counters cover the timed region only."""
        self._kernel_base = [_kernel_counts(sim) for sim in self.sims]

    def kernel_stats(self) -> Dict[str, int]:
        """Kernel counters of the timed region, summed over simulators."""
        base = self._kernel_base or [(0, 0, 0)] * len(self.sims)
        now = [_kernel_counts(sim) for sim in self.sims]
        heap, micro, skipped = (
            sum(after[i] - before[i] for after, before in zip(now, base))
            for i in range(3)
        )
        return {
            "kernel_events": heap + micro,
            "kernel_microtasks": micro,
            "kernel_cancel_skipped": skipped,
            "kernel_heap_peak": max(sim.stats.heap_peak for sim in self.sims),
        }

    def leg_walls(self) -> Dict[str, float]:
        """Host seconds per system leg (parallel_3sys only)."""
        return {}


def _warm(
    make_adapter: Callable[[Simulator], object], spec: WorkloadSpec, sim_s: float
) -> None:
    """The untimed warm-up: the same spec, for ``sim_s`` simulated
    seconds, on a throw-away simulator."""
    sim = Simulator()
    run_workload(sim, make_adapter(sim), replace(spec, warmup=0.0, duration=sim_s))


def _due_events(spec: WorkloadSpec) -> int:
    """Events the repo's open-loop driver is due to generate for ``spec``
    (its per-producer carry arithmetic, replayed)."""
    per_tick = spec.target_rate / spec.producers * spec.tick
    load_end = spec.warmup + spec.duration
    carry = 0.0
    due = 0
    now = 0.0
    while now < load_end:
        now += spec.tick
        carry += per_tick
        count = int(carry)
        carry -= count
        due += count
    return due * spec.producers


def _write_stats(spec: WorkloadSpec, result, due: int) -> Dict[str, float]:
    acked = int(result.extra["produced_total"])
    return {
        "due": due,
        "acked": acked,
        "errors": result.errors,
        "load_timed_out": int(result.extra.get("load_timed_out", 0)),
        "write_p50_ms": _ms(result.write_latency.p50),
        "write_p99_ms": _ms(result.write_latency.p99),
        "write_samples": result.write_latency.count,
    }


# ----------------------------------------------------------------------
# write_small
# ----------------------------------------------------------------------
class WriteSmall(Workload):
    name = "write_small"
    why = (
        "Pure Pravega write path at 100 B events (client batching, container, "
        "durable log, BookKeeper, disk/net models); no reads, no Kafka/Pulsar"
    )

    def generate(self) -> None:
        rate = _jitter(self.rng, 200_000.0)
        load_s = self.sizes["events"] / rate
        self.spec = WorkloadSpec(
            event_size=round(_jitter(self.rng, 100)),
            target_rate=rate,
            partitions=16,
            producers=4,
            consumers=0,
            warmup=load_s / 7.0,
            duration=load_s * 6.0 / 7.0,
        )

    def inputs(self) -> Dict[str, float]:
        spec = self.spec
        return {
            "event_size": spec.event_size,
            "rate_eps": spec.target_rate,
            "segments": spec.partitions,
            "writers": spec.producers,
            "warmup_s": spec.warmup,
            "window_s": spec.duration,
        }

    def setup(self) -> None:
        _warm(PravegaAdapter, self.spec, self.warmup_s)
        self.sim = self.new_sim()
        self.adapter = PravegaAdapter(self.sim)
        self.attach(self.sim, self.adapter)

    def run(self) -> None:
        tracer = self.tracers[0] if self.tracers else None
        self.result = run_workload(self.sim, self.adapter, self.spec, tracer=tracer)

    def collect(self) -> Dict[str, float]:
        spec = self.spec
        stats = _write_stats(spec, self.result, _due_events(spec))
        stats.update(
            ops=stats["acked"],
            attempted=stats["due"],
            user_bytes=stats["acked"] * spec.event_size,
            goodput_mbps=self.result.produce_mbps / 1e6,
            op_p50_ms=stats["write_p50_ms"],
            op_p99_ms=stats["write_p99_ms"],
            op_samples=stats["write_samples"],
            sim_end_s=self.sim.now,
        )
        stats.update(self.kernel_stats())
        stats.update(device_counters(self.sim))
        stats.update(pravega_counters(self.adapter.cluster))
        return stats


# ----------------------------------------------------------------------
# Readers through the public cluster API
# ----------------------------------------------------------------------
def _create_readers(
    sim: Simulator,
    cluster: PravegaCluster,
    groups: int,
    readers_per_group: int,
    event_size: int,
    hosts: int = 4,
) -> List[List[object]]:
    """``groups`` reader groups on bench/stream, each with
    ``readers_per_group`` joined readers.  Every reader is registered
    before the first one acquires, so segments split evenly."""
    config = ReaderConfig(fixed_event_size=event_size)
    out: List[List[object]] = []
    for g in range(groups):
        host = f"bench-{g % hosts}"
        group = sim.run_until_complete(
            cluster.create_reader_group(host, f"group-{g}", "bench", "stream"),
            timeout=300,
        )
        ids = [f"group-{g}-reader-{r}" for r in range(readers_per_group)]
        for reader_id in ids:
            sim.run_until_complete(group.add_reader(reader_id), timeout=300)
        readers = []
        for reader_id in ids:
            reader = cluster.create_reader(host, reader_id, group, config)
            sim.run_until_complete(reader.join(), timeout=300)
            readers.append(reader)
        out.append(readers)
    return out


class _Delivery:
    """What the reader groups received."""

    def __init__(self, groups: int, partitions: int) -> None:
        self.events = [0] * groups
        self.reads = 0
        self.last_delivery = 0.0
        #: per (group, partition): [index into the generator's send log,
        #: events of that entry already delivered]
        self.cursor = [[[0, 0] for _ in range(partitions)] for _ in range(groups)]
        self.latencies: List[float] = []


class ReaderWorkload(Workload):
    """Shared by the two workloads with reader groups on a
    ``PravegaAdapter`` cluster: ``self.loop`` is the generator whose acked
    events every group must receive."""

    groups = 16
    readers_per_group = 0
    segments = 0

    def reader_stagger(self) -> List[List[float]]:
        """Readers start within the first 50 simulated ms, in seeded order."""
        return [
            [self.rng.uniform(0.0, 0.05) for _ in range(self.readers_per_group)]
            for _ in range(self.groups)
        ]

    def open_readers(self) -> None:
        """End of set-up: join the reader groups and mark where the timed
        region's counters start."""
        self.readers = _create_readers(
            self.sim, self.adapter.cluster, self.groups, self.readers_per_group, self.event_size
        )
        self.delivery = _Delivery(self.groups, self.segments)
        self.mark_timed_start()
        self.start_time = self.sim.now
        self.before = self._counters()

    def _counters(self) -> Dict[str, float]:
        out = device_counters(self.sim)
        out.update(pravega_counters(self.adapter.cluster))
        return out

    def _on_batch(self, group: int, batch, now: float) -> None:
        """Record one latency sample (or several) for a delivered batch."""
        raise NotImplementedError

    def _consume(self, group: int, reader, delay: float):
        delivery = self.delivery
        sim = self.sim
        yield delay
        while True:
            try:
                batch = yield reader.read_next()
            except Interrupt:
                return
            now = sim.now
            delivery.reads += 1
            delivery.events[group] += batch.event_count
            delivery.last_delivery = now
            self._on_batch(group, batch, now)

    def start_consumers(self) -> List[object]:
        return [
            self.sim.process(self._consume(g, reader, self.stagger[g][r]))
            for g, readers in enumerate(self.readers)
            for r, reader in enumerate(readers)
        ]

    def finish_consumers(self, consumers: List[object], patience_s: float) -> None:
        """Run until every group has every acked event (or ``patience_s``
        simulated seconds pass), then stop the readers."""
        sim = self.sim
        deadline = sim.now + patience_s
        target = self.loop.acked
        while any(n < target for n in self.delivery.events) and sim.now < deadline:
            sim.run(until=sim.now + 0.05)
        for proc in consumers:
            proc.interrupt()
        sim.run(until=sim.now + 0.1)

    def delivery_stats(self, span_s: float) -> Dict[str, float]:
        """The statistics both reader workloads report; ``span_s`` is the
        simulated time the deliveries took."""
        loop = self.loop
        delivered = sum(self.delivery.events)
        stats = {
            "due": loop.due,
            "sent": loop.sent,
            "acked": loop.acked,
            "shed": loop.shed,
            "errors": loop.errors,
            "delivered": delivered,
            "reads": self.delivery.reads,
            "ops": delivered,
            "attempted": loop.due * self.groups,
            "user_bytes": loop.acked * self.event_size,
            "delivered_bytes": delivered * self.event_size,
            "goodput_mbps": delivered * self.event_size / span_s / 1e6,
            "sim_end_s": self.sim.now,
        }
        stats.update(self.kernel_stats())
        stats.update(_latency_stats("write", loop.ack_latencies))
        stats.update(_latency_stats("op", self.delivery.latencies))
        stats.update(_delta(self._counters(), self.before))
        return stats


# ----------------------------------------------------------------------
# tail_fanout
# ----------------------------------------------------------------------
class TailFanout(ReaderWorkload):
    name = "tail_fanout"
    why = (
        "One writer beside 16 groups x 4 tail readers: each append is delivered "
        "16 times, so tail-read serving dominates; write_small is its counter-workload"
    )
    readers_per_group = 4
    segments = 4

    def generate(self) -> None:
        self.rate = _jitter(self.rng, 50_000.0)
        self.event_size = round(_jitter(self.rng, 100))
        self.events = int(self.sizes["events"])
        #: the first 1/15 of the events warm the path up and are not sampled
        self.warmup_events = self.events // 15
        self.stagger = self.reader_stagger()

    def inputs(self) -> Dict[str, float]:
        return {
            "event_size": self.event_size,
            "rate_eps": self.rate,
            "events": self.events,
            "segments": self.segments,
            "writers": 1,
            "reader_groups": self.groups,
            "readers_per_group": self.readers_per_group,
        }

    def setup(self) -> None:
        spec = WorkloadSpec(
            event_size=self.event_size,
            target_rate=self.rate,
            partitions=self.segments,
            producers=1,
            consumers=self.readers_per_group,
        )
        _warm(PravegaAdapter, spec, self.warmup_s)
        sim = self.sim = self.new_sim()
        adapter = self.adapter = PravegaAdapter(sim)
        adapter.setup(self.segments)
        producer = adapter.new_producer("bench-0")
        self.loop = OpenLoop(
            sim,
            producer.send_group,
            producer.flush,
            rate=self.rate,
            event_size=self.event_size,
            partitions=self.segments,
            events=self.events,
            warmup_events=self.warmup_events,
        )
        self.open_readers()

    def _on_batch(self, group: int, batch, now: float) -> None:
        # Match the delivered events against the send log: one
        # send-to-delivered sample per send group this batch completes.
        cursor = self.delivery.cursor[group][batch.segment_number]
        log = self.loop.sends[batch.segment_number]
        latencies = self.delivery.latencies
        remaining = batch.event_count
        while remaining > 0:
            count, send_time, measured = log[cursor[0]]
            take = min(count - cursor[1], remaining)
            remaining -= take
            cursor[1] += take
            if cursor[1] == count:
                cursor[0] += 1
                cursor[1] = 0
                if measured:
                    latencies.append(now - send_time)

    def run(self) -> None:
        consumers = self.start_consumers()
        self.sim.run_until_complete(self.sim.process(self.loop.process()), timeout=600)
        self.finish_consumers(consumers, patience_s=30.0)

    def collect(self) -> Dict[str, float]:
        stats = self.delivery_stats(self.delivery.last_delivery - self.loop.first_send)
        # Here an op's latency is send -> delivered; keep it under its own
        # name too, beside the writer's ack latency.
        for key in ("p50_ms", "p99_ms"):
            stats[f"e2e_{key}"] = stats[f"op_{key}"]
        return stats


# ----------------------------------------------------------------------
# replay_cold
# ----------------------------------------------------------------------
class ReplayCold(ReaderWorkload):
    name = "replay_cold"
    why = (
        "16 groups x 16 readers replay a tiered backlog whose older part left the cache, "
        "no concurrent writes: cache-miss/LTS-fetch/read-ahead path; the write path only in set-up"
    )
    readers_per_group = 16
    segments = 16
    #: the backlog generator's tick; coarser than the 5 ms of the write
    #: workloads because the backlog build is set-up, not the measurement
    backlog_tick = 0.02

    def generate(self) -> None:
        self.event_size = round(_jitter(self.rng, 10_000))
        self.rate = _jitter(self.rng, 100e6) / self.event_size
        self.events = int(self.sizes["backlog_mb"] * 1e6) // self.event_size
        self.stagger = self.reader_stagger()

    def inputs(self) -> Dict[str, float]:
        return {
            "event_size": self.event_size,
            "backlog_rate_eps": self.rate,
            "backlog_events": self.events,
            "backlog_bytes": self.events * self.event_size,
            "segments": self.segments,
            "reader_groups": self.groups,
            "readers_per_group": self.readers_per_group,
        }

    def _write_backlog(self, sim: Simulator, adapter: PravegaAdapter, events: int) -> OpenLoop:
        adapter.setup(self.segments)
        producer = adapter.new_producer("bench-0")
        loop = OpenLoop(
            sim,
            producer.send_group,
            producer.flush,
            rate=self.rate,
            event_size=self.event_size,
            partitions=self.segments,
            events=events,
            tick=self.backlog_tick,
        )
        sim.run_until_complete(sim.process(loop.process()), timeout=3600)
        return loop

    def setup(self) -> None:
        warm_sim = Simulator()
        self._write_backlog(
            warm_sim, PravegaAdapter(warm_sim), int(self.rate * self.warmup_s)
        )
        sim = self.sim = self.new_sim()
        adapter = self.adapter = PravegaAdapter(sim)
        self.loop = self._write_backlog(sim, adapter, self.events)
        deadline = sim.now + 600.0
        while adapter.lts_backlog_bytes() > 0 and sim.now < deadline:
            sim.run(until=sim.now + 0.25)
        self.tiered = adapter.lts_backlog_bytes() == 0
        self.open_readers()

    def cache_bytes(self) -> int:
        """Cache capacity of the containers that own the stream's segments."""
        cluster = self.adapter.cluster
        owners = set()
        for number in range(self.segments):
            name = f"bench/stream/{number}"
            store = cluster.store_cluster.store_for_segment(name)
            owners.add(id(store.container_for(name)))
        container = next(iter(cluster.stores.values())).config.container
        return len(owners) * container.cache.capacity_bytes

    def _on_batch(self, group: int, batch, now: float) -> None:
        # A catch-up reader wants the whole backlog now: every delivery
        # was due when the replay started.
        self.delivery.latencies.append(now - self.start_time)

    def run(self) -> None:
        self.finish_consumers(self.start_consumers(), patience_s=600.0)

    def collect(self) -> Dict[str, float]:
        # The backlog's writes happen in set-up; their simulated ack
        # latency is still this workload's only write statistic.
        catch_up = self.delivery.last_delivery - self.start_time
        stats = self.delivery_stats(catch_up)
        stats.update(
            tiered=int(self.tiered), catch_up_s=catch_up, cache_bytes=self.cache_bytes()
        )
        return stats


# ----------------------------------------------------------------------
# parallel_3sys
# ----------------------------------------------------------------------
@dataclass
class _Leg:
    system: str
    sim: Simulator
    adapter: object
    result: object = None
    wall_s: float = 0.0


class Parallel3Sys(Workload):
    name = "parallel_3sys"
    why = (
        "Fig. 10a point (1 KB, 250 MB/s, 500 partitions as a k=20 slice, 100 writers) "
        "on Pravega, Kafka, Pulsar back to back: only here kafka/pulsar/file model carry load"
    )
    slice_factor = 20
    partitions = 500
    writers = 100

    SYSTEMS = {
        "pravega": lambda sim, k: PravegaAdapter(sim, slice_factor=k),
        "kafka": lambda sim, k: KafkaAdapter(sim, slice_factor=k),
        "pulsar": lambda sim, k: PulsarAdapter(sim, tiering=False, slice_factor=k),
    }

    def generate(self) -> None:
        rng = self.rng
        k = self.slice_factor
        event_size = round(_jitter(rng, 1_000))
        rate = _jitter(rng, 250e6) / event_size
        window = self.sizes["window_s"]
        self.spec = WorkloadSpec(
            event_size=event_size,
            target_rate=rate / k,
            partitions=self.partitions // k,
            producers=self.writers,
            consumers=0,
            warmup=window * 3.0 / 8.0,
            duration=window,
            tick=0.02,
            bench_hosts=10,
            backlog_cap=10.0 * rate / k,
            ack_grace=0.25 + 0.01 * k,
        )

    def inputs(self) -> Dict[str, float]:
        spec = self.spec
        return {
            "event_size": spec.event_size,
            "rate_eps": spec.target_rate * self.slice_factor,
            "partitions": self.partitions,
            "slice_factor": self.slice_factor,
            "simulated_partitions": spec.partitions,
            "writers": spec.producers,
            "bench_hosts": spec.bench_hosts,
            "tick_s": spec.tick,
            "warmup_s": spec.warmup,
            "window_s": spec.duration,
        }

    def setup(self) -> None:
        k = self.slice_factor
        self.legs: List[_Leg] = []
        for system, make in self.SYSTEMS.items():
            _warm(lambda sim, make=make: make(sim, k), self.spec, self.warmup_s)
            sim = self.new_sim()
            adapter = make(sim, k)
            if system == "pravega":
                self.attach(sim, adapter)
            self.legs.append(_Leg(system, sim, adapter))

    def run(self) -> None:
        from time import perf_counter

        tracer = self.tracers[0] if self.tracers else None
        for leg in self.legs:
            start = perf_counter()
            leg.result = run_workload(
                leg.sim,
                leg.adapter,
                self.spec,
                series_interval=self.spec.duration / 8.0,
                tracer=tracer if leg.system == "pravega" else None,
            )
            leg.wall_s = perf_counter() - start

    def _sustained_mbps(self, leg: _Leg) -> float:
        """Ack rate over the second half of the window, scaled back up
        from the slice (grace-independent; see bench_fig10)."""
        spec = self.spec
        end = leg.result.extra["window_end"]
        rate = leg.result.series["acked_eps"].window_mean(end - spec.duration / 2.0, end)
        return rate * spec.event_size * self.slice_factor / 1e6

    def collect(self) -> Dict[str, float]:
        spec = self.spec
        due = _due_events(spec)
        stats: Dict[str, float] = {"due": 0, "acked": 0, "errors": 0, "load_timed_out": 0}
        totals = dict.fromkeys(
            ("disk_ops", "disk_bytes", "disk_switches", "net_msgs", "net_bytes"), 0
        )
        for leg in self.legs:
            leg_stats = _write_stats(spec, leg.result, due)
            for name in ("due", "acked", "errors", "load_timed_out"):
                stats[name] += leg_stats[name]
            stats[f"{leg.system}.acked"] = leg_stats["acked"]
            stats[f"{leg.system}.kernel_events"] = sum(_kernel_counts(leg.sim)[:2])
            stats[f"{leg.system}.goodput_mbps"] = self._sustained_mbps(leg)
            stats[f"{leg.system}.crashed"] = int(leg.result.crashed)
            stats[f"{leg.system}.sim_end_s"] = leg.sim.now
            for name, value in device_counters(leg.sim).items():
                totals[name] += value
            if leg.system == "pravega":
                stats.update(
                    write_p50_ms=leg_stats["write_p50_ms"],
                    write_p99_ms=leg_stats["write_p99_ms"],
                    write_samples=leg_stats["write_samples"],
                )
                stats.update(pravega_counters(leg.adapter.cluster))
        stats.update(totals)
        stats.update(
            ops=stats["acked"],
            attempted=stats["due"],
            user_bytes=stats["acked"] * spec.event_size,
            goodput_mbps=stats["pravega.goodput_mbps"],
            op_p50_ms=stats["write_p50_ms"],
            op_p99_ms=stats["write_p99_ms"],
            op_samples=stats["write_samples"],
            sim_end_s=sum(leg.sim.now for leg in self.legs),
        )
        stats.update(self.kernel_stats())
        return stats

    def leg_walls(self) -> Dict[str, float]:
        return {leg.system: leg.wall_s for leg in self.legs}


WORKLOADS = {
    cls.name: cls for cls in (WriteSmall, TailFanout, ReplayCold, Parallel3Sys)
}
