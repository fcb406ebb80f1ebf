"""Read-path serving-tier benchmark: tail fan-out, mass replay, reader-heavy.

Three experiment families, all deterministic except wall-clock fields:

* **fanout** — N independent tail clients on one segment; per-event
  delivery latency percentiles vs reader count, up to the 1000-reader
  point that motivates the shared tail fan-out (one append resolves
  every parked future from one cache read, with no per-request reader
  process).
* **replay** — a mass historical replay (many readers catching up
  through the same cold LTS-resident backlog) with single-flight fetch
  coalescing off vs on; the headline is LTS read ops saved at equal
  delivered bytes.
* **reader_heavy** — the end-to-end client-stack scenario (64 reader
  groups over 2 segments) whose best-of-5 simulator wall is compared
  against the recorded pre-optimization baseline.

Driven by ``python -m repro.bench run read [--check]`` (``make
bench-read`` / ``make read-check``): the full run writes
BENCH_read.json, ``--check`` runs cheap variants of every family and
holds them to the same claim rows (``fanout.*``, ``replay.*``,
``reader_heavy.*`` in :mod:`repro.bench.claims`)
without touching the JSON.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

from repro.bench import harness
from repro.pravega import PravegaCluster, PravegaClusterConfig
from repro.pravega.client.reader import ReaderConfig
from repro.pravega.client.serializers import framed_size
from repro.pravega.container.cache import CacheSpec
from repro.pravega.container.container import ContainerConfig, ServingConfig
from repro.pravega.container.storage_writer import StorageWriterConfig
from repro.pravega.model import ScalingPolicy, StreamConfiguration
from repro.pravega.segment_store import SegmentStoreConfig
from repro.sim.core import Interrupt, Simulator

#: best-of-5 simulator wall of ``run_reader_heavy()`` on the commit
#: immediately before the serving tier + read hot-path cuts landed
#: (recorded by running this same scenario against that tree).
BASELINE_WALL_S = 2.4518
#: kernel events the default config must execute exactly: the baseline
#: run's count while the hot-path cuts were event-neutral, re-pinned at
#: each deliberate re-sequencing.  331,810 → 331,809 when the writer's
#: flush() became a drain future instead of a 1 ms poll (one fewer poll
#: wake-up at the end of produce()); 331,809 → 280,481 when tail reads
#: stopped parking a container process (a bare future the append fan-out
#: resolves is now the only park).
BASELINE_KERNEL_EVENTS = 280_481

SEED = 7

#: cache used by the fan-out scenarios (64 KiB blocks, 128 MiB)
READ_CACHE = CacheSpec(block_size=65536, blocks_per_buffer=32, max_buffers=64)


def _kernel_events(sims: List[Simulator]) -> int:
    return sum(s._events_executed + s._microtasks_executed for s in sims)


def _build_cluster(
    sim: Simulator,
    cache: CacheSpec = READ_CACHE,
    serving=None,
    storage: Optional[StorageWriterConfig] = None,
    **overrides,
) -> PravegaCluster:
    container_kw = {"cache": cache}
    if serving is not None:
        container_kw["serving"] = serving
    if storage is not None:
        container_kw["storage"] = storage
    config = PravegaClusterConfig(
        lts_kind=overrides.pop("lts_kind", "memory"),
        store=SegmentStoreConfig(container=ContainerConfig(**container_kw)),
        **overrides,
    )
    cluster = PravegaCluster.build(sim, config)
    sim.run_until_complete(cluster.start(), timeout=120)
    return cluster


def _make_stream(sim, cluster, scope, stream, segments):
    client = cluster.controller_client("bench-0")
    sim.run_until_complete(client.create_scope(scope), timeout=120)
    sim.run_until_complete(
        client.create_stream(
            scope, stream, StreamConfiguration(scaling=ScalingPolicy.fixed(segments))
        ),
        timeout=120,
    )
    return client


def _segment_location(sim, cluster, scope, stream, number=0):
    client = cluster.controller_client("bench-0")
    loc = sim.run_until_complete(
        client.get_location(scope, stream, number), timeout=120
    )
    return loc.qualified_name, cluster.stores[loc.store_host]


def _sum_counter(cluster, name: str) -> float:
    registries = {}
    for store in cluster.stores.values():
        for container in store.containers.values():
            registries[id(container.metrics)] = container.metrics
    return sum(reg.counter(name).value for reg in registries.values())


def _pct(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = q * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    weight = rank - low
    return sorted_values[low] * (1 - weight) + sorted_values[high] * weight


# ----------------------------------------------------------------------
# fanout: N raw tail clients, one segment, shared delivery
# ----------------------------------------------------------------------
def run_fanout(
    readers: int,
    events: int = 40,
    event_size: int = 4096,
    tick: float = 0.002,
) -> Dict[str, object]:
    """N clients park a tail read on the same segment; every append must
    reach every client.  Measures per-event delivery latency (from write
    submission to client receipt) and the simulator wall for the point.
    """
    random.seed(SEED)
    start = time.perf_counter()
    sim = Simulator()
    cluster = _build_cluster(sim)
    _make_stream(sim, cluster, "read", "tail", 1)
    qualified, store = _segment_location(sim, cluster, "read", "tail")
    writer = cluster.create_writer("bench-0", "read", "tail")
    frame = framed_size(event_size)
    total_bytes = events * frame

    send_times: List[float] = []
    latencies: List[float] = []
    finished = [0]

    def tail_client(host):
        offset = 0
        while offset < total_bytes:
            result = yield store.rpc_read(host, qualified, offset, 1 << 20)
            if result.end_of_segment:
                break
            now = sim.now
            first = offset // frame
            offset += result.payload.size
            for k in range(first, offset // frame):
                latencies.append(now - send_times[k])
        finished[0] += 1

    for i in range(readers):
        sim.process(tail_client(f"bench-{i % 4}"))

    def produce():
        for _ in range(events):
            send_times.append(sim.now)
            writer.write_synthetic_events(1, event_size)
            yield tick
        yield writer.flush()

    sim.run_until_complete(sim.process(produce()), timeout=600)
    deadline = sim.now + 30.0
    while finished[0] < readers and sim.now < deadline:
        sim.run(until=sim.now + 0.1)
    wall = time.perf_counter() - start
    latencies.sort()
    return {
        "readers": readers,
        "events": events,
        "delivered_events": len(latencies),
        "caught_up": finished[0] == readers,
        "p50_ms": round(_pct(latencies, 0.50) * 1e3, 6),
        "p99_ms": round(_pct(latencies, 0.99) * 1e3, 6),
        "max_ms": round(_pct(latencies, 1.0) * 1e3, 6),
        "kernel_events": _kernel_events([sim]),
        "sim_time_s": round(sim.now, 9),
        "wall_s": wall,
    }


# ----------------------------------------------------------------------
# replay: a cold backlog tiered out to a realistic LTS
# ----------------------------------------------------------------------
def _tiered_backlog(
    stream: str,
    serving: ServingConfig,
    backlog_bytes: int,
    cache_bytes: int,
    event_size: int,
):
    """A one-segment stream whose ``backlog_bytes`` of events have all
    been flushed to an EFS-like LTS (fetches take long enough that
    lockstep readers overlap on the same cold chunk) behind a cache of
    ``cache_bytes``.  Returns (sim, cluster, store, qualified segment
    name, container, bytes written)."""
    cache = CacheSpec(
        block_size=65536,
        blocks_per_buffer=8,
        max_buffers=max(2, cache_bytes // (65536 * 8)),
    )
    storage = StorageWriterConfig(flush_threshold=262144, flush_timeout=0.1)
    sim = Simulator()
    cluster = _build_cluster(
        sim, cache=cache, serving=serving, storage=storage, lts_kind="efs"
    )
    _make_stream(sim, cluster, "read", stream, 1)
    qualified, store = _segment_location(sim, cluster, "read", stream)
    writer = cluster.create_writer("bench-0", "read", stream)
    events = backlog_bytes // framed_size(event_size)
    total_bytes = events * framed_size(event_size)

    def produce():
        for _ in range(events):
            writer.write_synthetic_events(1, event_size)
            yield 0.0005
        yield writer.flush()

    sim.run_until_complete(sim.process(produce()), timeout=600)
    container = store.container_for(qualified)
    deadline = sim.now + 60.0
    while (
        container.storage_writer.flushed_offset(qualified) < total_bytes
        and sim.now < deadline
    ):
        sim.run(until=sim.now + 0.25)
    assert container.storage_writer.flushed_offset(qualified) >= total_bytes, (
        "backlog did not tier out to LTS"
    )
    return sim, cluster, store, qualified, container, total_bytes


def run_replay(
    coalesce: bool,
    readers: int = 32,
    backlog_bytes: int = 24 * 1024 * 1024,
    cache_bytes: int = 8 * 1024 * 1024,
    event_size: int = 8192,
) -> Dict[str, object]:
    """Many readers replay the same cold, LTS-resident backlog in
    lockstep.  Without single-flight coalescing every reader fetches
    every chunk; with it one storage read resolves all concurrent
    waiters (including the read-ahead they would have duplicated)."""
    random.seed(SEED)
    start = time.perf_counter()
    serving = ServingConfig(coalesce_lts_fetches=coalesce)
    sim, cluster, store, qualified, _, total_bytes = _tiered_backlog(
        "replay", serving, backlog_bytes, cache_bytes, event_size
    )

    delivered = [0] * readers
    finished = [0]

    def replayer(index, host):
        offset = 0
        while offset < total_bytes:
            result = yield store.rpc_read(host, qualified, offset, 262144)
            if result.end_of_segment:
                break
            offset += result.payload.size
            delivered[index] += result.payload.size
        finished[0] += 1

    for i in range(readers):
        sim.process(replayer(i, f"bench-{i % 4}"))
    deadline = sim.now + 300.0
    while finished[0] < readers and sim.now < deadline:
        sim.run(until=sim.now + 0.25)
    wall = time.perf_counter() - start
    return {
        "coalesce": coalesce,
        "readers": readers,
        "backlog_bytes": total_bytes,
        "delivered_bytes": sum(delivered),
        "caught_up": finished[0] == readers,
        "lts_fetch_ops": _sum_counter(cluster, "read.lts_fetch_ops"),
        "coalesced_fetches": _sum_counter(cluster, "read.coalesced_fetches"),
        "cache_hits": _sum_counter(cluster, "read.cache_hits"),
        "cache_misses": _sum_counter(cluster, "read.cache_misses"),
        "kernel_events": _kernel_events([sim]),
        "sim_time_s": round(sim.now, 9),
        "wall_s": wall,
    }


# ----------------------------------------------------------------------
# reader_heavy: full client stack, wall-clock headline
# ----------------------------------------------------------------------
def run_reader_heavy(
    groups: int = 64,
    segments: int = 2,
    rate: float = 2000.0,
    event_size: int = 400,
    duration: float = 2.0,
) -> Dict[str, object]:
    """64 single-reader groups tail one stream: every append fans out
    to every reader.  Returns the record for one run (wall included)."""
    random.seed(SEED)
    start = time.perf_counter()
    sim = Simulator()
    cluster = _build_cluster(sim)
    _make_stream(sim, cluster, "read", "fanout", segments)
    writer = cluster.create_writer("bench-0", "read", "fanout")

    readers = []
    for g in range(groups):
        host = f"bench-{g % 2}"
        group = sim.run_until_complete(
            cluster.create_reader_group(host, f"fan-{g}", "read", "fanout"),
            timeout=300,
        )
        reader = cluster.create_reader(
            host, f"fan-{g}-r0", group, ReaderConfig(fixed_event_size=event_size)
        )
        sim.run_until_complete(reader.join(), timeout=300)
        readers.append(reader)

    consumed = [0] * groups

    def consume(index, reader):
        while True:
            try:
                batch = yield reader.read_next()
            except Interrupt:
                return
            consumed[index] += batch.event_count

    procs = [sim.process(consume(i, r)) for i, r in enumerate(readers)]
    total = [0]

    def produce():
        tick = 0.005
        per_tick = max(1, int(rate * tick))
        for _ in range(int(duration / tick)):
            writer.write_synthetic_events(per_tick, event_size)
            total[0] += per_tick
            yield tick
        yield writer.flush()

    sim.run_until_complete(sim.process(produce()), timeout=600)
    deadline = sim.now + 30.0
    while any(c < total[0] for c in consumed) and sim.now < deadline:
        sim.run(until=sim.now + 0.25)
    for proc in procs:
        proc.interrupt()
    sim.run(until=sim.now + 0.1)
    wall = time.perf_counter() - start
    return {
        "groups": groups,
        "segments": segments,
        "events": total[0],
        "delivered_events": sum(consumed),
        "caught_up": all(c == total[0] for c in consumed),
        "kernel_events": _kernel_events([sim]),
        "sim_time_s": round(sim.now, 9),
        "wall_s": wall,
    }


# ----------------------------------------------------------------------
# Harness protocol (repro.bench.harness): one scenario per family
# ----------------------------------------------------------------------
REPEATS = 5
_MB = 1024 * 1024
#: the cheap variants --check runs (fan-out at the 100-reader point,
#: whose claim rows name it by its reader count)
_SMOKE_FANOUT = dict(readers=100, events=12)
_SMOKE_REPLAY = dict(readers=12, backlog_bytes=6 * _MB, cache_bytes=2 * _MB)


def _fanout(smoke: bool) -> Dict[str, object]:
    points = [run_fanout(**_SMOKE_FANOUT)] if smoke else [
        run_fanout(readers=n) for n in (10, 100, 1000)
    ]
    return {"points": {p["readers"]: p for p in points}}


def _replay(**kwargs) -> Dict[str, object]:
    off, on = run_replay(False, **kwargs), run_replay(True, **kwargs)
    ratio = off["lts_fetch_ops"] / max(on["lts_fetch_ops"], 1.0)
    return {"off": off, "on": on, "lts_ops_ratio": round(ratio, 3)}


def _reader_heavy(repeats: int):
    record, walls = harness.best_of(run_reader_heavy, repeats)
    walls = [round(wall, 4) for wall in walls]
    return {
        "baseline": {"wall_s": BASELINE_WALL_S, "kernel_events": BASELINE_KERNEL_EVENTS},
        "default": {
            **record,
            "wall_s_runs": walls,
            "wall_s": min(walls),
            "speedup": round(BASELINE_WALL_S / min(walls), 4),
        },
    }


def _seeded(run):
    """A family's thunk, its record carrying the seed every run reseeds to."""
    return lambda repeats: {"seed": SEED, **run(repeats)}


# (family, full thunk(repeats), smoke thunk(repeats), smoke budget s)
_FAMILIES = (
    ("fanout", lambda r: _fanout(smoke=False), lambda r: _fanout(smoke=True), 60.0),
    ("replay", lambda r: _replay(), lambda r: _replay(**_SMOKE_REPLAY), 60.0),
    ("reader_heavy", _reader_heavy, lambda r: _reader_heavy(1), 120.0),
)
SCENARIOS = [
    harness.row(name, _seeded(full), _seeded(smoke), budget)
    for name, full, smoke, budget in _FAMILIES
]


def describe(record: Dict) -> str:
    record = record["metrics"]
    if "points" in record:
        last = max(record["points"].values(), key=lambda p: p["readers"])
        return f"fanout@{last['readers']} p99 {last['p99_ms']:.3f} ms"
    if "lts_ops_ratio" in record:
        return (
            f"LTS ops {record['off']['lts_fetch_ops']:.0f} -> "
            f"{record['on']['lts_fetch_ops']:.0f} ({record['lts_ops_ratio']}x)"
        )
    return f"default {record['default']['wall_s']:.3f}s"
