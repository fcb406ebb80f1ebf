"""The workload driver (OpenMessaging-Benchmark-like, §5.1).

Open-loop producers generate events at a target rate, spread over the
topic's partitions according to the key mode ("random" routing keys by
default, as in the paper; "none" disables keys).  Consumers read
concurrently; end-to-end latency is matched through per-partition FIFO
trackers of send timestamps.  Events are generated in per-tick groups
(each group travels the real client/batching/replication path) so
million-events-per-second workloads stay tractable.

Two load-generation extensions plug in via :class:`WorkloadSpec`:

* ``arrival`` — a :class:`repro.workload.ArrivalProcess` replaces the
  constant ``target_rate`` with a time-varying, sim-seeded rate function
  (diurnal, bursty MMPP, flash crowd, ...).  Time is relative to load
  start, and each producer samples its share deterministically.
* ``key_skew`` — a :class:`repro.workload.KeySkew` replaces the uniform
  spread over the key table (Zipf, hot-key churn, ...).

The driver itself is factored as :class:`WorkloadEngine` (spawn the
producer/consumer processes; finalize the measurements) so that
multi-tenant runs (repro.workload.tenants) can multiplex several engines
through one simulation and one cluster.  :func:`run_workload` remains
the single-workload entry point with unchanged behaviour.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.common.metrics import TimeSeries
from repro.sim.core import Interrupt, SimFuture, SimulationError, Simulator, all_of
from repro.bench.results import BenchResult

__all__ = ["WorkloadSpec", "WorkloadEngine", "run_workload", "run_probe"]

GLOBAL_TRACKER = -1


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark configuration (the OMB workload grammar)."""

    event_size: int = 100
    #: offered load in events/second across all producers (ignored when
    #: ``arrival`` is set)
    target_rate: float = 10_000.0
    partitions: int = 1
    producers: int = 1
    consumers: int = 0
    #: "random" = random routing keys (paper default); "none" = no keys
    key_mode: str = "random"
    #: measured interval (after warmup)
    duration: float = 5.0
    warmup: float = 1.0
    #: load-generation granularity
    tick: float = 0.005
    #: benchmark-driver host count (Table 1: 2; §5.6 uses 10)
    bench_hosts: int = 2
    #: time-varying rate function (repro.workload.ArrivalProcess); when
    #: set, generation follows ``arrival.rate(t)`` with t=0 at load start
    arrival: Optional[object] = None
    #: key-spread model (repro.workload.KeySkew); None = uniform spread
    key_skew: Optional[object] = None
    #: max unacked backlog, in events, before the open loop stops piling
    #: on (None: 2x the *peak* rate + 10k — bursty arrivals legitimately
    #: exceed 2x the mean, so the cap scales with the pattern's peak)
    backlog_cap: Optional[float] = None
    #: how long after the window closes an ack of an in-window send still
    #: counts.  Representative-slice runs (adapters' ``slice_factor=k``)
    #: should grow this with k: the slice transform preserves *throughput*
    #: (1/k load against 1/k-bandwidth devices) but inflates individual
    #: op *latencies* by ~k, so a fixed grace misreads slice-inflated
    #: latency as lost throughput.  Keep it small relative to the window,
    #: or "sustains the rate" degenerates into "eventually drains the
    #: backlog" (DESIGN.md §9 — fig10 uses ``0.25 + 0.01*k``).
    ack_grace: float = 0.25
    #: seeds the arrival samplers and skew routers
    seed: int = 0

    def __post_init__(self) -> None:
        # bad configs fail here, not mid-run: tick=0 never advances the
        # clock, producers=0 divides by zero inside a process, duration=0
        # divides by zero at finalize, a negative rate, warmup or grace
        # reports a silent 0 events/s, backlog_cap<=0 sheds every tick, a
        # NaN anywhere reports NaN, and a typo'd key_mode would silently
        # mean "random"
        for name, low in (
            ("event_size", 1), ("partitions", 1), ("producers", 1),
            ("bench_hosts", 1), ("consumers", 0),
        ):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
        positive = ["tick", "duration"] + ([] if self.backlog_cap is None else ["backlog_cap"])
        for name in positive:
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")
        for name in ("warmup", "target_rate", "ack_grace"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")
        if self.key_mode not in ("random", "none"):
            raise ValueError(f"key_mode must be 'random' or 'none', got {self.key_mode!r}")

    @property
    def peak_rate(self) -> float:
        """The highest instantaneous offered rate of this workload."""
        if self.arrival is not None:
            return self.arrival.peak_rate
        return self.target_rate

    @property
    def effective_backlog_cap(self) -> float:
        if self.backlog_cap is not None:
            return self.backlog_cap
        return self.peak_rate * 2.0 + 10_000

    @property
    def effective_load_timeout(self) -> float:
        """Cap on total simulated load+flush time.  Hitting it does not
        abort the run: the result is finalized (the measurement window is
        long past) with ``extra["load_timed_out"] = 1.0``."""
        return self.warmup + self.duration * 20 + 600


@dataclass
class _Counters:
    sent_events: int = 0
    produced_events: int = 0
    produced_window: int = 0
    consumed_events: int = 0
    consumed_window: int = 0
    consumed_bytes_window: int = 0
    errors: int = 0
    #: generation ticks the open loop skipped over its backlog cap
    shed_ticks: int = 0


class WorkloadEngine:
    """One tenant's worth of load against a producer/consumer surface.

    ``client`` is anything exposing the adapter surface
    (``new_producer(host)`` / ``new_consumer(host, index, size)``) — a
    whole adapter for single-workload runs, or a per-tenant handle from
    ``adapter.create_tenant`` for multi-tenant runs.  ``start()`` spawns
    the processes; the caller drives the simulator (see ``run_workload``
    / ``repro.workload.tenants``) and then calls ``finalize()``.

    ``observer`` (optional) receives ``on_sent(now, count)`` and
    ``on_ack(send_time, count, latency, ok)`` — the SLO tracker hook.
    ``series_interval`` records offered/acked events-per-second series
    into ``result.series`` for load/scale-event correlation.
    """

    def __init__(
        self,
        sim: Simulator,
        client,
        spec: WorkloadSpec,
        observer=None,
        label: Optional[str] = None,
        series_interval: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.client = client
        self.spec = spec
        self.observer = observer
        self.series_interval = series_interval
        name = getattr(client, "name", "bench")
        self.result = BenchResult(
            label=label or f"{name} p={spec.partitions} w={spec.producers}",
            target_rate=spec.target_rate,
        )
        self.counters = _Counters()
        self.producers_done: SimFuture = sim.future()
        self._consumer_procs: List[object] = []
        self.window_start = 0.0
        self.window_end = 0.0
        self.epoch = 0.0
        self.load_end = 0.0

    # ------------------------------------------------------------------
    def start(self) -> "WorkloadEngine":
        sim = self.sim
        spec = self.spec
        result = self.result
        counters = self.counters
        observer = self.observer

        if hasattr(self.client, "total_consumers"):
            self.client.total_consumers = max(spec.consumers, 1)

        epoch = self.epoch = sim.now
        window_start = self.window_start = sim.now + spec.warmup
        window_end = self.window_end = sim.now + spec.warmup + spec.duration
        load_end = self.load_end = window_end
        ack_grace = spec.ack_grace
        if spec.arrival is not None:
            # Report the pattern's mean offered rate over the window.
            result.target_rate = spec.arrival.mean_rate(
                spec.warmup, spec.warmup + spec.duration
            )
        #: per-partition FIFO of (event count, send time); all deques are
        #: created up front so the per-tick hot loop never allocates one
        trackers: Dict[int, Deque[Tuple[int, float]]] = {
            partition: deque() for partition in range(spec.partitions)
        }
        trackers[GLOBAL_TRACKER] = deque()
        self._trackers = trackers
        #: only a consumer drains the send log, so only then is it kept
        tracked = spec.consumers > 0
        producers_done = self.producers_done
        producers_running = [spec.producers]

        # --------------------------------------------------------------
        # Producers
        # --------------------------------------------------------------
        def producer_process(index: int):
            handle = self.client.new_producer(f"bench-{index % spec.bench_hosts}")
            rate = spec.target_rate / spec.producers
            carry = 0.0
            rotate = index
            # Hot-loop hoists: one attribute lookup each per run, not per tick.
            tick = spec.tick
            event_size = spec.event_size
            partitions = spec.partitions
            keyless = spec.key_mode == "none"
            backlog_cap = spec.effective_backlog_cap
            send_group = handle.send_group
            sampler = None
            if spec.arrival is not None:
                sampler = spec.arrival.sampler(
                    spec.seed * 1_000_003 + index, 1.0 / spec.producers
                )
            router = None
            if spec.key_skew is not None and not keyless:
                router = spec.key_skew.router(
                    partitions, spec.seed * 1_000_003 + index
                )
            while sim.now < load_end:
                yield tick
                # Open-loop generation, bounded: once the system is hopelessly
                # behind (several seconds of unacked events), stop piling more
                # into client queues — the run is already saturated, and this
                # keeps overload runs tractable.
                backlog = counters.sent_events - counters.produced_events
                if backlog > backlog_cap:
                    counters.shed_ticks += 1
                    continue
                now = sim.now
                if sampler is not None:
                    count = sampler.events(now - epoch - tick, now - epoch)
                else:
                    carry += rate * tick
                    count = int(carry)
                    if count > 0:
                        carry -= count
                if count <= 0:
                    continue
                counters.sent_events += count
                if observer is not None:
                    observer.on_sent(now, count)
                in_window = window_start <= now < window_end
                if keyless:
                    fut = send_group(None, count, event_size)
                    fut.add_callback(partial(_ack, count, now, in_window))
                    if tracked:
                        trackers[GLOBAL_TRACKER].append((count, now))
                else:
                    if router is not None:
                        shares = router.shares(count, now - epoch)
                    else:
                        # Random keys: spread the group across partitions.
                        shares = _spread(count, partitions, rotate)
                        rotate += 1
                    for partition, share in shares:
                        fut = send_group(partition, share, event_size)
                        fut.add_callback(partial(_ack, share, now, in_window))
                        if tracked:
                            trackers[partition].append((share, now))
            yield handle.flush()
            producers_running[0] -= 1
            if producers_running[0] == 0 and not producers_done.done:
                producers_done.set_result(None)

        def _ack(n: int, send_time: float, in_window: bool, fut: SimFuture) -> None:
            if fut.exception is not None:
                counters.errors += 1
                if observer is not None:
                    observer.on_ack(send_time, n, 0.0, False)
                return
            counters.produced_events += n
            latency = sim.now - send_time
            if observer is not None:
                observer.on_ack(send_time, n, latency, True)
            # An ack counts toward the measured rate only if the *ack* also
            # lands near the window: a system whose latency has run away is
            # not sustaining the offered rate.
            if in_window and sim.now <= window_end + ack_grace:
                counters.produced_window += n
                result.write_latency.record(latency)

        # --------------------------------------------------------------
        # Consumers
        # --------------------------------------------------------------
        def consumer_process(index: int):
            handle = self.client.new_consumer(
                f"bench-{index % spec.bench_hosts}", index, spec.event_size
            )
            tracker_key = GLOBAL_TRACKER if spec.key_mode == "none" else None
            while True:
                try:
                    partition, count, nbytes = yield handle.receive()
                except Interrupt:
                    return
                except Exception:  # noqa: BLE001 - crashed broker etc.
                    counters.errors += 1
                    return
                now = sim.now
                counters.consumed_events += count
                if window_start <= now < window_end + spec.warmup:
                    counters.consumed_window += count
                    counters.consumed_bytes_window += nbytes
                queue = trackers.get(
                    partition if tracker_key is None else tracker_key
                )
                remaining = count
                while queue and remaining > 0:
                    group_count, send_time = queue[0]
                    take = min(group_count, remaining)
                    remaining -= take
                    result.e2e_latency.record(now - send_time)
                    if group_count <= take:
                        queue.popleft()
                    else:
                        queue[0] = (group_count - take, send_time)
                        break

        # --------------------------------------------------------------
        # Series
        # --------------------------------------------------------------
        def series_process():
            offered = result.series["offered_eps"] = TimeSeries("offered_eps")
            acked = result.series["acked_eps"] = TimeSeries("acked_eps")
            interval = self.series_interval
            prev_sent = prev_acked = 0
            while sim.now < load_end:
                yield interval
                sent, done = counters.sent_events, counters.produced_events
                offered.record(sim.now, (sent - prev_sent) / interval)
                acked.record(sim.now, (done - prev_acked) / interval)
                prev_sent, prev_acked = sent, done

        # --------------------------------------------------------------
        for i in range(spec.producers):
            sim.process(producer_process(i))
        for i in range(spec.consumers):
            self._consumer_procs.append(sim.process(consumer_process(i)))
        if self.series_interval is not None:
            sim.process(series_process())
        return self

    @property
    def settled_at(self) -> float:
        """Sim time after which no window measurement can change: an ack
        of an in-window send counts until ``window_end + ack_grace``, a
        consumed event until ``window_end + warmup``.  Set by ``start``."""
        spec = self.spec
        return self.window_end + max(
            spec.ack_grace, spec.warmup if spec.consumers else 0.0
        )

    # ------------------------------------------------------------------
    def interrupt_consumers(self) -> None:
        for proc in self._consumer_procs:
            proc.interrupt()

    def finalize(self) -> BenchResult:
        spec = self.spec
        result = self.result
        counters = self.counters
        window = spec.duration
        result.produce_rate = counters.produced_window / window
        result.produce_mbps = result.produce_rate * spec.event_size
        result.consume_rate = counters.consumed_window / window
        result.consume_mbps = result.consume_rate * spec.event_size
        result.errors = counters.errors
        result.crashed = bool(getattr(self.client, "crashed", False))
        result.extra["produced_total"] = float(counters.produced_events)
        result.extra["consumed_total"] = float(counters.consumed_events)
        # Non-zero: the percentiles above omit what those ticks would have
        # offered — the run's worst samples.
        result.extra["shed_ticks"] = float(counters.shed_ticks)
        # Absolute measurement-window bounds (setup may advance sim time
        # before load starts, so callers can't reconstruct these from the
        # spec alone — needed to align ``result.series`` samples).
        result.extra["window_start"] = self.window_start
        result.extra["window_end"] = self.window_end
        return result


def _drive(sim: Simulator, engines: List[WorkloadEngine]) -> bool:
    """Run until every engine's producers finish (bounded), give tail
    reads a moment and stop consumers.  Returns False when the load
    timeout was hit."""
    if len(engines) == 1:
        done = engines[0].producers_done
    else:
        done = all_of(sim, [engine.producers_done for engine in engines])
    timeout = max(engine.spec.effective_load_timeout for engine in engines)
    completed = True
    try:
        sim.run_until_complete(done, timeout=timeout)
    except SimulationError:
        # A hopelessly backlogged system (e.g. Kafka flush-per-message at
        # hundreds of partitions) cannot drain its final flush within any
        # reasonable horizon.  The measurement window is long past, so
        # finalize what was measured instead of aborting the experiment.
        completed = False
        for engine in engines:
            engine.result.extra["load_timed_out"] = 1.0
    if any(e.spec.consumers for e in engines):
        # Give tail reads a moment to drain in-flight events.
        sim.run(until=sim.now + 0.5)
    for engine in engines:
        engine.interrupt_consumers()
    sim.run(until=sim.now + 0.1)
    return completed


def run_workload(
    sim: Simulator,
    adapter,
    spec: WorkloadSpec,
    fault_engine=None,
    tracer=None,
    series_interval: Optional[float] = None,
) -> BenchResult:
    """Run one workload to completion and return its measurements.

    With ``fault_engine`` (a started-or-not :class:`repro.faults.FaultEngine`
    already wired into the system under test) the engine's schedule starts
    when load starts, and the injected-fault counts land in
    ``result.extra`` — fault-aware benchmarking.

    With ``tracer`` (a :class:`repro.obs.Tracer` already wired into the
    adapter) the measurement window bounds and span counts land in
    ``result.extra`` so the critical-path analyzer can restrict itself to
    in-window events.

    With ``series_interval`` the offered/acked events-per-second series
    land in ``result.series`` — ``acked_eps`` is the system's steady-state
    delivery rate, independent of the ``ack_grace`` window accounting
    (the right measure for "does it sustain the offered rate").
    """
    adapter.setup(spec.partitions)
    if fault_engine is not None:
        fault_engine.start()
    engine = WorkloadEngine(sim, adapter, spec, series_interval=series_interval)
    engine.start()
    _drive(sim, [engine])
    result = engine.finalize()
    if fault_engine is not None:
        fault_engine.quiesce()
        result.extra["faults_injected"] = float(len(fault_engine.injected))
        for _, action, _target in fault_engine.injected:
            key = f"faults.{action}"
            result.extra[key] = result.extra.get(key, 0.0) + 1.0
    if tracer is not None:
        tracer.stamp_fault_windows()
        result.extra["trace.window_start"] = engine.window_start
        result.extra["trace.window_end"] = engine.window_end
        result.extra["trace.spans"] = float(len(tracer.spans))
    return result


def run_probe(sim: Simulator, adapter, spec: WorkloadSpec) -> BenchResult:
    """One workload, stopped as soon as its window measurements are final.

    ``produce_rate``, ``consume_rate`` and the write percentiles equal
    ``run_workload``'s for the same spec; the producers' drain flush, and
    what only it would add (the totals, late end-to-end samples, a crash
    after the window), is never run.  Every max-throughput probe
    (:func:`repro.capacity.find_max_throughput`) runs this way.
    """
    adapter.setup(spec.partitions)
    engine = WorkloadEngine(sim, adapter, spec).start()
    sim.run(until=engine.settled_at)
    return engine.finalize()


#: memoized spread shares; the result only depends on (count, partitions,
#: rotate mod partitions) and steady-rate workloads cycle through a handful
#: of counts, so the cache stays tiny while saving a list build per tick.
_SPREAD_CACHE: Dict[Tuple[int, int, int], List[Tuple[int, int]]] = {}
_SPREAD_CACHE_MAX = 8192


def _spread(count: int, partitions: int, rotate: int) -> List[Tuple[int, int]]:
    """Distribute ``count`` events over partitions (random-key model).

    Each partition gets count/partitions events; the remainder rotates so
    low-rate workloads still touch all partitions over time.  The returned
    list is shared via a memo cache — callers must not mutate it.
    """
    if partitions == 1:
        return [(0, count)]
    rotate %= partitions
    key = (count, partitions, rotate)
    shares = _SPREAD_CACHE.get(key)
    if shares is not None:
        return shares
    base, remainder = divmod(count, partitions)
    shares = []
    for offset in range(partitions):
        partition = (rotate + offset) % partitions
        share = base + (1 if offset < remainder else 0)
        if share > 0:
            shares.append((partition, share))
    if len(_SPREAD_CACHE) < _SPREAD_CACHE_MAX:
        _SPREAD_CACHE[key] = shares
    return shares
