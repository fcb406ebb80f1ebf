"""Perf contracts held in tier-1.

(The kernel wall-clock smoke, ``python -m repro.bench run kernel
--check`` = ``make perf``, runs from ``tests/test_bench_gate.py``.)

The tracing subsystem's zero-cost-when-disabled contract: a disabled
``repro.obs.Tracer`` wired through the full Pravega write path must
allocate no spans and stay within 5% of the untraced baseline's host
time (paired ratios, see the test).

And the write path's allocation budget: how many GC-tracked objects an
in-flight append keeps alive is what decides how often the cyclic
collector runs (and finds nothing) — counted, not timed.
"""

import gc
import statistics
import time

import pytest

from repro.obs import Tracer
from repro.sim import Simulator


def _timed_mini_run(tracer):
    """One small Pravega run through the bench driver (~20 ms); returns
    the host CPU seconds it took, with the collector quiesced so neither
    side pays for the other's garbage."""
    from repro.bench import PravegaAdapter, WorkloadSpec, attach_tracer, run_workload

    sim = Simulator()
    adapter = PravegaAdapter(sim)
    if tracer is not None:
        tracer.sim = sim
        attach_tracer(adapter, tracer)
    spec = WorkloadSpec(
        event_size=100,
        target_rate=5_000,
        partitions=2,
        producers=1,
        consumers=0,
        duration=0.3,
        warmup=0.1,
    )
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        run_workload(sim, adapter, spec, tracer=tracer)
        return time.process_time() - start
    finally:
        gc.enable()


@pytest.mark.perf
def test_producer_paths_allocate_no_validating_payloads():
    """Kafka/Pulsar hot paths must use trusted Payload constructors.

    ``Payload.synthetic`` / ``of`` / ``slice`` / ``concat`` all build
    through ``Payload._trusted`` which bypasses ``__post_init__``
    validation; a validating copy sneaking back into the per-event path
    shows up here as a nonzero call count.
    """
    from repro.bench import KafkaAdapter, PulsarAdapter, WorkloadSpec, run_workload
    from repro.common.payload import Payload

    spec = WorkloadSpec(
        event_size=100,
        target_rate=3_000,
        partitions=2,
        producers=1,
        consumers=1,
        duration=0.5,
        warmup=0.1,
    )
    adapters = {
        "kafka": lambda sim: KafkaAdapter(sim, flush_every_message=False),
        "pulsar": lambda sim: PulsarAdapter(sim),
    }
    original = Payload.__post_init__
    for name, make_adapter in adapters.items():
        calls = []

        def counting(self, _calls=calls, _original=original):
            _calls.append(1)
            _original(self)

        Payload.__post_init__ = counting
        try:
            sim = Simulator()
            result = run_workload(sim, make_adapter(sim), spec)
        finally:
            Payload.__post_init__ = original
        assert result.produce_rate > 0
        assert not calls, (
            f"{name}: {len(calls)} validating Payload constructions on the "
            f"message path (expected 0; use Payload.synthetic/of/slice/concat)"
        )


def _tracked_per_in_flight(sim, adapter, group_events, event_size):
    """GC-tracked objects alive per in-flight send group right after
    issue, at +0.5 ms and at +1 ms: 64 groups from 4 producers on 2 hosts
    over 16 partitions, after one warm round (connections, RTT estimates,
    ledgers).  Deterministic: no wall clock, the collector parked for the
    measurement only, and ``gc.get_count()[0]`` is allocations minus
    deallocations of tracked objects."""
    adapter.setup(16)
    producers = [adapter.new_producer(f"bench-{i % 2}") for i in range(4)]

    def issue():
        return [
            producers[k % 4].send_group(k % 16, group_events, event_size)
            for k in range(64)
        ]

    for fut in issue():
        sim.run_until_complete(fut, timeout=10)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        base = gc.get_count()[0]
        futures = issue()
        tracked = [gc.get_count()[0] - base]
        for _ in range(2):
            sim.run(until=sim.now + 0.0005)
            tracked.append(gc.get_count()[0] - base)
    finally:
        if was_enabled:
            gc.enable()
    for fut in futures:
        sim.run_until_complete(fut, timeout=10)
        assert fut.exception is None
    return [count / len(futures) for count in tracked]


@pytest.mark.perf
def test_in_flight_appends_stay_within_their_allocation_budget():
    """GC-tracked objects alive per in-flight append, at three instants.

    64 appends per generator tick against a gen0 threshold of 700 means
    every tracked object an append drags along (a closure and its cells,
    a bound method, a per-future callback list, a ``_ScheduledEvent`` per
    spawn) turns into collector passes that free nothing.  Measured
    (Python 3.11): 5.1 / 4.3 / 7.9 per append right after issue / after
    0.5 ms / after 1 ms; 5.1 / 4.5 / 7.9 while processes waited on
    network and CPU futures instead of yielding their delays; 15.1 / 8.4
    / 18.2 before the request paths lost their scaffolding.
    """
    from repro.bench import PravegaAdapter

    sim = Simulator()
    per_append = _tracked_per_in_flight(sim, PravegaAdapter(sim), 15, 100)
    budget = (7.0, 6.0, 9.0)
    assert all(got <= cap for got, cap in zip(per_append, budget)), (
        f"tracked objects per in-flight append {per_append} exceed {budget} "
        f"(right after issue / +0.5 ms / +1 ms): a closure, bound method or "
        f"per-future list is back on the write path"
    )


@pytest.mark.perf
@pytest.mark.parametrize("system", ["kafka", "pulsar"])
def test_in_flight_produces_stay_within_their_allocation_budget(system):
    """The same count for Kafka produces and Pulsar publishes (BookKeeper
    replication underneath).  Each send group fills a 16 KB client batch
    exactly, so every group is one produce request that leaves at issue:
    the counts see the broker and replication paths, not linger buffering.
    Measured (Python 3.11), right after issue / +0.5 ms / +1 ms: Kafka
    12.1 / 19.3 / 20.6, Pulsar 12.1 / 17.7 / 19.9; while processes waited
    on network and CPU futures instead of yielding their delays they were
    12.1 / 20.4 / 21.9 and 12.1 / 18.9 / 20.5, and with a state dict and
    closures per produce/entry 12.1 / 35.9 / 44.5 and 12.1 / 24.8 / 34.7.
    """
    from repro.bench import KafkaAdapter, PulsarAdapter
    from repro.kafka import KafkaProducerConfig
    from repro.pulsar import PulsarProducerConfig

    sim = Simulator()
    if system == "kafka":
        # 16 records x (1,012 B + 12 B framing) = one 16 KB batch
        config = KafkaProducerConfig(batch_size=16 * 1024)
        adapter = KafkaAdapter(sim, producer_config=config)
        per_produce = _tracked_per_in_flight(sim, adapter, 16, 1012)
    else:
        config = PulsarProducerConfig(batch_size=16 * 1024)
        adapter = PulsarAdapter(sim, producer_config=config)
        per_produce = _tracked_per_in_flight(sim, adapter, 16, 1024)
    budget = {"kafka": (14.0, 21.0, 22.0), "pulsar": (14.0, 19.0, 21.0)}[system]
    assert all(got <= cap for got, cap in zip(per_produce, budget)), (
        f"{system}: tracked objects per in-flight produce {per_produce} "
        f"exceed {budget} (right after issue / +0.5 ms / +1 ms): a closure, "
        f"cell or state dict is back on the produce path"
    )


@pytest.mark.perf
def test_hot_objects_carry_no_scaffolding():
    """A payload has no ``__dict__``; a spawned process is its own start
    microtask (no ``_ScheduledEvent``) and parks with nothing allocated."""
    from repro.common.payload import Payload
    from repro.sim.core import Process, _ScheduledEvent

    for payload in (Payload(1), Payload.synthetic(1), Payload.of(b"x")):
        with pytest.raises(AttributeError):
            payload.__dict__
        with pytest.raises(AttributeError):
            payload.size = 2  # still frozen

    sim = Simulator()
    fut = sim.future()

    def body():
        yield fut

    proc = sim.process(body())
    assert list(sim._micro) == [proc]
    assert not any(type(entry) is _ScheduledEvent for entry in sim._micro)
    assert isinstance(proc, Process) and proc._interrupts is None
    sim.run()
    assert fut._callbacks is proc


@pytest.mark.perf
def test_tail_reads_skip_avl_and_allocate_no_spans():
    """Tail-read fast path: streaming consumers that keep up must be
    served from the O(1) tail entry (zero AVL probes) and, with tracing
    disabled, allocate zero spans."""
    from repro.bench import PravegaAdapter, WorkloadSpec, attach_tracer, run_workload

    sim = Simulator()
    tracer = Tracer(sim, enabled=False)
    adapter = PravegaAdapter(sim)
    attach_tracer(adapter, tracer)
    spec = WorkloadSpec(
        event_size=100,
        target_rate=5_000,
        partitions=2,
        producers=1,
        consumers=1,
        duration=1.0,
        warmup=0.2,
    )
    result = run_workload(sim, adapter, spec, tracer=tracer)
    assert result.consume_rate > 0
    tail_hits = 0
    avl_probes = 0
    for store in adapter.cluster.stores.values():
        for container in store.containers.values():
            tail_hits += container.cache_manager.tail_read_hits
            avl_probes += container.cache_manager.avl_probes
    assert tail_hits > 0, "no tail reads hit the fast path"
    assert avl_probes == 0, (
        f"{avl_probes} AVL probes during a pure tail-read workload "
        f"(every read should resolve against the tail entry)"
    )
    assert tracer.spans_created == 0, (
        f"disabled tracer allocated {tracer.spans_created} spans"
    )


@pytest.mark.perf
@pytest.mark.trace
def test_tracing_disabled_is_zero_cost():
    """Disabled tracer: zero span allocations and <= 5% host-time overhead.

    A fixed number of back-to-back (untraced, disabled-tracer) pairs,
    alternating which side runs first, judged on the per-pair ratios — a
    slow stretch of the machine hits both halves of a pair and cancels.
    Every pair always runs: no early exit on a lucky or unlucky sample.
    Many short runs rather than few long ones: host speed on a shared box
    switches between regimes 40% apart for seconds at a time, and the
    closer the two halves of a pair lie, the less of that they see.

    The bar is held against a one-sided 98% confidence bound on the
    median ratio (sign test: the 14th smallest of 41 lies below the true
    median with that confidence), so what fails the test is evidence of
    more than 5%, not an unlucky median.  Measured on such a box, true
    overhead near +0.3%: over 120 trials the median of the 41 ratios
    ranged 0.91-1.06 (past the bar once; with 15 pairs of 60 ms runs, one
    trial in 15), the bound never exceeded 1.001; with +8% injected the
    bound fails 34 trials in 40, with +10% 38 in 40.
    """
    pairs = 41
    tracer = Tracer(Simulator(), enabled=False)
    # Untimed warmup pass: pay one-time import/allocator costs up front.
    _timed_mini_run(None)
    _timed_mini_run(tracer)
    ratios = []
    for pair in range(pairs):
        if pair % 2:
            disabled = _timed_mini_run(tracer)
            baseline = _timed_mini_run(None)
        else:
            baseline = _timed_mini_run(None)
            disabled = _timed_mini_run(tracer)
        ratios.append(disabled / baseline)
    assert tracer.spans_created == 0, (
        f"disabled tracer allocated {tracer.spans_created} spans"
    )
    assert not tracer.spans
    ratios.sort()
    assert ratios[13] <= 1.05, (
        f"disabled tracing overhead is credibly above the 5% budget: median "
        f"of {pairs} paired ratios {statistics.median(ratios) - 1:+.1%}, 98% "
        f"lower bound {ratios[13] - 1:+.1%} (quartiles "
        f"{ratios[10]:.3f} / {ratios[30]:.3f})"
    )
