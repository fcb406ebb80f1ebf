#!/usr/bin/env python
"""Wall-clock microbenchmarks for the discrete-event kernel.

Unlike the figure benchmarks (which measure *simulated* throughput), this
harness measures how fast the kernel itself executes events in *wall-clock*
time: kernel overhead is the ceiling for every sweep in EXPERIMENTS.md, so
regressions here silently cap the scales the figure benches can explore.

Scenarios
---------
* ``timeout_churn``     — N processes each doing ``yield dt`` in a tight loop;
                          the pure fast-path cost of one timeout cycle.
* ``ping_pong``         — producer/consumer pairs rendezvousing through a
                          :class:`Store`; exercises futures + microtasks.
* ``ping_pong_sliced``  — the same events driven in ``run(until=now+dt)``
                          slices, the way every figure harness loop waits
                          (``while not done: sim.run(until=sim.now + dt)``);
                          what a bounded run costs over an unbounded one.
* ``cancel_storm``      — schedules many timers and cancels most of them;
                          exercises lazy cancellation + heap compaction.
* ``mini_workload``     — a small end-to-end Pravega workload through the
                          real bench driver; the "does it help real runs"
                          check.
* ``mini_tracer_off``   — the same workload with a disabled
                          ``repro.obs.Tracer`` wired through the full write
                          path; fails if any span is allocated and shares
                          ``mini_workload``'s wall-clock budget.

Driven by ``python -m repro.bench run kernel [--check]`` (``make
bench-kernel`` / ``make perf``).  The full run writes
``BENCH_kernel.json``: per-scenario wall seconds, events executed,
events/second, the kernel's own ``Simulator.stats`` counters and
``gc_collections`` — how often the cyclic collector ran (gen0, gen1, gen2)
inside the best repeat, read from ``gc.get_stats()``; its time lands on
whichever frame allocates, so a profile cannot attribute it.
``--check`` runs trimmed scenarios under a generous wall-clock budget and
exits non-zero on gross regressions.
"""

from __future__ import annotations

import gc
from typing import Callable, Dict, Optional

from repro.bench import harness
from repro.sim import Simulator, Store


# ----------------------------------------------------------------------
# Scenarios.  Each returns the simulator it ran.
# ----------------------------------------------------------------------
def timeout_churn(processes: int, cycles: int) -> Simulator:
    """N processes each doing `yield dt` in a tight loop."""
    sim = Simulator()

    def churner(period: float):
        for _ in range(cycles):
            yield period

    for i in range(processes):
        sim.process(churner(0.001 * (i + 1)))
    sim.run()
    return sim


def ping_pong(pairs: int, rounds: int, slice_s: Optional[float] = None) -> Simulator:
    """Producer/consumer pairs rendezvousing through a Store, in one run
    or — with ``slice_s`` — in bounded runs of that many simulated seconds."""
    sim = Simulator()

    def producer(store: Store):
        for n in range(rounds):
            store.put(n)
            yield 0.001

    def consumer(store: Store):
        for _ in range(rounds):
            yield store.get()

    for _ in range(pairs):
        store = Store(sim)
        sim.process(producer(store))
        sim.process(consumer(store))
    if slice_s is None:
        sim.run()
    else:
        while True:
            sim.run(until=sim.now + slice_s)
            if not sim.stats.heap_size:
                break
    return sim


def cancel_storm(batches: int, timers_per_batch: int) -> Simulator:
    """Schedule many long timers, cancel most before they fire.

    This is the retry/linger-timer pattern from the Kafka/Pulsar clients:
    a timer is armed per operation and almost always cancelled when the
    operation completes first.
    """
    sim = Simulator()
    noop = lambda: None  # noqa: E731

    def armer():
        for _ in range(batches):
            handles = [sim.schedule(50.0, noop) for _ in range(timers_per_batch)]
            yield 0.001
            # The operation "completed": cancel all but one timer.
            for handle in handles[1:]:
                sim.cancel(handle)

    sim.process(armer())
    sim.run(until=1.0 + 0.001 * batches)
    sim.run()
    return sim


def mini_workload(
    target_rate: float, duration: float, tracing: Optional[str] = None
) -> Simulator:
    """A small end-to-end Pravega run through the real bench driver.

    ``tracing``: ``None`` = no tracer wired (baseline), ``"disabled"`` =
    a disabled :class:`repro.obs.Tracer` wired through the full path (the
    zero-cost-when-disabled claim), ``"enabled"`` = full span capture.
    """
    from repro.bench import PravegaAdapter, WorkloadSpec, attach_tracer, run_workload
    from repro.obs import Tracer

    sim = Simulator()
    adapter = PravegaAdapter(sim)
    tracer = None
    if tracing is not None:
        tracer = Tracer(sim, enabled=(tracing == "enabled"))
        attach_tracer(adapter, tracer)
    spec = WorkloadSpec(
        event_size=100,
        target_rate=target_rate,
        partitions=4,
        producers=2,
        consumers=2,
        duration=duration,
        warmup=0.5,
    )
    run_workload(sim, adapter, spec, tracer=tracer)
    if tracing == "disabled" and tracer.spans_created:
        raise AssertionError(
            f"disabled tracer allocated {tracer.spans_created} spans"
        )
    return sim


# ----------------------------------------------------------------------
# Harness protocol (repro.bench.harness)
# ----------------------------------------------------------------------
REPEATS = 3


def _timed(name: str, fn: Callable[[], Simulator]) -> Callable[[int], Dict]:
    """Scenario thunk: ``fn`` best-of-``repeats``, as kernel metrics beside
    the parent's numbers for the same scenario."""

    def run(repeats: int) -> Dict:
        def once():
            before = [generation["collections"] for generation in gc.get_stats()]
            sim = fn()
            return sim, [
                generation["collections"] - was
                for generation, was in zip(gc.get_stats(), before)
            ]

        (sim, collections), walls = harness.best_of(once, repeats)
        best = min(walls)
        stats = sim.stats.snapshot()
        events = stats["events_executed"] + stats["microtasks_executed"]
        return {
            "wall_seconds": best,
            "events": events,
            "events_per_second": (events / best) if events and best else None,
            "ns_per_event": (best / events * 1e9) if events and best else None,
            "stats": stats,
            "gc_collections": collections,
            "baseline": {"commit": BASELINE["commit"], **BASELINE["scenarios"][name]},
        }

    return run


def _row(name: str, full, smoke, budget_s: float):
    return harness.row(name, _timed(name, full), _timed(name, smoke), budget_s)


# (scenario name, full-size run, smoke-size run, smoke wall-clock budget s)
SCENARIOS = [
    _row(
        "timeout_churn",
        lambda: timeout_churn(processes=100, cycles=2_000),
        lambda: timeout_churn(processes=20, cycles=500),
        20.0,
    ),
    _row(
        "ping_pong",
        lambda: ping_pong(pairs=50, rounds=2_000),
        lambda: ping_pong(pairs=10, rounds=500),
        20.0,
    ),
    _row(
        "ping_pong_sliced",
        lambda: ping_pong(pairs=50, rounds=2_000, slice_s=0.01),
        lambda: ping_pong(pairs=10, rounds=500, slice_s=0.01),
        20.0,
    ),
    _row(
        "cancel_storm",
        lambda: cancel_storm(batches=500, timers_per_batch=200),
        lambda: cancel_storm(batches=100, timers_per_batch=100),
        20.0,
    ),
    _row(
        "mini_workload",
        lambda: mini_workload(target_rate=20_000, duration=3.0),
        lambda: mini_workload(target_rate=5_000, duration=1.0),
        60.0,
    ),
    # Same workload with a *disabled* tracer wired through the whole
    # write path.  mini_workload raises if any span gets allocated, and
    # the budget is the same as the untraced run: "zero-cost when
    # disabled" is a perf contract, not just a unit-test claim.
    _row(
        "mini_tracer_off",
        lambda: mini_workload(target_rate=20_000, duration=3.0, tracing="disabled"),
        lambda: mini_workload(target_rate=5_000, duration=1.0, tracing="disabled"),
        60.0,
    ),
]


#: The parent commit under this same bench (``--repeats 10``) on the same
#: box, back to back with the run committed as ``BENCH_kernel.json``
#: (``manifest.cpu_count`` records the box).  At ad5ad1b every process
#: that waited for a network message or a CPU slot yielded a future; it
#: now yields the delay (``Network.delay`` / ``FifoServer.delay``) and
#: resumes on the timer fast path at the same ``(time, seq)``, so every
#: scenario executes the parent's exact events.  Compare
#: ``mini_workload`` by best-of-N wall, not ns/event.  Walls on this
#: 2-cpu box swing 20-50% between invocations, more than the cut: in the
#: committed pair the untouched ``timeout_churn`` reads 153 -> 205 ms.
#: Eight alternating ``--scenario mini_workload --repeats 3`` runs per
#: side gave a best-of-24 of 607.1 ms at the parent and 580.3 ms here.
#: Each record carries its scenario's entry, and a claim row holds
#: today's event count at or below the parent's.
BASELINE = {
    "commit": "ad5ad1b",
    "scenarios": {
        "timeout_churn": {"wall_seconds": 0.153, "events": 200100, "gc_collections": [0, 0, 0]},
        "ping_pong": {"wall_seconds": 0.1994, "events": 100100, "gc_collections": [0, 0, 0]},
        "ping_pong_sliced": {"wall_seconds": 0.19, "events": 100100, "gc_collections": [0, 0, 0]},
        "cancel_storm": {"wall_seconds": 0.0841, "events": 1001, "gc_collections": [19, 2, 0]},
        "mini_workload": {"wall_seconds": 0.6099, "events": 106514, "gc_collections": [35, 3, 0]},
        "mini_tracer_off": {"wall_seconds": 0.8986, "events": 106514, "gc_collections": [35, 3, 0]},
    },
}


def describe(record: Dict) -> str:
    metrics = record["metrics"]
    return (
        f"{metrics['wall_seconds'] * 1e3:9.1f} ms   "
        f"{metrics['events_per_second'] or 0:>14,.0f} ev/s  "
        f"{metrics['ns_per_event'] or 0:>10,.0f} ns/ev"
    )
