"""Golden-trace workload for kernel-determinism tests.

``build_trace`` runs a mixed workload — fast-path timeouts, ``call_soon``
microtasks interleaved with same-time heap events, interrupts racing
timer fires, ``any_of``/``all_of`` quorum waits, ``Store`` rendezvous and
cancelled timers — and records every observable callback as a
``(time, label)`` pair.

``build_fig05_numbers`` runs a scaled-down Fig. 5 workload pair and
returns the measured numbers.

The expected outputs were captured from the pre-optimization kernel and
live in ``tests/data/golden_kernel.json``; ``test_kernel_golden.py``
asserts the optimized kernel reproduces them bit-for-bit.  Regenerate
(only when the ordering *contract* deliberately changes) with::

    PYTHONPATH=src python tests/golden_kernel.py > tests/data/golden_kernel.json
"""

from __future__ import annotations

import json
from typing import List, Tuple

from helpers import any_of
from repro.sim import Interrupt, Simulator, Store, all_of


def build_trace() -> List[Tuple[float, str]]:
    sim = Simulator()
    trace: List[Tuple[float, str]] = []

    def mark(label: str) -> None:
        trace.append((sim.now, label))

    # -- plain heap events interleaved with call_soon microtasks ---------
    sim.schedule(0.5, lambda: mark("heap-a"))
    sim.call_soon(lambda: mark("soon-1"))
    sim.schedule(0.0, lambda: mark("heap-zero"))
    sim.call_soon(lambda: mark("soon-2"))

    def nested_soon() -> None:
        mark("soon-3")
        sim.call_soon(lambda: mark("soon-3-nested"))
        sim.schedule(0.0, lambda: mark("heap-zero-nested"))

    sim.call_soon(nested_soon)

    # -- processes on the timeout fast path ------------------------------
    def ticker(name: str, period: float, count: int):
        for _ in range(count):
            yield period
            mark(f"tick-{name}")

    sim.process(ticker("x", 0.25, 6))
    sim.process(ticker("y", 0.4, 4))

    # -- interrupt racing a same-tick timer fire -------------------------
    def sleeper():
        try:
            yield 1.0
            mark("sleeper-woke")
        except Interrupt as intr:
            mark(f"sleeper-interrupted-{intr.cause}")

    victim = sim.process(sleeper())
    # interrupt scheduled for exactly the same tick as the timer fire
    sim.schedule(1.0, lambda: victim.interrupt("race"))

    def sleeper2():
        try:
            yield 2.0
            mark("sleeper2-woke")
        except Interrupt as intr:
            mark(f"sleeper2-interrupted-{intr.cause}")

    victim2 = sim.process(sleeper2())
    sim.schedule(0.7, lambda: victim2.interrupt("early"))

    # -- quorum combinators ----------------------------------------------
    def quorum():
        futures = [sim.timeout(t, value=t) for t in (0.9, 0.3, 0.6)]
        values = yield all_of(sim, futures)
        mark(f"all-of-{values}")
        index, value = yield any_of(
            sim, [sim.timeout(0.5, value="slow"), sim.timeout(0.2, value="fast")]
        )
        mark(f"any-of-{index}-{value}")

    sim.process(quorum())

    # -- store rendezvous (futures resolved from another process) --------
    store = Store(sim)

    def producer():
        for n in range(4):
            yield 0.3
            store.put(n)

    def consumer():
        while True:
            try:
                item = yield store.get()
            except Interrupt:
                mark("consumer-stopped")
                return
            mark(f"got-{item}")

    sim.process(producer())
    consumer_proc = sim.process(consumer())
    sim.schedule(1.5, lambda: consumer_proc.interrupt())

    # -- cancelled timers mixed in ---------------------------------------
    handles = [
        sim.schedule(0.45, lambda i=i: mark(f"cancelled-{i}")) for i in range(5)
    ]
    for handle in handles[:-1]:
        sim.cancel(handle)

    def late_cancel():
        yield 0.2
        keeper = sim.schedule(0.35, lambda: mark("kept-timer"))
        doomed = sim.schedule(0.05, lambda: mark("doomed-timer"))
        sim.cancel(doomed)
        yield keeper and 0.01
        mark("late-cancel-done")

    sim.process(late_cancel())

    # -- process awaiting a process --------------------------------------
    def child():
        yield 0.8
        return "child-value"

    def parent():
        value = yield sim.process(child())
        mark(f"parent-saw-{value}")

    sim.process(parent())

    sim.run()
    mark("end")
    return trace


def build_fig05_numbers() -> dict:
    """A scaled-down Fig. 5 durability run; returns the exact measurements."""
    from repro.bench import KafkaAdapter, PravegaAdapter, WorkloadSpec, run_workload

    numbers = {}
    for label, make in (
        ("pravega_flush", lambda sim: PravegaAdapter(sim, journal_sync=True)),
        ("kafka_noflush", lambda sim: KafkaAdapter(sim, flush_every_message=False)),
    ):
        sim = Simulator()
        adapter = make(sim)
        spec = WorkloadSpec(
            event_size=100,
            target_rate=50_000,
            partitions=1,
            producers=1,
            consumers=0,
            duration=2.0,
            warmup=0.5,
        )
        result = run_workload(sim, adapter, spec)
        numbers[label] = {
            "produce_rate": result.produce_rate,
            "produce_mbps": result.produce_mbps,
            "write_p50": result.write_latency.p50,
            "write_p95": result.write_latency.p95,
            "write_p99": result.write_latency.p99,
            "errors": result.errors,
            "produced_total": result.extra["produced_total"],
            "final_sim_time": sim.now,
        }
    return numbers


def main() -> None:
    golden = {
        "trace": build_trace(),
        "fig05": build_fig05_numbers(),
    }
    print(json.dumps(golden, indent=2))


if __name__ == "__main__":
    main()
