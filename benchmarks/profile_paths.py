"""Profile the three message paths: where does each simulated event go?

Two complementary views of the same deterministic mini-workload, per
system (Pravega / Kafka / Pulsar):

* **cProfile**, grouped by subsystem (``repro.sim``, ``repro.pravega``,
  ``repro.kafka``, ...): which *code* burns the wall-clock.
* **Kernel-primitive attribution**: the harness wraps
  ``Simulator.process`` / ``call_soon`` / ``schedule`` / ``future`` and
  charges each call to the subsystem of its caller, then reconciles the
  totals against ``Simulator.stats`` (events_executed,
  microtasks_executed).  This answers "who *creates* the per-event
  work" — e.g. one RPC that spawns three processes shows up as three
  process creations charged to its module, even though cProfile smears
  the dispatch cost over the kernel.

Usage::

    PYTHONPATH=src python benchmarks/profile_paths.py                 # all systems
    PYTHONPATH=src python benchmarks/profile_paths.py --system pravega --top 25
    PYTHONPATH=src python benchmarks/profile_paths.py --no-cprofile   # counters only

The workload mirrors ``bench_kernel.py mini_workload`` (open-loop
producers + tail consumers) but is parameterisable and runs each system
through the same uniform adapter surface, so numbers are comparable
across paths.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from collections import Counter

from repro.bench import (
    KafkaAdapter,
    PravegaAdapter,
    PulsarAdapter,
    WorkloadSpec,
    run_workload,
)
from repro.sim import Simulator

ADAPTERS = {
    "pravega": lambda sim: PravegaAdapter(sim),
    "kafka": lambda sim: KafkaAdapter(sim),
    "pulsar": lambda sim: PulsarAdapter(sim),
}

#: module-prefix -> subsystem bucket, most specific first
SUBSYSTEMS = [
    # Split the Pravega read/serve path out of the blanket bucket: the
    # container (read index, cache manager, tail fan-out) and the client
    # (readers, reader groups) attribute separately, so a read-heavy
    # profile shows where serving-tier work actually lands.
    "repro.pravega.container",
    "repro.pravega.client",
    "repro.pravega",
    "repro.kafka",
    "repro.pulsar",
    "repro.bookkeeper",
    "repro.zookeeper",
    "repro.lts",
    "repro.bench",
    "repro.obs",
    "repro.sim",
    "repro.common",
]


def _bucket(module: str) -> str:
    for prefix in SUBSYSTEMS:
        if module.startswith(prefix):
            return prefix
    return "other"


def _spec(args: argparse.Namespace) -> WorkloadSpec:
    if args.mix == "read":
        # Read-heavy: one producer, a fan of tail consumers — the
        # serving-tier profile (who pays for mass tail delivery).
        return WorkloadSpec(
            event_size=100,
            target_rate=args.rate,
            partitions=2,
            producers=1,
            consumers=args.readers,
            duration=args.duration,
            warmup=0.5,
        )
    return WorkloadSpec(
        event_size=100,
        target_rate=args.rate,
        partitions=4,
        producers=2,
        consumers=2,
        duration=args.duration,
        warmup=0.5,
    )


class AttributingSimulator(Simulator):
    """Simulator that charges kernel-primitive creation to its caller.

    Overrides the ``process``/``call_soon``/``schedule``/``future``
    entry points; each call is charged to the ``repro.*`` bucket of the
    frame that made it.  (A subclass because ``Simulator`` uses
    ``__slots__``, so instance methods cannot be monkeypatched.)
    """

    def __init__(self) -> None:
        super().__init__()
        self.processes: Counter[str] = Counter()
        self.microtasks: Counter[str] = Counter()
        self.timers: Counter[str] = Counter()
        self.futures: Counter[str] = Counter()

    @staticmethod
    def _caller() -> str:
        frame = sys._getframe(2)
        return _bucket(frame.f_globals.get("__name__", "other"))

    def process(self, gen, *a, **kw):
        self.processes[self._caller()] += 1
        return super().process(gen, *a, **kw)

    def call_soon(self, cb):
        self.microtasks[self._caller()] += 1
        return super().call_soon(cb)

    def schedule(self, delay, cb):
        self.timers[self._caller()] += 1
        return super().schedule(delay, cb)

    def future(self):
        self.futures[self._caller()] += 1
        return super().future()

    def report(self, stats) -> None:
        rows = sorted(
            set(self.processes) | set(self.microtasks) | set(self.timers)
            | set(self.futures)
        )
        print(
            f"  {'subsystem':<24} {'processes':>10} {'microtasks':>11} "
            f"{'timers':>9} {'futures':>9}"
        )
        for bucket in rows:
            print(
                f"  {bucket:<24} {self.processes[bucket]:>10,} "
                f"{self.microtasks[bucket]:>11,} {self.timers[bucket]:>9,} "
                f"{self.futures[bucket]:>9,}"
            )
        print(
            f"  {'(kernel totals)':<24} events_executed={stats.events_executed:,} "
            f"microtasks_executed={stats.microtasks_executed:,} "
            f"heap_peak={stats.heap_peak:,} compactions={stats.compactions}"
        )


def profile_system(name: str, args: argparse.Namespace) -> None:
    print(f"\n=== {name} ===")
    spec = _spec(args)

    # Pass 1: kernel-primitive attribution (cheap wrappers, no cProfile —
    # the two instrumentations would skew each other).
    sim = AttributingSimulator()
    adapter = ADAPTERS[name](sim)
    start = time.perf_counter()
    result = run_workload(sim, adapter, spec)
    wall = time.perf_counter() - start
    stats = sim.stats
    total = stats.events_executed + stats.microtasks_executed
    print(
        f"  wall {wall * 1e3:8.1f} ms   sim {sim.now:6.2f} s   "
        f"{total:,} events+microtasks   "
        f"{wall / max(total, 1) * 1e9:,.0f} ns/event   "
        f"produced {result.extra.get('produced_total', 0):,.0f}"
    )
    sim.report(stats)

    # Pass 2: cProfile of an identical fresh run.
    if args.cprofile:
        sim = Simulator()
        adapter = ADAPTERS[name](sim)
        profiler = cProfile.Profile()
        profiler.enable()
        run_workload(sim, adapter, spec)
        profiler.disable()
        stats_obj = pstats.Stats(profiler)
        _report_cprofile(stats_obj, args.top)


def _report_cprofile(stats: pstats.Stats, top: int) -> None:
    by_bucket: Counter[str] = Counter()
    rows = []
    for (filename, lineno, funcname), (
        _cc, ncalls, tottime, cumtime, _callers,
    ) in stats.stats.items():  # type: ignore[attr-defined]
        module = filename.replace("/", ".").replace("\\", ".")
        idx = module.rfind("repro.")
        module = module[idx:].removesuffix(".py") if idx >= 0 else "other"
        by_bucket[_bucket(module)] += tottime
        rows.append((tottime, ncalls, cumtime, f"{module}:{lineno}({funcname})"))
    print("  --- cProfile tottime by subsystem ---")
    for bucket, tottime in by_bucket.most_common():
        print(f"  {bucket:<24} {tottime * 1e3:9.1f} ms")
    print(f"  --- top {top} functions by tottime ---")
    rows.sort(reverse=True)
    for tottime, ncalls, cumtime, where in rows[:top]:
        print(
            f"  {tottime * 1e3:8.1f} ms {ncalls:>10,}x "
            f"(cum {cumtime * 1e3:8.1f} ms)  {where}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--system", choices=[*ADAPTERS, "all"], default="all",
        help="which message path to profile",
    )
    parser.add_argument("--rate", type=float, default=20_000.0)
    parser.add_argument("--duration", type=float, default=3.0)
    parser.add_argument(
        "--mix", choices=["balanced", "read"], default="balanced",
        help="workload shape: balanced produce/consume, or read-heavy "
        "(one producer, --readers tail consumers)",
    )
    parser.add_argument(
        "--readers", type=int, default=16,
        help="tail consumers in --mix read (default 16)",
    )
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument(
        "--no-cprofile", dest="cprofile", action="store_false",
        help="skip the cProfile pass (counters only)",
    )
    args = parser.parse_args()
    systems = list(ADAPTERS) if args.system == "all" else [args.system]
    for name in systems:
        profile_system(name, args)


if __name__ == "__main__":
    main()
