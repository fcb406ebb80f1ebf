"""Trace-enabled benchmark CLI.

Runs one workload against one system with the tracing subsystem armed,
prints the critical-path decomposition of the acknowledged-write latency
(network / journal fsync / quorum wait / queueing), and optionally writes
a Chrome trace-event JSON loadable in Perfetto (``--trace out.json``).

Example (the Fig. 5 durable-write point)::

    python -m repro.bench --system pravega --rate 1000 --partitions 16 \
        --duration 2 --trace pravega.trace.json
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.adapters import KafkaAdapter, PravegaAdapter, PulsarAdapter
from repro.bench.runner import WorkloadSpec, run_workload
from repro.bench.results import fmt_latency
from repro.obs import Tracer, event_records, export_chrome_trace, median_record
from repro.sim import Simulator

SYSTEMS = ("pravega", "pravega-nosync", "kafka", "kafka-noflush", "pulsar")


def make_adapter(system: str, sim: Simulator, tracer: Tracer):
    if system == "pravega":
        return PravegaAdapter(sim, journal_sync=True, tracer=tracer)
    if system == "pravega-nosync":
        return PravegaAdapter(sim, journal_sync=False, tracer=tracer)
    if system == "kafka":
        return KafkaAdapter(sim, flush_every_message=True, tracer=tracer)
    if system == "kafka-noflush":
        return KafkaAdapter(sim, flush_every_message=False, tracer=tracer)
    if system == "pulsar":
        return PulsarAdapter(sim, tracer=tracer)
    raise ValueError(f"unknown system {system!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--system", choices=SYSTEMS, default="pravega")
    parser.add_argument("--rate", type=float, default=1000.0, help="events/s")
    parser.add_argument("--event-size", type=int, default=100)
    parser.add_argument("--partitions", type=int, default=16)
    parser.add_argument("--producers", type=int, default=1)
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--warmup", type=float, default=0.5)
    parser.add_argument("--key-mode", choices=("random", "none"), default="random")
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome trace-event JSON (Perfetto-loadable) here",
    )
    parser.add_argument(
        "--no-tracing", action="store_true",
        help="run with the tracer disabled (overhead baseline)",
    )
    args = parser.parse_args(argv)

    sim = Simulator()
    tracer = Tracer(sim, enabled=not args.no_tracing)
    adapter = make_adapter(args.system, sim, tracer)
    spec = WorkloadSpec(
        event_size=args.event_size,
        target_rate=args.rate,
        partitions=args.partitions,
        producers=args.producers,
        duration=args.duration,
        warmup=args.warmup,
        key_mode=args.key_mode,
    )
    result = run_workload(sim, adapter, spec, tracer=tracer)

    print(f"{adapter.name}: {result.produce_rate:,.0f} events/s acked")
    print(f"  write latency p50 {fmt_latency(result.write_latency.p50)}"
          f"  p95 {fmt_latency(result.write_latency.p95)}")
    if not tracer.enabled:
        print("  tracing disabled "
              f"(spans created: {tracer.spans_created})")
        return 0

    window = (
        result.extra["trace.window_start"],
        result.extra["trace.window_end"],
    )
    records = event_records(tracer, window=window)
    print(f"  spans: {len(tracer.spans)}  in-window write events: {len(records)}")
    if records:
        p50 = median_record(records)
        print("  p50 event critical path:")
        for kind in ("network", "fsync", "quorum", "queueing"):
            share = p50[kind] / p50["total"] * 100 if p50["total"] else 0.0
            print(f"    {kind:<9} {fmt_latency(p50[kind]):>10}  ({share:5.1f}%)")
        print(f"    {'total':<9} {fmt_latency(p50['total']):>10}")
    if args.trace:
        export_chrome_trace(tracer, args.trace)
        print(f"  trace written to {args.trace} "
              f"(load in https://ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    # `python -m repro.bench run|suite|gate ...` delegate to the report
    # bench driver, the parallel figure-suite runner and the regression
    # gate; everything else is the trace CLI above.
    subcommands = {
        "run": "repro.bench.harness",
        "suite": "repro.bench.suite",
        "gate": "repro.bench.gate",
    }
    if len(sys.argv) > 1 and sys.argv[1] in subcommands:
        import importlib

        module = importlib.import_module(subcommands[sys.argv[1]])
        sys.exit(module.main(sys.argv[2:]))
    sys.exit(main())
