"""``python -m repro.bench``: the one command line of the benchmark harness.

* ``run <name>`` — one bench, its records and claims
  (:mod:`repro.bench.harness`; a full run writes ``BENCH_<name>.json``;
  ``run suite`` is the figure suite);
* ``gate`` — the committed ``BENCH_*.json`` files against their claims
  and fresh smoke re-runs (:mod:`repro.bench.gate`);
* ``trace`` — one workload against one system with the tracing
  subsystem armed: prints the critical-path decomposition of the
  acknowledged-write latency (network / journal fsync / quorum wait /
  queueing) and optionally writes a Chrome trace-event JSON loadable in
  Perfetto (``--trace out.json``).

Example (the Fig. 5 durable-write point)::

    python -m repro.bench trace --system pravega --rate 1000 --partitions 16 \\
        --duration 2 --trace pravega.trace.json
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import gate, harness
from repro.bench.adapters import KafkaAdapter, PravegaAdapter, PulsarAdapter, attach_tracer
from repro.bench.runner import WorkloadSpec, run_workload
from repro.bench.results import fmt_latency
from repro.obs import Tracer, event_records, export_chrome_trace, median_record
from repro.sim import Simulator

#: ``trace --system`` -> the adapter and its configuration
SYSTEMS = {
    "pravega": (PravegaAdapter, {"journal_sync": True}),
    "pravega-nosync": (PravegaAdapter, {"journal_sync": False}),
    "kafka": (KafkaAdapter, {"flush_every_message": True}),
    "kafka-noflush": (KafkaAdapter, {"flush_every_message": False}),
    "pulsar": (PulsarAdapter, {}),
}


def trace(args) -> int:
    """``trace``: one traced workload and its p50 critical path."""
    sim = Simulator()
    tracer = Tracer(sim, enabled=not args.no_tracing)
    adapter_cls, config = SYSTEMS[args.system]
    adapter = adapter_cls(sim, **config)
    attach_tracer(adapter, tracer)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__.splitlines()[0]
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one bench and check its claims")
    run.add_argument("name", choices=harness.BENCHES)
    run.add_argument(
        "--check", action="store_true",
        help="smoke: the smoke scenarios once each, claims and wall budgets",
    )
    run.add_argument(
        "--repeats", type=int, default=None,
        help="timed repeats per measurement, best kept (default: the bench's own)",
    )
    run.add_argument(
        "--scenario", action="append", default=[],
        help="run only these scenarios: names or prefixes (fig10 selects "
        "fig10a,fig10b), comma-separated, repeatable",
    )
    run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default 1: a wall-timed bench shares no core unless asked)",
    )
    run.add_argument(
        "--json", default=None,
        help="report path (default: BENCH_<name>.json for a full run of every scenario)",
    )
    run.set_defaults(main=harness.main, error=run.error)

    regression = commands.add_parser(
        "gate", help="compare fresh benchmark runs against the committed "
        "BENCH_*.json trajectory; fail with a structured diff on drift",
    )
    regression.add_argument(
        "--root", default=".", help="repo root holding the BENCH_*.json files"
    )
    regression.add_argument(
        "--smoke", default=gate.DEFAULT_SMOKE,
        help="comma-separated re-run subset, family[:name+name...] with "
        f"families {sorted(gate.SMOKE_FAMILIES)}; 'none' disables re-runs "
        f"(default: {gate.DEFAULT_SMOKE})",
    )
    regression.add_argument(
        "--tol", action="append", default=[], metavar="PATTERN=VALUE", type=gate.tolerance,
        help="per-metric tolerance override (fnmatch over the dotted "
        "path; relative tolerance, or a ratio factor for wall fields); "
        "repeatable, first match wins",
    )
    regression.add_argument("--json", default=None, help="write the full report here")
    regression.set_defaults(main=gate.main)

    traced = commands.add_parser(
        "trace", help="one traced workload and its p50 write critical path"
    )
    traced.add_argument("--system", choices=SYSTEMS, default="pravega")
    traced.add_argument("--rate", type=float, default=1000.0, help="events/s")
    traced.add_argument("--event-size", type=int, default=100)
    traced.add_argument("--partitions", type=int, default=16)
    traced.add_argument("--producers", type=int, default=1)
    traced.add_argument("--duration", type=float, default=2.0)
    traced.add_argument("--warmup", type=float, default=0.5)
    traced.add_argument("--key-mode", choices=("random", "none"), default="random")
    traced.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome trace-event JSON (Perfetto-loadable) here",
    )
    traced.add_argument(
        "--no-tracing", action="store_true",
        help="run with the tracer disabled (overhead baseline)",
    )
    traced.set_defaults(main=trace)

    args = parser.parse_args(argv)
    return args.main(args)


if __name__ == "__main__":
    sys.exit(main())
