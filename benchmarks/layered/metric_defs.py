"""Every metric the benchmark reports: name, unit, direction, clock.

This table is the one source of the names; ``BENCHMARK.json`` repeats
them for the driver and the self-test checks the two agree.  ``clock``
says which of the system's two clocks a number is on: ``host`` is what
the simulator costs us (noisy), ``sim`` is what the modelled cluster does
(repeats exactly for a fixed seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from layers import CALLER_LAYERS, LAYERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    clock: str
    what: str
    #: end-to-end only: share of the parent's median by which the metric
    #: may get worse before a change is a regression
    bound: Optional[float] = None


END_TO_END: Tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower", "host",
           "host seconds of one timed region (a fixed amount of simulated work): the "
           "fastest of the run's iterations, since this box's noise only ever adds time", 0.25),
    Metric("ops_per_wall_s", "1/s", "higher", "host",
           "ops completed per host second of that timed region; guards against "
           "'faster because it did less'", 0.25),
    Metric("wall_per_calib", "ratio", "lower", "host",
           "timed-region wall / the calibration loop's time just before and after it, "
           "median over iterations: host cost in units of a fixed pure-Python loop, "
           "which cancels the machine's speed drift", 0.15),
    Metric("setup_s", "s", "lower", "host",
           "host seconds before the timed region: imports once plus the median "
           "set-up (cluster build, streams, readers, warm-up, backlog)", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "host",
           "ru_maxrss of the workload process", 0.10),
    Metric("sim.goodput_mbps", "MB/s", "higher", "sim",
           "simulated user MB/s acked (write workloads) or delivered (read workloads)", 0.05),
    Metric("sim.op_p50_ms", "ms", "lower", "sim",
           "median simulated latency of one op, from the instant it was due", 0.10),
    Metric("sim.op_p99_ms", "ms", "lower", "sim",
           "99th percentile of the same", 0.15),
)


def _per_layer() -> Tuple[Metric, ...]:
    out = []
    for layer in LAYERS:
        out.append(Metric(f"host.{layer}.self_s", "s", "lower", "host",
                          f"cProfile self time in {layer} over one timed region"))
        out.append(Metric(f"host.{layer}.calls_per_kev", "1/kev", "lower", "sim",
                          f"function calls in {layer} per 1,000 ops (repeats exactly)"))
    for layer in CALLER_LAYERS:
        out.append(Metric(f"kprim.{layer}.spawns_per_kev", "1/kev", "lower", "sim",
                          f"Simulator.process calls made by {layer} per 1,000 ops"))
        out.append(Metric(f"kprim.{layer}.sched_per_kev", "1/kev", "lower", "sim",
                          f"schedule/call_soon/timeout/resolve_after calls made by {layer} per 1,000 ops"))
        out.append(Metric(f"kprim.{layer}.futures_per_kev", "1/kev", "lower", "sim",
                          f"Simulator.future calls made by {layer} per 1,000 ops"))
    out += [
        Metric("kernel.events_per_kev", "1/kev", "lower", "sim",
               "kernel events (heap events + microtasks) per 1,000 ops"),
        Metric("kernel.microtasks_per_kev", "1/kev", "lower", "sim",
               "zero-delay kernel events per 1,000 ops"),
        Metric("kernel.timer_yields_per_kev", "1/kev", "lower", "sim",
               "process sleeps on the kernel's fast path per 1,000 ops: queue entries "
               "not made through a public primitive (the reconciliation residual)"),
        Metric("kernel.heap_peak", "count", "lower", "sim", "largest event-heap length"),
        Metric("kernel.cancel_skipped", "count", "lower", "sim",
               "cancelled or stale queue entries skipped"),
        Metric("kernel.us_per_event", "us", "lower", "host",
               "host microseconds per kernel event, untraced"),
        Metric("disk.writes_per_kev", "1/kev", "lower", "sim", "journal-drive write ops per 1,000 ops"),
        Metric("disk.bytes_per_write", "B", "higher", "sim", "bytes per journal-drive write op"),
        Metric("disk.file_switches_per_kev", "1/kev", "lower", "sim",
               "drive ops that changed file, per 1,000 ops"),
        Metric("journal.write_amp", "ratio", "lower", "sim", "drive bytes written / user bytes acked"),
        Metric("net.msgs_per_kev", "1/kev", "lower", "sim", "network messages per 1,000 ops"),
        Metric("net.bytes_per_user_byte", "ratio", "lower", "sim",
               "network bytes sent / user bytes acked or delivered"),
        Metric("container.events_per_append", "count", "higher", "sim",
               "user events per container append operation"),
        Metric("container.throttled_appends", "count", "lower", "sim",
               "appends delayed by tiering or cache back-pressure"),
        Metric("cache.hit_ratio", "ratio", "higher", "sim", "container reads served from cache / all reads"),
        Metric("cache.evictions", "count", "lower", "sim", "cache entries evicted"),
        Metric("tier.flushes", "count", "lower", "sim", "tiering flushes to LTS"),
        Metric("lts.write_ops", "count", "lower", "sim", "chunks written to LTS"),
        Metric("lts.bytes_written_per_user_byte", "ratio", "lower", "sim",
               "LTS bytes written / user bytes acked"),
        Metric("lts.read_ops", "count", "lower", "sim", "chunk fetches from LTS"),
        Metric("lts.read_amp", "ratio", "lower", "sim", "LTS bytes read / bytes delivered to readers"),
        Metric("reader.events_per_read", "count", "higher", "sim", "events per reader read call"),
    ]
    for system in ("pravega", "kafka", "pulsar"):
        out.append(Metric(f"sys.{system}.wall_s", "s", "lower", "host",
                          f"host seconds of the {system} leg (parallel_3sys; 0 elsewhere)"))
        out.append(Metric(f"sys.{system}.kernel_events", "count", "lower", "sim",
                          f"kernel events of the {system} leg"))
        out.append(Metric(f"sys.{system}.sim_goodput_mbps", "MB/s", "higher", "sim",
                          f"sustained second-half ack rate of the {system} leg, scaled up from the slice"))
    for part in ("network", "fsync", "quorum", "queueing"):
        out.append(Metric(f"simpath.p50.{part}_ms", "ms", "lower", "sim",
                          f"{part} share of the median Pravega write's simulated latency "
                          "(write_small, parallel_3sys; 0 elsewhere)"))
    out += [
        Metric("sim.write_p50_ms", "ms", "lower", "sim",
               "median simulated write-ack latency from the intended send time "
               "(replay_cold: the set-up's backlog writes)"),
        Metric("sim.write_p99_ms", "ms", "lower", "sim", "99th percentile of the same"),
        Metric("sim.e2e_p50_ms", "ms", "lower", "sim",
               "median simulated send-to-readable latency (tail_fanout; 0 elsewhere)"),
        Metric("sim.e2e_p99_ms", "ms", "lower", "sim", "99th percentile of the same"),
        Metric("sim.op_samples", "count", "higher", "sim", "latency samples behind sim.op_p50/p99"),
        Metric("sim.end_s", "s", "lower", "sim", "simulated clock when the timed region ended"),
        Metric("wall_s.median", "s", "lower", "host", "median untraced iteration"),
        Metric("wall_s.iqr_rel", "ratio", "lower", "host",
               "quartile distance of the untraced iterations / their median"),
        Metric("cpu_s", "s", "lower", "host", "process CPU seconds of one timed region, median"),
        Metric("setup.import_s", "s", "lower", "host", "host seconds importing the program"),
        Metric("calib.spin_s", "s", "lower", "host",
               "a fixed pure-Python heap+generator loop, timed before and after every timed "
               "region, median: machine-speed drift made visible"),
        Metric("calib.spread_rel", "ratio", "lower", "host",
               "(max - min) / median of the calibration loop; above 0.10 a host-metric "
               "comparison is unresolved, not unchanged"),
        Metric("trace.overhead_ratio", "ratio", "lower", "host",
               "mean traced-pass wall / untraced median wall"),
        Metric("trace.obs_extra_events_per_kev", "1/kev", "lower", "sim",
               "kernel events an attached repro.obs tracer adds per 1,000 ops (it is not "
               "event-neutral: one microtask per traced append)"),
        Metric("sim.fingerprint_match", "flag", "higher", "sim",
               "1 when every simulated statistic equals reference.json, 0 when one differs, "
               "-1 when the reference has no entry for this seed and size"),
        Metric("gen.shed_share", "ratio", "lower", "sim",
               "events the open loop skipped because the unacked backlog exceeded its cap / events due"),
    ]
    return tuple(out)


PER_LAYER: Tuple[Metric, ...] = _per_layer()

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}
