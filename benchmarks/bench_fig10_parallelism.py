"""Figure 10 — Impact of parallelism on write performance (§5.6).

Workload: 1 KB events at a fixed 250 MB/s target, varying the number of
stream segments / topic partitions and the number of writers/producers.
Per the paper's deployment change, 10 benchmark driver hosts are used.

Large configurations run as a *representative slice* (see
repro.bench.adapters): 1/k of the partitions and load against devices
with 1/k bandwidth and k-scaled per-op costs — exactly load-equivalent
for the linear device models — and rates are scaled back up.

"Achieved" is the steady-state delivery (ack) rate over the second half
of the measurement window — grace-independent, see ``_run``.

Paper claims reproduced:
  (a) Pravega sustains the 250 MB/s target through 500 segments at every
      writer count, and ≥0.8x of it (at ≥3x Kafka) at 5 000 segments /
      100 writers (segment-container multiplexing; the residual deficit
      at the extreme slice is quantified above the ``fig10a`` rows of
      ``repro.bench.claims``).
  (b) Kafka throughput decays as partitions grow (per-partition log
      files saturate the drive with file switches); with flush.messages=1
      the decay is drastic (paper: -80% at 500 partitions/100 producers).
  (c) Pulsar is unstable (broker crashes) at high parallelism in the
      paper's base configuration; ackQ=3 + no routing keys ("favorable")
      improves but still degrades at the extreme configurations.
"""

from repro.bench import (
    KafkaAdapter,
    PravegaAdapter,
    PulsarAdapter,
    Table,
    WorkloadSpec,
    fmt_bytes_rate,
    run_workload,
)
from repro.pulsar import PulsarBrokerConfig
from repro.sim import Simulator

from common import FULL

EVENT_SIZE = 1_000
TARGET_RATE = 250_000  # events/s == 250 MB/s
SEGMENT_COUNTS = [10, 500, 5000] if not FULL else [10, 50, 100, 500, 1000, 5000]
WRITER_COUNTS = [10, 100] if not FULL else [10, 50, 100]

#: simulate at most this many partitions; beyond it, use a scaled slice
MAX_SIMULATED_PARTITIONS = 25


def _slice_factor(partitions: int) -> int:
    return max(1, partitions // MAX_SIMULATED_PARTITIONS)


def _run(
    make_adapter,
    partitions: int,
    writers: int,
    key_mode: str = "random",
    duration: float = 2.0,
):
    k = _slice_factor(partitions)
    sim = Simulator()
    adapter = make_adapter(sim, k)
    spec = WorkloadSpec(
        event_size=EVENT_SIZE,
        target_rate=TARGET_RATE / k,
        partitions=partitions // k,
        producers=writers,
        consumers=0,
        key_mode=key_mode,
        duration=duration,
        warmup=0.75,
        tick=0.02,
        bench_hosts=10,
        # ~10 s of offered load may sit unacknowledged before the open
        # loop stops piling on.  The paper's drivers sustain pressure for
        # minutes; the default (2x rate + 10k) is so shallow relative to
        # these rates that an overloaded broker never accumulates enough
        # in-memory backlog to hit its limits (Fig. 10b's instability).
        backlog_cap=10.0 * TARGET_RATE / k,
        # Covers slice-inflated op latency (~x k; see WorkloadSpec) so the
        # produce_* window accounting stays sane; the *claimed* metric
        # below is grace-independent.
        ack_grace=0.25 + 0.01 * k,
    )
    result = run_workload(sim, adapter, spec, series_interval=0.25)
    # "Achieved" is the steady-state delivery (ack) rate over the second
    # half of the window — a system that sustains the target acks at the
    # offered rate; one that falls behind acks at its capacity.  The
    # window-grace measure (produce_mbps) cannot express this for slice
    # runs: any grace long enough for the healthy systems' slice-inflated
    # latency (~1 s at k=200) also credits an overloaded system with
    # ~grace/duration extra backlog drain, masking real decay.
    window_end = result.extra["window_end"]
    sustained = result.series["acked_eps"].window_mean(
        window_end - spec.duration / 2.0, window_end
    )
    achieved = sustained * EVENT_SIZE * k
    return achieved, result.crashed, int(result.extra["shed_ticks"])


SYSTEMS = {
    "Pravega": lambda sim, k: PravegaAdapter(sim, slice_factor=k),
    "Kafka": lambda sim, k: KafkaAdapter(sim, slice_factor=k),
    "Kafka (flush)": lambda sim, k: KafkaAdapter(
        sim, flush_every_message=True, slice_factor=k
    ),
    "Pulsar": lambda sim, k: PulsarAdapter(sim, tiering=False, slice_factor=k),
    "Pulsar (favorable)": lambda sim, k: PulsarAdapter(
        sim,
        tiering=False,
        broker_config=PulsarBrokerConfig(ack_quorum=3),
        slice_factor=k,
    ),
}


def _sweep(labels, writers, key_modes=None, duration=2.0):
    table = Table(
        ["system", "writers", "segments", "achieved", "crashed?"],
        title=f"Fig. 10 (target 250 MB/s, 1KB events, w={writers})",
    )
    out = {}
    for label in labels:
        key_mode = (key_modes or {}).get(label, "random")
        out[label] = {}
        for segments in SEGMENT_COUNTS:
            achieved, crashed, shed = _run(
                SYSTEMS[label], segments, writers, key_mode, duration
            )
            out[label][segments] = (achieved, crashed, shed)
            table.add(
                label,
                writers,
                segments,
                fmt_bytes_rate(achieved),
                "CRASH" if crashed else "-",
            )
    table.show()
    return out


def _record(metrics: dict, stem: str, points: dict) -> None:
    """One system's sweep line under ``stem``: MB/s per segment count,
    how many points crashed, and the generation ticks the open loop
    skipped over its backlog cap (added to the scenario's total)."""
    for segments, (achieved, _, _) in points.items():
        metrics[f"{stem}_s{segments}_mbps"] = achieved / 1e6
    metrics[f"{stem}_crashes"] = sum(crashed for _, crashed, _ in points.values())
    metrics["shed_ticks"] += sum(shed for _, _, shed in points.values())


def fig10a() -> dict:
    metrics = {"shed_ticks": 0}
    for writers in WRITER_COUNTS:
        out = _sweep(["Pravega", "Kafka"], writers)
        _record(metrics, f"pravega_w{writers}", out["Pravega"])
        _record(metrics, f"kafka_w{writers}", out["Kafka"])
    # The Kafka-flush line (paper shows it for the 100-producer case).
    many = WRITER_COUNTS[-1]
    _record(metrics, f"kafka_flush_w{many}", _sweep(["Kafka (flush)"], many)["Kafka (flush)"])
    # the headline keys earlier reports carried
    metrics["pravega_5000seg_mbps"] = metrics[f"pravega_w{many}_s5000_mbps"]
    metrics["kafka_500part_mbps"] = metrics[f"kafka_w{many}_s500_mbps"]
    metrics["kafka_flush_500part_mbps"] = metrics[f"kafka_flush_w{many}_s500_mbps"]
    return metrics


def fig10b() -> dict:
    writers = WRITER_COUNTS[-1]
    # The paper's OMB drivers sustain pressure for minutes; the
    # broker's replication buffer is bounded by the *offered volume*
    # still in flight, so a 2 s window physically cannot fill the
    # 512 MB/k sliced limit (measured: 2.75 s of load peaks the
    # hottest broker at 9.4 MB of its 26.8 MB limit at 500
    # segments).  10 s of sustained load is the shortest horizon at
    # which the base configuration's buffer growth crosses the
    # limit in the sliced model.
    sustain = 10.0
    metrics = {"shed_ticks": 0}
    _record(metrics, "pulsar_base", _sweep(["Pulsar"], writers, duration=sustain)["Pulsar"])
    favorable = _sweep(
        ["Pulsar (favorable)"], writers,
        key_modes={"Pulsar (favorable)": "none"},
        duration=sustain,
    )
    _record(metrics, "pulsar_favorable", favorable["Pulsar (favorable)"])
    return metrics
