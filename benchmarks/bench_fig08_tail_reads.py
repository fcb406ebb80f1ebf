"""Figure 8 — Performance of tail readers/consumers (§5.5).

Workload: 100 B events, 1 writer/producer plus readers/consumers (one
consumer thread per segment/partition at 16 partitions, as in the
paper); the metric is end-to-end latency (event generated -> event
readable) and read throughput.

Paper claims reproduced:
  (a) 1 segment: Pravega and Kafka achieve low end-to-end latency up to
      saturation; Pulsar never gets under ~12 ms at p95 even with
      batching.  Read throughput for Pravega and Pulsar is much higher
      than Kafka's.
  (b) 16 segments: Pulsar's read throughput drops sharply versus its
      single-partition value (paper: -76%) despite more consumers.
"""

from repro.bench import (
    KafkaAdapter,
    PravegaAdapter,
    PulsarAdapter,
    Table,
    WorkloadSpec,
    fmt_latency,
    fmt_rate,
)
from repro.capacity import find_max_throughput

from common import run_fresh

EVENT_SIZE = 100

VARIANTS = {
    "Pravega": lambda sim: PravegaAdapter(sim),
    "Kafka": lambda sim: KafkaAdapter(sim),
    "Pulsar": lambda sim: PulsarAdapter(sim),
}


def _spec(partitions: int, rate: float, consumers: int) -> WorkloadSpec:
    return WorkloadSpec(
        event_size=EVENT_SIZE,
        target_rate=rate,
        partitions=partitions,
        producers=1,
        consumers=consumers,
        duration=3.0,
        warmup=1.0,
    )


def _consume_max(make, partitions: int, consumers: int, log: list, start: float) -> float:
    probe = find_max_throughput(
        make, _spec(partitions, 0, consumers), start=start, cap=4_000_000,
        rel_tol=0.2, log=log,
    )
    # Tail readers can't outrun the writers; window-edge drain can make the
    # raw consume counter exceed produce, so clamp to the sustainable rate.
    return min(probe.consume_rate, probe.produce_rate)


def fig08a() -> dict:
    table = Table(
        ["system", "rate", "e2e p95"],
        title="Fig. 8a (1 segment, 1 writer, 1 reader, 100B events)",
    )
    out = {}
    for label, make in VARIANTS.items():
        result = run_fresh(make, _spec(1, 10_000, 1))
        out[label] = {"e2e_p95": result.e2e_latency.p95}
        table.add(label, fmt_rate(10_000), fmt_latency(result.e2e_latency.p95))
    probes: dict = {}
    for label, make in VARIANTS.items():
        out[label]["read_max"] = _consume_max(
            make, 1, 1, probes.setdefault(label, []), start=400_000
        )
        table.add(label, "max read", fmt_rate(out[label]["read_max"]))
    table.show()
    return {
        "pravega_e2e_p95_ms": out["Pravega"]["e2e_p95"] * 1e3,
        "kafka_e2e_p95_ms": out["Kafka"]["e2e_p95"] * 1e3,
        "pulsar_e2e_p95_ms": out["Pulsar"]["e2e_p95"] * 1e3,
        "pravega_read_max_eps": out["Pravega"]["read_max"],
        "kafka_read_max_eps": out["Kafka"]["read_max"],
        "probes": probes,
    }


def fig08b() -> dict:
    """The paper measured Pulsar losing 76% of its read throughput going
    from 1 to 16 partitions, without identifying a mechanism; our Pulsar
    model has no corresponding failure mode, so that *absolute drop is not
    reproduced* (recorded as a divergence in EXPERIMENTS.md).  What the
    claims table holds instead is the comparative statement: at 16
    partitions with one consumer per partition, Pravega's tail-read
    throughput is at least on par with both baselines."""
    table = Table(
        ["system", "read max (1 part)", "read max (16 parts)"],
        title="Fig. 8b (16 partitions, 1 writer, 16 consumers)",
    )
    probes: dict = {}
    one, sixteen, pravega16, kafka16 = [
        _consume_max(
            VARIANTS[label], parts, parts, probes.setdefault(f"{label} {parts}p", []),
            start=400_000 if parts == 1 else 1_600_000,
        )
        for label, parts in (("Pulsar", 1), ("Pulsar", 16), ("Pravega", 16), ("Kafka", 16))
    ]
    table.add("Pulsar", fmt_rate(one), fmt_rate(sixteen))
    table.add("Pravega", "-", fmt_rate(pravega16))
    table.add("Kafka", "-", fmt_rate(kafka16))
    table.show()
    return {
        "pulsar_read_1p_eps": one,
        "pulsar_read_16p_eps": sixteen,
        "pravega_read_16p_eps": pravega16,
        "kafka_read_16p_eps": kafka16,
        "probes": probes,
    }
