"""Figure 7 — Write performance for larger events (§5.4).

Workload: 10 KB events, 1 writer/producer, 1 and 16 segments/partitions;
byte throughput is the key metric.  Pravega runs with its default EFS
LTS and with the NoOp LTS test feature (metadata only, no data) that the
paper uses to demonstrate the LTS bottleneck.

Paper claims reproduced:
  (a) 1 segment: Pravega is capped by LTS (the paper: ~160 MB/s — the
      EFS per-stream bandwidth — because integrated tiering throttles
      writers); NoOp LTS lifts the cap substantially; Pulsar (which does
      not throttle) and Kafka sit where their own paths allow, with
      Pulsar well above Kafka.
  (b) 16 segments: Pravega achieves the highest throughput (paper:
      ~350 vs Kafka 330 vs Pulsar 250 MB/s) — parallel segments flush
      chunks to LTS in parallel.
"""

from repro.bench import (
    KafkaAdapter,
    PravegaAdapter,
    PulsarAdapter,
    Table,
    WorkloadSpec,
    fmt_bytes_rate,
)
from repro.capacity import find_max_throughput

EVENT_SIZE = 10_000

VARIANTS = {
    "Pravega (EFS LTS)": lambda sim: PravegaAdapter(sim, lts_kind="efs"),
    "Pravega (NoOp LTS)": lambda sim: PravegaAdapter(sim, lts_kind="noop"),
    "Kafka": lambda sim: KafkaAdapter(sim),
    "Pulsar (tiering)": lambda sim: PulsarAdapter(sim, tiering=True),
}


def _spec(partitions: int) -> WorkloadSpec:
    return WorkloadSpec(
        event_size=EVENT_SIZE,
        target_rate=0,
        partitions=partitions,
        producers=1,
        consumers=0,
        duration=3.0,
        warmup=1.0,
    )


def _figure(title: str, labels, partitions: int, start: float):
    table = Table(["system", "max byte throughput"], title=title)
    out = {}
    probes: dict = {}
    for label in labels:
        out[label] = find_max_throughput(
            VARIANTS[label], _spec(partitions), start=start, cap=150_000, rel_tol=0.2,
            log=probes.setdefault(label, []),
        ).produce_mbps
        table.add(label, fmt_bytes_rate(out[label]))
    table.show()
    return out, probes


def fig07a() -> dict:
    out, probes = _figure(
        "Fig. 7a (1 segment/partition, 1 writer, 10KB events)", VARIANTS, 1, 8_000
    )
    return {
        "pravega_efs_mbps": out["Pravega (EFS LTS)"] / 1e6,
        "pravega_noop_mbps": out["Pravega (NoOp LTS)"] / 1e6,
        "kafka_mbps": out["Kafka"] / 1e6,
        "pulsar_mbps": out["Pulsar (tiering)"] / 1e6,
        "probes": probes,
    }


def fig07b() -> dict:
    out, probes = _figure(
        "Fig. 7b (16 segments/partitions, 1 writer, 10KB events)",
        ("Pravega (EFS LTS)", "Kafka", "Pulsar (tiering)"), 16, 64_000,
    )
    return {
        "pravega_mbps": out["Pravega (EFS LTS)"] / 1e6,
        "kafka_mbps": out["Kafka"] / 1e6,
        "pulsar_mbps": out["Pulsar (tiering)"] / 1e6,
        "probes": probes,
    }
