"""Figure 6 — Evaluation of client batching strategies (§5.3).

Workload: 100 B events, 1 writer/producer, 1 and 16 segments/partitions.
Systems: Pravega (dynamic batching, no knobs), Pulsar with batching on
(1 ms / 128 KB) and off, Kafka with the default batching (1 ms / 128 KB)
and the "more batching" configuration (10 ms linger / 1 MB batches).

Paper claims reproduced:
  (a) Pulsar can target low latency (no batch) or high throughput
      (batch) but not both: no-batch saturates far earlier; batch pays
      ~1 ms+ latency at low rates.
  (b) Pravega simultaneously achieves lower latency than Pulsar (batch)
      at low rates and higher max throughput than Pulsar (no batch).
  (c) Increasing Kafka's batching (10 ms / 1 MB) with random routing
      keys *reduces* throughput at 16 partitions (thin per-partition
      batches), the §5.3 surprise.
"""

import dataclasses

from repro.bench import (
    KafkaAdapter,
    PravegaAdapter,
    PulsarAdapter,
    Table,
    WorkloadSpec,
    fmt_latency,
    fmt_rate,
    run_workload,
)
from repro.capacity import find_max_throughput
from repro.kafka import KafkaProducerConfig
from repro.kafka.broker import TopicPartition
from repro.pulsar import PulsarProducerConfig
from repro.sim import Simulator

from common import run_fresh

EVENT_SIZE = 100

VARIANTS = {
    "Pravega (dynamic)": lambda sim: PravegaAdapter(sim),
    "Pulsar (batch)": lambda sim: PulsarAdapter(
        sim, producer_config=PulsarProducerConfig(batching=True)
    ),
    "Pulsar (no batch)": lambda sim: PulsarAdapter(
        sim, producer_config=PulsarProducerConfig(batching=False)
    ),
    "Kafka (default 1ms/128KB)": lambda sim: KafkaAdapter(sim),
    "Kafka (10ms/1MB)": lambda sim: KafkaAdapter(
        sim,
        producer_config=KafkaProducerConfig(batch_size=1024 * 1024, linger=10e-3),
    ),
}


def _spec(partitions: int, rate: float) -> WorkloadSpec:
    return WorkloadSpec(
        event_size=EVENT_SIZE,
        target_rate=rate,
        partitions=partitions,
        producers=1,
        consumers=0,
        duration=3.0,
        warmup=1.0,
    )


def _low_rate_latency(make, partitions: int, label: str = "run"):
    # Fine-grained ticks so latency is per-(nearly-single)-event, not
    # distorted by bulk-group completion time.
    spec = dataclasses.replace(_spec(partitions, 2_000), tick=1e-3)
    result = run_fresh(
        make, spec, trace_name=f"fig06_lowrate_{label}_{partitions}p"
    )
    return result.write_latency.p95


def _max_rate(make, partitions: int, log: list, start=50_000):
    probe = find_max_throughput(
        make, _spec(partitions, 0), start=start, cap=4_000_000, rel_tol=0.2, log=log,
    )
    return probe.produce_rate


def fig06a() -> dict:
    table = Table(
        ["system", "p95 @ 5k e/s", "max throughput"],
        title="Fig. 6a (1 segment/partition, 1 writer, 100B events)",
    )
    out = {}
    probes: dict = {}
    for label in ("Pravega (dynamic)", "Pulsar (batch)", "Pulsar (no batch)"):
        make = VARIANTS[label]
        latency = _low_rate_latency(make, 1, label=label)
        max_rate = _max_rate(make, 1, probes.setdefault(label, []))
        out[label] = (latency, max_rate)
        table.add(label, fmt_latency(latency), fmt_rate(max_rate))
    table.show()
    pravega_lat, pravega_max = out["Pravega (dynamic)"]
    batch_lat, batch_max = out["Pulsar (batch)"]
    nobatch_lat, nobatch_max = out["Pulsar (no batch)"]
    return {
        "pravega_p95_ms": pravega_lat * 1e3,
        "pulsar_batch_p95_ms": batch_lat * 1e3,
        "pulsar_nobatch_p95_ms": nobatch_lat * 1e3,
        "pulsar_batch_max_eps": batch_max,
        "pulsar_nobatch_max_eps": nobatch_max,
        "pravega_max_eps": pravega_max,
        "probes": probes,
    }


def _avg_batch_bytes(key_mode: str) -> float:
    """Mean batch the 10ms/1MB producer lands in the partition logs at
    200k e/s under ``key_mode``."""
    sim = Simulator()
    adapter = VARIANTS["Kafka (10ms/1MB)"](sim)
    spec = dataclasses.replace(_spec(16, 200_000), key_mode=key_mode)
    run_workload(sim, adapter, spec)
    batches = 0
    bytes_total = 0
    for p in range(16):
        tp = TopicPartition("topic", p)
        log = adapter.cluster.leader(tp).logs[tp]
        batches += len(log.batches)
        bytes_total += log.size_bytes
    return bytes_total / max(batches, 1)


def fig06b() -> dict:
    """§5.3 attributes the 10ms/1MB regression to random routing keys
    diluting per-partition batches (the same config without keys was ~6x
    faster).  We reproduce (i) the latency penalty of the larger linger,
    (ii) the *mechanism* — with random keys the producer emits many small
    batches while the keyless sticky partitioner fills them — and
    (iii) that more batching buys no throughput with random keys.  The
    paper's absolute throughput *drop* is only partially reproduced (see
    EXPERIMENTS.md)."""
    default_latency = run_fresh(
        VARIANTS["Kafka (default 1ms/128KB)"],
        _spec(16, 10_000),
        trace_name="fig06b_kafka_default",
    ).write_latency.p95
    big_latency = run_fresh(
        VARIANTS["Kafka (10ms/1MB)"],
        _spec(16, 10_000),
        trace_name="fig06b_kafka_big_linger",
    ).write_latency.p95
    probes: dict = {}
    default_max, big_max = [
        _max_rate(VARIANTS[label], 16, probes.setdefault(label, []), start=1_600_000)
        for label in ("Kafka (default 1ms/128KB)", "Kafka (10ms/1MB)")
    ]
    keyed_batch = _avg_batch_bytes("random")
    sticky_batch = _avg_batch_bytes("none")
    table = Table(
        ["config", "p95 @ 10k e/s", "max (random keys)", "avg batch @200k e/s"],
        title="Fig. 6b (16 partitions, 1 producer, 100B events)",
    )
    table.add("Kafka 1ms/128KB", fmt_latency(default_latency), fmt_rate(default_max), "-")
    table.add("Kafka 10ms/1MB keyed", fmt_latency(big_latency), fmt_rate(big_max), f"{keyed_batch / 1e3:.1f} KB")
    table.add("Kafka 10ms/1MB no keys", "-", "-", f"{sticky_batch / 1e3:.1f} KB")
    table.show()
    return {
        "kafka_default_p95_ms": default_latency * 1e3,
        "kafka_bigbatch_p95_ms": big_latency * 1e3,
        "kafka_default_max_eps": default_max,
        "kafka_bigbatch_max_eps": big_max,
        "keyed_avg_batch_bytes": keyed_batch,
        "sticky_avg_batch_bytes": sticky_batch,
        "probes": probes,
    }
