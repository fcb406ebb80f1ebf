"""Figure 11 — Maximum throughput under parallelism (§5.6).

Workload: 1 KB events, 10 producers, 10 and 500 segments/partitions;
probe the maximum sustainable throughput of each system.

Paper claims reproduced:
  (a) Pravega reaches roughly the same maximum for 10 and 500 segments
      (paper: ~720 MB/s at the benchmark, ~780 MB/s at the drive — close
      to the ~800 MB/s the drives sustain with dd), i.e. it uses the
      drives efficiently irrespective of parallelism; the drive-level
      rate exceeds the benchmark-level rate only by metadata overhead.
  (b) flush.messages=1 costs Kafka drastically versus page-cache acks,
      and collapses outright at 500 partitions (paper: 700 -> 22 MB/s).
      The paper's *no-flush* 900 -> 140 collapse is NOT reproduced at
      the probe level — see the note above the ``fig11`` rows of
      ``repro.bench.claims``.
  (c) Pulsar degrades steeply with partition count; a 10 ms batching
      delay does not hurt.  The paper's Pulsar < Pravega ordering at 10
      partitions is not reproduced (no broker CPU wall in the model) —
      same note.
"""

import dataclasses

from repro.bench import (
    KafkaAdapter,
    PravegaAdapter,
    PulsarAdapter,
    Table,
    WorkloadSpec,
    fmt_bytes_rate,
    run_workload,
)
from repro.capacity import find_max_throughput
from repro.pulsar import PulsarProducerConfig
from repro.sim import Simulator

EVENT_SIZE = 1_000
MAX_SIMULATED_PARTITIONS = 25


def _slice(partitions: int) -> int:
    return max(1, partitions // MAX_SIMULATED_PARTITIONS)


def _spec(partitions: int, k: int) -> WorkloadSpec:
    return WorkloadSpec(
        event_size=EVENT_SIZE,
        target_rate=0,
        partitions=partitions // k,
        producers=10,
        consumers=0,
        duration=2.0,
        warmup=0.75,
        tick=0.02,
        bench_hosts=10,
        # NOTE: ack_grace deliberately stays at the 0.25 s default here,
        # unlike fig10.  This is a *max-throughput probe*: a grace much
        # longer than the window would count backlog drained after the
        # window as sustained rate (measured: grace=0.25*k inflates the
        # Kafka 500p probe to 3200 MB/s, 4x the drive envelope).  The
        # probe's slice factor is at most 20, whose latency inflation at
        # sustainable rates (~10 ms -> ~0.2 s) still fits the default.
    )


def _max_mbps(make, partitions: int, log: list, start=400_000):
    k = _slice(partitions)
    probe = find_max_throughput(
        lambda sim: make(sim, k), _spec(partitions, k), start=start / k,
        cap=2_000_000, rel_tol=0.2, log=log,
    )
    return probe.produce_mbps * k


SYSTEMS = {
    "Pravega": lambda sim, k: PravegaAdapter(sim, slice_factor=k),
    "Kafka (no flush)": lambda sim, k: KafkaAdapter(sim, slice_factor=k),
    "Kafka (flush)": lambda sim, k: KafkaAdapter(
        sim, flush_every_message=True, slice_factor=k
    ),
    "Pulsar": lambda sim, k: PulsarAdapter(sim, tiering=False, slice_factor=k),
    "Pulsar (10ms batch)": lambda sim, k: PulsarAdapter(
        sim,
        tiering=False,
        producer_config=PulsarProducerConfig(batch_delay=10e-3),
        slice_factor=k,
    ),
}


def fig11() -> dict:
    table = Table(
        ["system", "10 partitions", "500 partitions"],
        title="Fig. 11 (max throughput, 10 producers, 1KB events)",
    )
    out = {}
    probes: dict = {}
    for label, make in SYSTEMS.items():
        ten, five_hundred = [
            _max_mbps(make, parts, probes.setdefault(f"{label} {parts}p", []))
            for parts in (10, 500)
        ]
        out[label] = (ten, five_hundred)
        table.add(label, fmt_bytes_rate(ten), fmt_bytes_rate(five_hundred))
    table.show()
    return {
        "pravega_10p_mbps": out["Pravega"][0] / 1e6,
        "pravega_500p_mbps": out["Pravega"][1] / 1e6,
        "kafka_noflush_10p_mbps": out["Kafka (no flush)"][0] / 1e6,
        "kafka_noflush_500p_mbps": out["Kafka (no flush)"][1] / 1e6,
        "kafka_flush_10p_mbps": out["Kafka (flush)"][0] / 1e6,
        "kafka_flush_500p_mbps": out["Kafka (flush)"][1] / 1e6,
        "pulsar_10p_mbps": out["Pulsar"][0] / 1e6,
        "pulsar_500p_mbps": out["Pulsar"][1] / 1e6,
        "pulsar_10ms_10p_mbps": out["Pulsar (10ms batch)"][0] / 1e6,
        "probes": probes,
    }


def fig11b() -> dict:
    """§5.6: drive-level throughput exceeds benchmark-level throughput
    only by the metadata overhead (segment attributes, Bookkeeper
    framing) — Pravega uses the drives efficiently."""
    sim = Simulator()
    adapter = PravegaAdapter(sim)
    spec = dataclasses.replace(_spec(10, 1), target_rate=300_000, duration=3.0)
    result = run_workload(sim, adapter, spec)
    produced_bytes = result.extra["produced_total"] * EVENT_SIZE
    # Every byte is written to 3 replicas' journals; per-replica bytes:
    per_replica = adapter.drive_bytes_written() / 3.0
    return {"metadata_overhead_ratio": per_replica / max(produced_bytes, 1)}
