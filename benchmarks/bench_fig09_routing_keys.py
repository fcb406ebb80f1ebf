"""Figure 9 — Impact of routing keys on read performance (§5.5).

Workload: 100 B events, 16 segments/partitions, 1 writer + consumers;
compare random routing keys (ordered per key) against no routing keys.

Paper claims reproduced:
  (a) Pulsar pays a large end-to-end latency penalty with random keys
      versus no keys (paper: 3.25x higher p95 at 10k e/s).
  (b) Kafka pays for random keys at fixed rate: per-partition batch
      dilution raises e2e p95 versus no keys (the mechanism the paper
      blames for its +59.6% no-keys max-throughput gain).  The gain is
      no longer visible at the *max-throughput probe* since the
      producer's RecordAccumulator-style parking landed — see the
      note above the ``fig09`` rows of ``repro.bench.claims``.
  (c) Pravega's performance is virtually insensitive to routing keys.
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
)
from repro.capacity import find_max_throughput

from common import run_fresh

EVENT_SIZE = 100

VARIANTS = {
    "Pravega": lambda sim: PravegaAdapter(sim),
    "Kafka": lambda sim: KafkaAdapter(sim),
    "Pulsar": lambda sim: PulsarAdapter(sim),
}


def _spec(key_mode: str, rate: float, consumers: int = 2) -> WorkloadSpec:
    return WorkloadSpec(
        event_size=EVENT_SIZE,
        target_rate=rate,
        partitions=16,
        producers=1,
        consumers=consumers,
        key_mode=key_mode,
        duration=3.0,
        warmup=1.0,
        # fine ticks: batch dilution under random keys requires smooth
        # (per-linger) arrivals, not 5 ms lumps
        tick=1e-3,
    )


def fig09() -> dict:
    table = Table(
        ["system", "keys", "e2e p95 @ 10k e/s", "max write throughput"],
        title="Fig. 9 (16 partitions, 100B events, random keys vs none)",
    )
    out = {}
    probes: dict = {}
    for label, make in VARIANTS.items():
        out[label] = {}
        for key_mode in ("random", "none"):
            point = run_fresh(make, _spec(key_mode, 10_000))
            probe = find_max_throughput(
                make,
                dataclasses.replace(_spec(key_mode, 0), consumers=0),
                # just below the ~1.8M e/s threshold: a lower rung costs as
                # many kernel events as this one (thinner batches)
                start=1_600_000,
                cap=6_000_000,
                rel_tol=0.12,
                log=probes.setdefault(f"{label} {key_mode} keys", []),
            )
            out[label][key_mode] = {
                "e2e_p95": point.e2e_latency.p95,
                "max": probe.produce_rate,
            }
            table.add(
                label,
                key_mode,
                fmt_latency(point.e2e_latency.p95),
                fmt_rate(probe.produce_rate),
            )
    table.show()

    def ratio(system: str, metric: str, over: str, under: str) -> float:
        return out[system][over][metric] / out[system][under][metric]

    return {
        "pulsar_e2e_ratio": ratio("Pulsar", "e2e_p95", "random", "none"),
        "kafka_keys_e2e_penalty": ratio("Kafka", "e2e_p95", "random", "none"),
        # recorded, unclaimed: see the note above the fig09 claim rows
        "kafka_nokeys_throughput_gain": ratio("Kafka", "max", "none", "random"),
        "pravega_keys_vs_nokeys": ratio("Pravega", "max", "random", "none"),
        "probes": probes,
    }
