"""Figure 5 — Impact of data durability on write performance (§5.2).

Workload: 100 B events, 1 writer/producer, 1 and 16 segments/partitions.
Systems: Pravega with durability (default) and with journal flushing
disabled ("no flush"); Kafka with its default page-cache durability
("no flush") and with flush.messages=1 ("flush").

Paper claims reproduced:
  (a) 1 segment: Pravega (flush) reaches a maximum throughput well above
      Kafka (no flush) — +73% in the paper — while guaranteeing
      durability.
  (b) 16 segments: both Pravega and Kafka (no flush) exceed 1M events/s
      for a single writer.
  (c) Kafka (flush) pays a severe latency/throughput penalty (per-append
      fsync), while Pravega's "no flush" gain is modest (group commit
      already amortizes the fsync) — justifying durability by default.
"""

from repro.bench import (
    KafkaAdapter,
    PravegaAdapter,
    Table,
    WorkloadSpec,
    fmt_latency,
    fmt_rate,
)
from repro.capacity import find_max_throughput
from repro.workload import saturation_margin, sustainable_verdict

from common import run_fresh

EVENT_SIZE = 100

VARIANTS = {
    "Pravega (flush)": lambda sim: PravegaAdapter(sim, journal_sync=True),
    "Pravega (no flush)": lambda sim: PravegaAdapter(sim, journal_sync=False),
    "Kafka (no flush)": lambda sim: KafkaAdapter(sim, flush_every_message=False),
    "Kafka (flush)": lambda sim: KafkaAdapter(sim, flush_every_message=True),
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


def _run_figure(partitions: int):
    rates = [10_000, 100_000, 500_000, 1_000_000]
    table = Table(
        ["system", "target", "achieved", "write p50", "write p95"],
        title=f"Fig. 5 ({partitions} segment(s)/partition(s), 1 writer, 100B events)",
    )
    outcome = {}
    probes: dict = {}
    for label, make in VARIANTS.items():
        for rate in rates:
            result = run_fresh(
                make,
                _spec(partitions, rate),
                trace_name=f"fig05_{label}_{partitions}p_{rate:.0f}eps",
            )
            table.add(
                label,
                fmt_rate(rate),
                fmt_rate(result.produce_rate),
                fmt_latency(result.write_latency.p50),
                fmt_latency(result.write_latency.p95),
            )
            feasible, _ = sustainable_verdict(result, saturation_margin(result))
            if not feasible:
                break
        probe = find_max_throughput(
            make, _spec(partitions, 0), start=800_000, cap=4_000_000, rel_tol=0.2,
            log=probes.setdefault(label, []),
        )
        outcome[label] = probe.produce_rate
        table.add(label, "max", fmt_rate(probe.produce_rate), "-", "-")
    table.show()
    return outcome, probes


def fig05a() -> dict:
    outcome, probes = _run_figure(1)
    return {
        "pravega_flush_max_eps": outcome["Pravega (flush)"],
        "kafka_noflush_max_eps": outcome["Kafka (no flush)"],
        "kafka_flush_max_eps": outcome["Kafka (flush)"],
        "probes": probes,
    }


def fig05b() -> dict:
    outcome, probes = _run_figure(16)
    return {
        "pravega_flush_max_eps": outcome["Pravega (flush)"],
        "kafka_noflush_max_eps": outcome["Kafka (no flush)"],
        "probes": probes,
    }


def fig05c() -> dict:
    """Pravega's own flush/no-flush pair at 1 segment."""
    probes: dict = {}
    flush, no_flush = [
        find_max_throughput(
            VARIANTS[label], _spec(1, 0), start=1_600_000, cap=4_000_000, rel_tol=0.2,
            log=probes.setdefault(label, []),
        )
        for label in ("Pravega (flush)", "Pravega (no flush)")
    ]
    return {
        "pravega_flush_eps": flush.produce_rate,
        "pravega_noflush_eps": no_flush.produce_rate,
        "probes": probes,
    }
