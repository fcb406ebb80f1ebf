"""Table 1 — Experiments configuration (§5.1).

Table 1 is the paper's deployment matrix, not a measurement.  This bench
prints the simulated equivalent of every row and records what the
adapters actually deploy — component counts, replication settings,
default durability, tiering backend, journal drive — for the ``table1``
rows of ``repro.bench.claims`` to hold against the paper's values.
"""

from repro.bench import KafkaAdapter, PravegaAdapter, PulsarAdapter, Table
from repro.sim import Simulator


def table1() -> dict:
    sim = Simulator()
    pravega = PravegaAdapter(sim)
    pravega.setup(4)
    kafka = KafkaAdapter(Simulator())
    kafka.setup(4)
    pulsar = PulsarAdapter(Simulator())
    pulsar.setup(4)

    table = Table(
        ["", "Pravega", "Kafka", "Pulsar"],
        title="Table 1 (simulated deployment; paper values in brackets)",
    )
    table.add(
        "Replication",
        "e=3 wQ=3 aQ=2 [same]",
        "r=3 acks=all minISR=2 [same]",
        "e=3 wQ=3 aQ=2 [same]",
    )
    table.add("Durability (default)", "Yes [Yes]", "No [No]", "Yes [Yes]")
    table.add("Tiering", "Yes, EFS model [AWS EFS]", "No [No]", "Yes, S3 model [AWS S3]")
    table.add(
        "Server instances",
        f"{len(pravega.cluster.stores)} store+bookie [3]",
        f"{len(kafka.cluster.brokers)} brokers [3]",
        f"{len(pulsar.cluster.brokers)} broker+bookie [3]",
    )
    table.add("Journal drives", "1 NVMe model [1 NVMe]", "1 NVMe model [1 NVMe]", "1 NVMe model [1 NVMe]")
    table.add(
        "Client batching",
        "dynamic (RTT/2) [dynamic]",
        "1ms/128KB [time/size]",
        "1ms/128KB [time/size]",
    )
    table.show()
    bookies = pravega.cluster.bk_cluster.bookies
    return {
        "pravega_stores": len(pravega.cluster.stores),
        "pravega_bookies": len(bookies),
        "pravega_journal_sync": all(b.journal_sync for b in bookies.values()),
        "pravega_lts": pravega.cluster.lts.spec.name,
        "kafka_brokers": len(kafka.cluster.brokers),
        "kafka_replication_factor": kafka.cluster.replication_factor,
        "kafka_min_insync_replicas": kafka.cluster.min_insync_replicas,
        "kafka_flush_every_message": any(
            b.flush_every_message for b in kafka.cluster.brokers.values()
        ),
        "pulsar_brokers": len(pulsar.cluster.brokers),
        "pulsar_ensemble_size": pulsar.broker_config.ensemble_size,
        "pulsar_write_quorum": pulsar.broker_config.write_quorum,
        "pulsar_ack_quorum": pulsar.broker_config.ack_quorum,
        "journal_disk_bandwidth": pravega.cluster.config.disk.bandwidth,
    }
