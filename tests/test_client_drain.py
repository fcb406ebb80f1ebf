"""``flush()`` is a completion on all three produce clients.

Each client counts its unacknowledged sends in a :class:`repro.sim.Drain`
and ``flush()`` returns the drain's future.  The contract, checked for
the Pravega writer, the Kafka producer and the Pulsar producer alike:

(a) flush resolves at the simulated instant of the last ack (not on a
    polling grid);
(b) it resolves only after a callback the caller added to the last
    send's future has run;
(c) with nothing in flight it returns an already-resolved future;
(d) a send that fails with an exception still drains;
(e) two overlapping flushes both resolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.bookkeeper import Bookie, BookKeeperCluster
from repro.kafka import KafkaBroker, KafkaCluster, KafkaProducer, TopicPartition
from repro.lts import InMemoryLTS
from repro.pravega.client.writer import WriterConfig
from repro.pulsar import PulsarBroker, PulsarCluster, PulsarProducer
from repro.sim import Disk, Network, SimFuture, Simulator

from helpers import build_cluster, make_stream


@dataclass
class Client:
    sim: Simulator
    #: one send; returns its ack future
    send: Callable[[], SimFuture]
    flush: Callable[[], SimFuture]
    #: make every later send fail
    break_cluster: Callable[[], None]


def pravega_client() -> Client:
    sim = Simulator()
    cluster = build_cluster(sim)
    make_stream(sim, cluster)
    # no reconnect retries: a crashed store fails the write outright
    writer = cluster.create_writer(
        "bench-0", "test", "stream", WriterConfig(max_retries=0)
    )

    def break_cluster() -> None:
        for store in cluster.stores.values():
            store.crash()

    return Client(
        sim, lambda: writer.write_event(b"x" * 100, routing_key="k"),
        writer.flush, break_cluster,
    )


def kafka_client() -> Client:
    sim = Simulator()
    network = Network(sim)
    cluster = KafkaCluster(sim, network)
    for i in range(3):
        cluster.add_broker(KafkaBroker(sim, f"broker-{i}", network))
    cluster.create_topic("t", 1)
    producer = KafkaProducer(sim, cluster, "t", "client")

    def break_cluster() -> None:
        # below min.insync.replicas: acks=all produces fail
        for name in cluster.assignments[TopicPartition("t", 0)][1:]:
            cluster.brokers[name].crash()

    return Client(sim, lambda: producer.send(100), producer.flush, break_cluster)


def pulsar_client() -> Client:
    sim = Simulator()
    network = Network(sim)
    bk = BookKeeperCluster(sim, network)
    lts = InMemoryLTS(sim)
    cluster = PulsarCluster(sim, network, bk, lts)
    for i in range(3):
        name = f"pulsar-{i}"
        bk.add_bookie(Bookie(sim, name, Disk(sim)))
        cluster.add_broker(PulsarBroker(sim, name, network, bk, lts, cluster.config))
    cluster.create_topic("t", 1)
    producer = PulsarProducer(sim, cluster, "t", "client")

    def break_cluster() -> None:
        for broker in cluster.brokers.values():
            broker.crash()

    return Client(sim, lambda: producer.send(100), producer.flush, break_cluster)


@pytest.fixture(params=[pravega_client, kafka_client, pulsar_client],
                ids=["pravega", "kafka", "pulsar"])
def client(request) -> Client:
    return request.param()


def run(sim: Simulator, fut: SimFuture) -> None:
    sim.run_until_complete(fut, timeout=60.0)


def test_flush_is_a_completion(client):
    sim = client.sim
    # (a) + (b): the caller's ack callbacks, then the flusher, all at the
    # instant of the last ack
    log = []
    for _ in range(3):
        client.send().add_callback(lambda fut: log.append(("ack", sim.now)))
        sim.run(until=sim.now + 0.0003)

    def flusher():
        yield client.flush()
        log.append(("flush", sim.now))

    run(sim, sim.process(flusher()))
    assert [kind for kind, _ in log] == ["ack", "ack", "ack", "flush"]
    assert log[-1][1] == log[-2][1]

    # (c) nothing in flight: already resolved
    assert client.flush().done

    # (e) overlapping flushes both resolve
    client.send()
    first = client.flush()
    client.send()
    second = client.flush()
    run(sim, second)
    assert first.done and second.done

    # (d) a failed send still drains
    client.break_cluster()
    failed = client.send()
    run(sim, client.flush())
    assert failed.done and failed.exception is not None
    assert client.flush().done
