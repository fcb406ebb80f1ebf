"""Fuzz scenarios: seeded fault schedules against each system under test.

Each ``run_<system>(seed, steps)`` builds a small cluster, derives a
random :class:`FaultPlan` from the seed (unless an explicit plan is
given), runs a keyed workload under injection, heals the cluster,
reads everything back and returns the oracle's verdict.  Everything —
the plan, per-event gaps, retry backoff — derives from
``random.Random(f"<system>:{seed}")`` (string seeding is hash-stable),
so a run replays bit-identically from its seed.

The heal/readback phase runs with the engine quiesced: faults model a
bounded outage, and the durability contract is judged after recovery,
like the paper's §4.4 failure experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..common.errors import SimulationError
from ..common.hashing import assign_to_bucket
from ..common.payload import Payload
from ..sim.core import Simulator, all_of
from .engine import FaultEngine
from .oracle import (
    HistoryOracle,
    check_history,
    check_pravega_tiering,
    decode_event,
)
from .plan import FaultPlan

__all__ = [
    "ScenarioResult",
    "run_pravega",
    "run_kafka",
    "run_pulsar",
    "wire_pravega",
    "wire_kafka",
    "wire_pulsar",
    "heal_pravega",
]

KEYS = ["alpha", "bravo", "charlie", "delta"]


@dataclass
class ScenarioResult:
    system: str
    seed: int
    steps: int
    plan: FaultPlan
    oracle: HistoryOracle
    violations: List[str]
    injected: List[Tuple[float, str, str]] = field(default_factory=list)
    #: scenario-specific facts (durability mode, ledger counts, ...)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def _split_steps(steps: int) -> Dict[str, int]:
    base, extra = divmod(steps, len(KEYS))
    return {key: base + (1 if i < extra else 0) for i, key in enumerate(KEYS)}


def _ack_tracker(oracle: HistoryOracle, key: str, seq: int):
    def on_done(fut) -> None:
        if fut.exception is None:
            oracle.mark_acked(key, seq)
        else:
            oracle.mark_failed(key, seq)

    return on_done


# ======================================================================
# Pravega
# ======================================================================
def wire_pravega(engine: FaultEngine, cluster) -> None:
    """Attach the engine to every injection point of a Pravega cluster."""
    cluster.network.faults = engine
    engine.register_zk(cluster.zk_service)
    store_cluster = cluster.store_cluster
    for name, store in store_cluster.stores.items():
        store.fault_engine = engine
        for container in store.containers.values():
            container.faults = engine
            container.durable_log.faults = engine
            container.storage_writer.faults = engine

        def store_crash(lose_unsynced: bool, name=name) -> None:
            store = store_cluster.stores[name]
            alive = sum(1 for s in store_cluster.stores.values() if s.alive)
            if not store.alive or alive <= 1:
                return  # keep at least one store up; faults model outages
            store_cluster.fail_store(name)  # failover runs asynchronously

        engine.register_node(name, store_crash, store.restart)
        bookie = cluster.bk_cluster.bookies.get(name)
        if bookie is not None:  # colocated with the store (Table 1)
            bookie.faults = engine
            bookie.journal_disk.faults = engine
            bookie.journal_disk.node = name

            def bookie_crash(lose_unsynced: bool, bookie=bookie) -> None:
                if bookie.alive:
                    bookie.crash(lose_unsynced=lose_unsynced)

            def bookie_restart(bookie=bookie) -> None:
                if not bookie.alive:
                    bookie.restart()

            engine.register_node(name, bookie_crash, bookie_restart)


def _pravega_plan(rng: random.Random, steps: int) -> FaultPlan:
    horizon = max(0.3, steps * 0.004)
    plan = FaultPlan(seed=rng.randrange(2**31))
    stores = [f"segmentstore-{i}" for i in range(3)]
    n_rules = max(2, min(8, steps // 12))
    for _ in range(n_rules):
        kind = rng.choice(
        ["crash_restart", "crash_restart", "disk_stall", "net_delay",
             "net_drop", "net_partition", "zk_expire", "recovery_crash",
             "lts_fail"]
        )
        if kind == "crash_restart":
            plan.crash_restart(
                rng.choice(stores),
                at=rng.uniform(0.05, horizon),
                downtime=rng.uniform(0.05, 0.3),
                lose_unsynced=rng.random() < 0.4,
            )
        elif kind == "disk_stall":
            plan.disk_stall(
                "segmentstore-*",
                at=rng.uniform(0.02, horizon),
                duration=rng.uniform(0.01, 0.1),
            )
        elif kind == "net_delay":
            plan.net_delay(
                "*", probability=rng.uniform(0.002, 0.02),
                delay=rng.uniform(0.001, 0.01), repeat=True,
            )
        elif kind == "net_drop":
            plan.net_drop(
                "*", probability=rng.uniform(0.001, 0.008),
                delay=rng.uniform(0.05, 0.25), repeat=True,
            )
        elif kind == "net_partition":
            a, b = rng.sample(stores + ["bench-0"], 2)
            plan.net_partition(
                f"{a}<->{b}",
                at=rng.uniform(0.05, horizon),
                duration=rng.uniform(0.03, 0.2),
            )
        elif kind == "zk_expire":
            plan.zk_expire(rng.choice(stores), at=rng.uniform(0.05, horizon))
        elif kind == "recovery_crash":
            plan.recovery_crash(
                "container-*", on_op=rng.randrange(1, 4), note="satellite-1"
            )
        elif kind == "lts_fail":
            plan.lts_fail(
                "container-*",
                at=rng.uniform(0.05, horizon),
                duration=rng.uniform(0.05, 0.3),
            )
    return plan


def heal_pravega(sim: Simulator, cluster, engine: FaultEngine) -> None:
    """Quiesce faults, restart everything, recover offline containers."""
    engine.quiesce()
    for bookie in cluster.bk_cluster.bookies.values():
        if not bookie.alive:
            bookie.restart()
    for store in cluster.store_cluster.stores.values():
        if not store.alive:
            store.restart()
    sim.run(until=sim.now + 0.2)
    store_cluster = cluster.store_cluster
    for _ in range(5):
        offline = []
        for cid, owner in sorted(store_cluster.assignment().items()):
            container = store_cluster.stores[owner].containers.get(cid)
            if container is None or not container.online:
                offline.append(cid)
        if not offline:
            break
        for cid in offline:
            try:
                sim.run_until_complete(
                    store_cluster.recover_container(cid), timeout=120
                )
            except Exception:
                pass  # retried on the next sweep
        sim.run(until=sim.now + 0.05)
    # settle the tiering path so the LTS check sees a flushed state
    for store in store_cluster.stores.values():
        for container in store.containers.values():
            if container.online:
                try:
                    sim.run_until_complete(
                        container.storage_writer.flush_all(), timeout=120
                    )
                except SimulationError:
                    pass


def run_pravega(
    seed: int,
    steps: int,
    plan: Optional[FaultPlan] = None,
    journal_sync: Optional[bool] = None,
    tracer=None,
) -> ScenarioResult:
    from ..pravega import PravegaCluster, PravegaClusterConfig

    sim = Simulator()
    rng = random.Random(f"pravega:{seed}")
    if journal_sync is None:
        # exercise both Fig. 5 durability modes across seeds
        journal_sync = rng.random() < 0.5
    config = PravegaClusterConfig(
        num_segment_stores=3,
        num_containers=4,
        lts_kind="memory",
        journal_sync=journal_sync,
    )
    cluster = PravegaCluster.build(sim, config)
    sim.run_until_complete(cluster.start(), timeout=300)
    client = cluster.controller_client("bench-0")
    sim.run_until_complete(client.create_scope("fuzz"), timeout=60)
    sim.run_until_complete(client.create_stream("fuzz", "s"), timeout=60)

    if plan is None:
        plan = _pravega_plan(rng, steps)
    engine = FaultEngine(sim, plan, metrics=cluster.metrics)
    wire_pravega(engine, cluster)
    if tracer is not None:
        # The scenario owns its simulator; bind the caller's tracer to it.
        tracer.sim = sim
        engine.tracer = tracer
        for store in cluster.store_cluster.stores.values():
            store.tracer = tracer
            for container in store.containers.values():
                container.tracer = tracer
                container.storage_writer.tracer = tracer

    oracle = HistoryOracle()
    writers = {
        key: cluster.create_writer("bench-0", "fuzz", "s", writer_id=f"w-{key}")
        for key in KEYS
    }
    if tracer is not None:
        for writer in writers.values():
            writer.tracer = tracer

    def key_writer(key: str, count: int):
        writer = writers[key]
        for _ in range(count):
            data, seq = oracle.next_event(key)
            fut = writer.write_event(data, routing_key=key)
            fut.add_callback(_ack_tracker(oracle, key, seq))
            try:
                yield fut
            except Exception:
                pass  # marked failed by the callback
            yield sim.timeout(0.001 + rng.random() * 0.003)

    procs = [
        sim.process(key_writer(key, count))
        for key, count in _split_steps(steps).items()
    ]
    engine.start()
    try:
        sim.run_until_complete(all_of(sim, procs), timeout=900)
    except SimulationError:
        pass  # stuck writers: their events stay unacked, readback decides

    heal_pravega(sim, cluster, engine)

    # readback: a fresh reader group drains the stream from the head
    group = sim.run_until_complete(
        cluster.create_reader_group("bench-1", "g", "fuzz", "s"), timeout=120
    )
    reader = cluster.create_reader("bench-1", "r0", group)
    sim.run_until_complete(reader.join(), timeout=120)
    pending: Set[Tuple[str, int]] = set(oracle.acked)
    reads = 0
    try:
        while pending and reads < 10 * steps + 100:
            batch = sim.run_until_complete(reader.read_next(), timeout=30.0)
            reads += 1
            for data in batch.events:
                key, seq = decode_event(data)
                oracle.observe(key, seq)
                pending.discard((key, seq))
    except (SimulationError, Exception):
        pass  # missing events are the oracle's verdict to report

    violations = oracle.check(allow_duplicates=False)
    violations += check_pravega_tiering(cluster)
    return ScenarioResult(
        "pravega", seed, steps, plan, oracle, violations, list(engine.injected),
        extra={"journal_sync": float(journal_sync)},
    )


# ======================================================================
# Kafka
# ======================================================================
def wire_kafka(engine: FaultEngine, cluster) -> None:
    cluster.network.faults = engine
    for name, broker in cluster.brokers.items():
        broker.faults = engine
        broker.disk.faults = engine
        broker.disk.node = name

        def crash(lose_unsynced: bool, broker=broker) -> None:
            if broker.alive:
                broker.crash(lose_unsynced=lose_unsynced)

        def restart(broker=broker) -> None:
            if not broker.alive:
                broker.restart()

        engine.register_node(name, crash, restart)


def _kafka_plan(rng: random.Random, steps: int, flush: bool) -> FaultPlan:
    horizon = max(0.3, steps * 0.004)
    plan = FaultPlan(seed=rng.randrange(2**31))
    brokers = [f"broker-{i}" for i in range(3)]
    n_rules = max(2, min(7, steps // 15))
    # Without per-message fsync, Kafka's contract tolerates only
    # non-simultaneous page-cache losses (acks=all relies on a
    # surviving in-sync replica) — allow one lossy crash per run.
    lossy_budget = 1
    for _ in range(n_rules):
        kind = rng.choice(
            ["crash_restart", "crash_restart", "disk_stall", "net_delay",
             "net_drop", "net_partition"]
        )
        if kind == "crash_restart":
            lose = (not flush) and lossy_budget > 0 and rng.random() < 0.5
            if lose:
                lossy_budget -= 1
            plan.crash_restart(
                rng.choice(brokers),
                at=rng.uniform(0.05, horizon),
                downtime=rng.uniform(0.05, 0.3),
                lose_unsynced=lose,
            )
        elif kind == "disk_stall":
            plan.disk_stall(
                "broker-*",
                at=rng.uniform(0.02, horizon),
                duration=rng.uniform(0.01, 0.08),
            )
        elif kind == "net_delay":
            plan.net_delay(
                "*", probability=rng.uniform(0.002, 0.02),
                delay=rng.uniform(0.001, 0.01), repeat=True,
            )
        elif kind == "net_drop":
            plan.net_drop(
                "*", probability=rng.uniform(0.001, 0.008),
                delay=rng.uniform(0.05, 0.25), repeat=True,
            )
        elif kind == "net_partition":
            a, b = rng.sample(brokers + ["client-0"], 2)
            plan.net_partition(
                f"{a}<->{b}",
                at=rng.uniform(0.05, horizon),
                duration=rng.uniform(0.03, 0.15),
            )
    return plan


def run_kafka(
    seed: int,
    steps: int,
    plan: Optional[FaultPlan] = None,
    flush_every_message: Optional[bool] = None,
) -> ScenarioResult:
    from ..kafka.broker import KafkaBroker, KafkaCluster, TopicPartition
    from ..sim.network import Network

    sim = Simulator()
    rng = random.Random(f"kafka:{seed}")
    if flush_every_message is None:
        flush_every_message = rng.random() < 0.5
    network = Network(sim)
    cluster = KafkaCluster(sim, network)
    for i in range(3):
        cluster.add_broker(
            KafkaBroker(
                sim, f"broker-{i}", network,
                flush_every_message=flush_every_message,
            )
        )
    partitions = 2
    cluster.create_topic("t", partitions)

    if plan is None:
        plan = _kafka_plan(rng, steps, flush_every_message)
    engine = FaultEngine(sim, plan)
    wire_kafka(engine, cluster)

    oracle = HistoryOracle()

    def key_writer(key: str, count: int):
        tp = TopicPartition("t", assign_to_bucket(key, partitions))
        pid = f"p-{key}"
        for _ in range(count):
            data, seq = oracle.next_event(key)
            payload = Payload.of(data)
            acked = False
            for attempt in range(6):
                fut = cluster.produce(
                    "client-0", tp, payload, 1, producer_id=pid, sequence=seq
                )
                try:
                    yield fut
                    acked = True
                    break
                except Exception:
                    yield sim.timeout(0.05 * (attempt + 1))
            if acked:
                oracle.mark_acked(key, seq)
            else:
                oracle.mark_failed(key, seq)
            yield sim.timeout(0.001 + rng.random() * 0.003)

    procs = [
        sim.process(key_writer(key, count))
        for key, count in _split_steps(steps).items()
    ]
    engine.start()
    try:
        sim.run_until_complete(all_of(sim, procs), timeout=900)
    except SimulationError:
        pass

    # heal: restart everything, quiesce faults
    engine.quiesce()
    for broker in cluster.brokers.values():
        if not broker.alive:
            broker.restart()
    sim.run(until=sim.now + 0.2)

    # Readback: every replica must individually be ordered and
    # duplicate-free; durability is judged against the union (acks=all
    # guarantees a surviving in-sync replica, and leader election —
    # which we do not model — would promote it).
    violations: List[str] = []
    union: Set[Tuple[str, int]] = set()
    for partition in range(partitions):
        tp = TopicPartition("t", partition)
        for name in cluster.assignments[tp]:
            log = cluster.brokers[name].logs[tp]
            observed: Dict[str, List[int]] = {}
            for batch in log.batches:
                key, seq = decode_event(batch.payload.require_content())
                observed.setdefault(key, []).append(seq)
                union.add((key, seq))
            for v in check_history(set(), observed):
                violations.append(f"replica {name}/{tp.log_name}: {v}")
    for key, seq in sorted(oracle.acked - union):
        violations.append(f"lost acked event {key}|{seq} (all replicas)")
    for key, seq in sorted(union):
        oracle.observe(key, seq)

    return ScenarioResult(
        "kafka", seed, steps, plan, oracle, violations, list(engine.injected),
        extra={"flush_every_message": float(flush_every_message)},
    )


# ======================================================================
# Pulsar
# ======================================================================
def wire_pulsar(engine: FaultEngine, cluster, bk_cluster) -> None:
    cluster.network.faults = engine
    for name, broker in cluster.brokers.items():
        broker.faults = engine

        def crash(lose_unsynced: bool, broker=broker) -> None:
            if broker.alive:
                broker.crash("injected fault")

        def restart(broker=broker) -> None:
            if not broker.alive:
                broker.restart()

        engine.register_node(name, crash, restart)
        bookie = bk_cluster.bookies.get(name)
        if bookie is not None:  # colocated bookie (Table 1)
            bookie.faults = engine
            bookie.journal_disk.faults = engine
            bookie.journal_disk.node = name

            def b_crash(lose_unsynced: bool, bookie=bookie) -> None:
                if bookie.alive:
                    bookie.crash(lose_unsynced=lose_unsynced)

            def b_restart(bookie=bookie) -> None:
                if not bookie.alive:
                    bookie.restart()

            engine.register_node(name, b_crash, b_restart)


def _pulsar_plan(rng: random.Random, steps: int) -> FaultPlan:
    horizon = max(0.3, steps * 0.004)
    plan = FaultPlan(seed=rng.randrange(2**31))
    brokers = [f"pulsar-{i}" for i in range(3)]
    n_rules = max(2, min(7, steps // 15))
    for _ in range(n_rules):
        kind = rng.choice(
            ["crash_restart", "crash_restart", "disk_stall", "net_delay",
             "net_drop", "net_partition"]
        )
        if kind == "crash_restart":
            plan.crash_restart(
                rng.choice(brokers),
                at=rng.uniform(0.05, horizon),
                downtime=rng.uniform(0.05, 0.3),
            )
        elif kind == "disk_stall":
            plan.disk_stall(
                "pulsar-*",
                at=rng.uniform(0.02, horizon),
                duration=rng.uniform(0.01, 0.08),
            )
        elif kind == "net_delay":
            plan.net_delay(
                "*", probability=rng.uniform(0.002, 0.02),
                delay=rng.uniform(0.001, 0.01), repeat=True,
            )
        elif kind == "net_drop":
            plan.net_drop(
                "*", probability=rng.uniform(0.001, 0.008),
                delay=rng.uniform(0.05, 0.25), repeat=True,
            )
        elif kind == "net_partition":
            a, b = rng.sample(brokers + ["client-0"], 2)
            plan.net_partition(
                f"{a}<->{b}",
                at=rng.uniform(0.05, horizon),
                duration=rng.uniform(0.03, 0.15),
            )
    return plan


def run_pulsar(
    seed: int, steps: int, plan: Optional[FaultPlan] = None
) -> ScenarioResult:
    from ..bookkeeper import Bookie, BookKeeperCluster
    from ..lts import InMemoryLTS
    from ..pulsar.broker import PulsarBroker, PulsarBrokerConfig, PulsarCluster
    from ..sim.disk import Disk
    from ..sim.network import Network

    sim = Simulator()
    rng = random.Random(f"pulsar:{seed}")
    network = Network(sim)
    bk = BookKeeperCluster(sim, network)
    lts = InMemoryLTS(sim)
    # Small rollover exercises ledger transitions under faults;
    # offloading is off so closed ledgers stay readable from Bookkeeper.
    config = PulsarBrokerConfig(
        ledger_rollover_bytes=4096, offload_threads=0
    )
    cluster = PulsarCluster(sim, network, bk, lts, config)
    for i in range(3):
        name = f"pulsar-{i}"
        bk.add_bookie(Bookie(sim, name, Disk(sim)))
        cluster.add_broker(PulsarBroker(sim, name, network, bk, lts, config))
    partitions = 2
    cluster.create_topic("t", partitions)

    if plan is None:
        plan = _pulsar_plan(rng, steps)
    engine = FaultEngine(sim, plan)
    wire_pulsar(engine, cluster, bk)

    oracle = HistoryOracle()

    def key_writer(key: str, count: int):
        partition = f"t-{assign_to_bucket(key, partitions)}"
        for _ in range(count):
            data, seq = oracle.next_event(key)
            # Pad events so realistic step counts cross the 4 KiB ledger
            # rollover; trailing spaces survive decode_event (int() strips
            # surrounding whitespace from the sequence field).
            payload = Payload.of(data + b" " * 120)
            acked = False
            for attempt in range(6):
                broker = cluster.broker_for(partition)
                fut = broker.publish("client-0", partition, payload, 1)
                try:
                    yield fut
                    acked = True
                    break
                except Exception:
                    yield sim.timeout(0.08 * (attempt + 1))
            if acked:
                oracle.mark_acked(key, seq)
            else:
                oracle.mark_failed(key, seq)
            yield sim.timeout(0.001 + rng.random() * 0.003)

    procs = [
        sim.process(key_writer(key, count))
        for key, count in _split_steps(steps).items()
    ]
    engine.start()
    try:
        sim.run_until_complete(all_of(sim, procs), timeout=900)
    except SimulationError:
        pass

    engine.quiesce()
    for broker in cluster.brokers.values():
        if not broker.alive:
            broker.restart()
    for bookie in bk.bookies.values():
        if not bookie.alive:
            bookie.restart()
    sim.run(until=sim.now + 0.2)

    # Readback straight from Bookkeeper: partition order is the entry
    # order across the managed ledger's ledgers (at-least-once:
    # duplicates from publish retries are allowed).
    for partition_name, owner in sorted(cluster.assignments.items()):
        managed = cluster.brokers[owner].ledgers[partition_name]
        for record in managed.ledgers:
            lid = record.handle.ledger_id
            last = max(
                (b.last_entry_id(lid) for b in bk.bookies.values()), default=-1
            )
            for entry_id in range(last + 1):
                entry = None
                for bookie in bk.bookies.values():
                    if bookie.has_entry(lid, entry_id):
                        entry = bookie.read_entry(lid, entry_id)
                        break
                if entry is None:
                    continue  # failed append: hole in the ledger
                oracle.observe_bytes(entry.payload.require_content())

    violations = oracle.check(allow_duplicates=True)
    ledger_records = sum(
        len(broker.ledgers[p].ledgers)
        for p, owner in cluster.assignments.items()
        for broker in [cluster.brokers[owner]]
    )
    return ScenarioResult(
        "pulsar", seed, steps, plan, oracle, violations, list(engine.injected),
        extra={"ledger_records": float(ledger_records), "partitions": float(partitions)},
    )


RUNNERS = {
    "pravega": run_pravega,
    "kafka": run_kafka,
    "pulsar": run_pulsar,
}
