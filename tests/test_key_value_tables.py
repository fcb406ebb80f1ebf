"""Tests for the public key-value table API (§2.2, §4.3)."""

import pytest

from repro.common.errors import ConditionalUpdateError
from repro.sim import Simulator, all_of

from helpers import build_cluster, run


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def cluster(sim):
    return build_cluster(sim)


def make_table(sim, cluster, name="kvt", partitions=1):
    return run(
        sim, cluster.create_key_value_table("app", "test", name, partitions)
    )


class TestBasicOperations:
    def test_put_get_roundtrip(self, sim, cluster):
        table = make_table(sim, cluster)
        version = run(sim, table.put("user:1", b"alice"))
        assert version == 0
        entry = run(sim, table.get("user:1"))
        assert entry.value == b"alice" and entry.version == 0

    def test_get_missing_returns_none(self, sim, cluster):
        table = make_table(sim, cluster)
        assert run(sim, table.get("nope")) is None

    def test_update_bumps_version(self, sim, cluster):
        table = make_table(sim, cluster)
        run(sim, table.put("k", b"v1"))
        version = run(sim, table.put("k", b"v2"))
        assert version == 1
        assert run(sim, table.get("k")).value == b"v2"

    def test_remove(self, sim, cluster):
        table = make_table(sim, cluster)
        run(sim, table.put("k", b"v"))
        run(sim, table.remove("k"))
        assert run(sim, table.get("k")) is None

    def test_create_is_idempotent(self, sim, cluster):
        make_table(sim, cluster, name="twice")
        make_table(sim, cluster, name="twice")

    def test_values_survive_recovery(self, sim, cluster):
        table = make_table(sim, cluster)
        run(sim, table.put("persistent", b"data"))
        segment = table._segment_for("persistent")
        victim = cluster.store_cluster.store_for_segment(segment).name
        run(sim, cluster.store_cluster.fail_store(victim), timeout=600)
        entry = run(sim, table.get("persistent"))
        assert entry.value == b"data"


class TestConditionalUpdates:
    def test_insert_only_if_absent(self, sim, cluster):
        table = make_table(sim, cluster)
        run(sim, table.put("k", b"first", expected_version=-1))
        fut = table.put("k", b"second", expected_version=-1)
        sim.run(until=sim.now + 1)
        assert isinstance(fut.exception, ConditionalUpdateError)

    def test_conditional_replace(self, sim, cluster):
        table = make_table(sim, cluster)
        v0 = run(sim, table.put("k", b"v0"))
        run(sim, table.put("k", b"v1", expected_version=v0))
        fut = table.put("k", b"v2", expected_version=v0)  # stale version
        sim.run(until=sim.now + 1)
        assert isinstance(fut.exception, ConditionalUpdateError)

    def test_conditional_remove(self, sim, cluster):
        table = make_table(sim, cluster)
        v0 = run(sim, table.put("k", b"v"))
        fut = table.remove("k", expected_version=v0 + 7)
        sim.run(until=sim.now + 1)
        assert isinstance(fut.exception, ConditionalUpdateError)
        run(sim, table.remove("k", expected_version=v0))

    def test_optimistic_counter(self, sim, cluster):
        """CAS loop: concurrent incrementers never lose an update."""
        table = make_table(sim, cluster)
        run(sim, table.put("counter", 0))

        def incrementer():
            for _ in range(5):
                while True:
                    entry = yield table.get("counter")
                    try:
                        yield table.put(
                            "counter", entry.value + 1, expected_version=entry.version
                        )
                        break
                    except ConditionalUpdateError:
                        continue

        procs = [sim.process(incrementer()) for _ in range(3)]
        run(sim, all_of(sim, procs), timeout=120)
        assert run(sim, table.get("counter")).value == 15


class TestPartitionedTables:
    def test_keys_spread_over_partitions(self, sim, cluster):
        table = make_table(sim, cluster, name="wide", partitions=4)
        futs = [table.put(f"key-{i}", i) for i in range(40)]
        run(sim, all_of(sim, futs))
        segments = {table._segment_for(f"key-{i}") for i in range(40)}
        assert len(segments) == 4

    def test_keys_listing(self, sim, cluster):
        table = make_table(sim, cluster, name="list", partitions=2)
        for key in ("zebra", "apple", "mango"):
            run(sim, table.put(key, b"x"))
        assert run(sim, table.keys()) == ["apple", "mango", "zebra"]
