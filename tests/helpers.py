"""Shared test fixtures/utilities for Pravega integration tests."""

from __future__ import annotations

from repro.common.errors import SimulationError
from repro.pravega import PravegaCluster, PravegaClusterConfig
from repro.sim import SimFuture, Simulator


def build_cluster(sim: Simulator, **overrides) -> PravegaCluster:
    """A started cluster on in-memory LTS (unless overridden)."""
    config = PravegaClusterConfig(**{"lts_kind": "memory", **overrides})
    cluster = PravegaCluster.build(sim, config)
    sim.run_until_complete(cluster.start(), timeout=120)
    return cluster


def make_stream(sim, cluster, scope="test", stream="stream", config=None):
    client = cluster.controller_client("bench-0")
    sim.run_until_complete(client.create_scope(scope))
    sim.run_until_complete(client.create_stream(scope, stream, config))
    return client


def run(sim: Simulator, fut, timeout=120.0):
    return sim.run_until_complete(fut, timeout=timeout)


def drain_reader(sim, reader, expected_events, timeout=120.0):
    """Read until ``expected_events`` events arrive; returns EventBatches."""
    batches = []
    count = 0
    while count < expected_events:
        batch = sim.run_until_complete(reader.read_next(), timeout=timeout)
        batches.append(batch)
        count += batch.event_count
    return batches


def any_of(sim: Simulator, futures) -> SimFuture:
    """A future resolving with (index, value) of the first input to resolve."""
    futures = list(futures)
    if not futures:
        raise SimulationError("any_of requires at least one future")
    result = sim.future()

    def make_callback(index: int):
        def on_done(fut: SimFuture) -> None:
            if result.done:
                return
            if fut.exception is not None:
                result.set_exception(fut.exception)
            else:
                result.set_result((index, fut.value))

        return on_done

    for i, fut in enumerate(futures):
        fut.add_callback(make_callback(i))
    return result
