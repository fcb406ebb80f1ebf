"""Segment store instances: container hosts + the data-plane RPC surface.

"The data plane distributes the segment-related load based on segment
containers ... the main role of segment store instances is to host
segment containers.  A segment is mapped during its entire life to a
segment container using a stateless, uniform hash function" (§2.2).

Container ownership lives in the coordination service; when a store
crashes, its containers are redistributed across the remaining instances
and recovered there (WAL fencing guarantees exclusive access, §4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ContainerOfflineError, SegmentError
from repro.common.hashing import assign_to_bucket
from repro.common.metrics import MetricsRegistry
from repro.common.payload import Payload
from repro.bookkeeper.client import BookKeeperCluster
from repro.lts.base import LongTermStorage
from repro.pravega.container.container import (
    ContainerConfig,
    SegmentContainer,
)
from repro.sim.core import Interrupt, SimFuture, Simulator
from repro.sim.network import Network
from repro.zookeeper.service import ZookeeperService

__all__ = ["SegmentStoreConfig", "SegmentStore", "SegmentStoreCluster"]

#: RPC request/response framing overhead, bytes
RPC_OVERHEAD = 64


@dataclass(frozen=True)
class SegmentStoreConfig:
    container: ContainerConfig = field(default_factory=ContainerConfig)
    #: server-side processing latency per request (dispatch, parsing)
    request_processing_time: float = 30e-6


class SegmentStore:
    """One segment store instance (one host)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        network: Network,
        bk_cluster: BookKeeperCluster,
        zk_service: ZookeeperService,
        lts: LongTermStorage,
        config: Optional[SegmentStoreConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.network = network
        self.bk_cluster = bk_cluster
        self.zk_service = zk_service
        self.lts = lts
        self.config = config or SegmentStoreConfig()
        self.metrics = metrics or MetricsRegistry()
        self.containers: Dict[int, SegmentContainer] = {}
        #: memoized segment name -> container id (pure-function cache)
        self._container_route: Dict[str, int] = {}
        self.alive = True
        self.bytes_ingested = 0
        #: fault-injection hook (repro.faults.FaultEngine); unwired by default
        self.fault_engine = None
        #: optional repro.obs.Tracer, handed to hosted containers
        self.tracer = None

    # ------------------------------------------------------------------
    # Container hosting
    # ------------------------------------------------------------------
    def host_container(self, container_id: int, recover: bool = False) -> SimFuture:
        """Start (or recover) a container on this store."""
        zk = self.zk_service.connect(self.name)
        container = SegmentContainer(
            self.sim,
            container_id,
            self.bk_cluster.client(self.name),
            zk,
            self.lts,
            self.config.container,
            self.metrics,
            faults=self.fault_engine,
            tracer=self.tracer,
        )
        self.containers[container_id] = container
        return container.recover() if recover else container.start()

    def drop_container(self, container_id: int) -> None:
        container = self.containers.pop(container_id, None)
        if container is not None:
            container.shutdown()

    def container_for(self, segment: str) -> SegmentContainer:
        """The container owning ``segment`` — if hosted here."""
        # The segment -> container mapping is a pure function of the name
        # and the fixed container count; memoize to skip the stable hash
        # on every RPC.
        container_id = self._container_route.get(segment)
        if container_id is None:
            container_id = self._container_route[segment] = assign_to_bucket(
                segment, self._total_containers()
            )
        container = self.containers.get(container_id)
        if container is None:
            raise SegmentError(
                f"store {self.name} does not host container {container_id} "
                f"for segment {segment}"
            )
        return container

    def _total_containers(self) -> int:
        # The container count is a fixed cluster constant known everywhere.
        return self.cluster.num_containers  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Failure model
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop the whole instance: every hosted container goes down."""
        self.alive = False
        for container in self.containers.values():
            container.shutdown(ContainerOfflineError(f"store {self.name} crashed"))
        self.containers.clear()

    def restart(self) -> None:
        self.alive = True

    # ------------------------------------------------------------------
    # RPC surface (all methods pay network + processing costs)
    # ------------------------------------------------------------------
    def _rpc(
        self,
        client_host: str,
        request_bytes: int,
        method: Callable[..., Any],
        segment: str,
        args: tuple = (),
        span=None,
    ) -> SimFuture:
        """One non-read RPC: ``method`` (a plain ``SegmentContainer``
        function, so no per-request closure or bound method) is called on
        the container owning ``segment`` with ``(segment, *args)`` once
        the request has arrived."""
        # A Process is itself a SimFuture resolving with the generator's
        # return value (or exception) — hand it back directly rather than
        # bridging through a second future + callback per RPC.
        return self.sim.process(
            self._serve(client_host, request_bytes, method, segment, args, span)
        )

    def _serve(self, client_host, request_bytes, method, segment, args, span):
        """Request transfer -> processing -> container call -> reply transfer."""
        try:
            if span is not None:
                t_request = self.sim.now
            yield self.network.delay(client_host, self.name, request_bytes)
            if span is not None:
                span.component("network", self.sim.now - t_request)
            if not self.alive:
                raise ContainerOfflineError(f"store {self.name} is down")
            yield self.config.request_processing_time
            value = method(self.container_for(segment), segment, *args)
            if isinstance(value, SimFuture):
                # Queries answer at once; everything else waits on the WAL.
                value = yield value
            if span is not None:
                t_reply = self.sim.now
            yield self.network.delay(self.name, client_host, RPC_OVERHEAD)
            if span is not None:
                span.component("network", self.sim.now - t_reply)
            return value
        finally:
            if span is not None:
                span.finish()

    def rpc_append(
        self,
        client_host: str,
        segment: str,
        payload: Payload,
        writer_id: str = "",
        event_number: int = -1,
        event_count: int = 1,
        span=None,
    ) -> SimFuture:
        """Append a (batched) payload to a segment; resolves with AppendResult."""
        self.bytes_ingested += payload.size
        return self._rpc(
            client_host,
            RPC_OVERHEAD + payload.size,
            SegmentContainer.append,
            segment,
            (payload, writer_id, event_number, event_count, span),
            span,
        )

    def rpc_read(
        self, client_host: str, segment: str, offset: int, max_bytes: int
    ) -> SimFuture:
        """Read from a segment; resolves with ReadResult (tail reads wait)."""
        return self.sim.process(
            self._serve_read(client_host, segment, offset, max_bytes)
        )

    def _serve_read(self, client_host, segment, offset, max_bytes):
        yield self.network.delay(client_host, self.name, RPC_OVERHEAD)
        if not self.alive:
            raise ContainerOfflineError(f"store {self.name} is down")
        yield self.config.request_processing_time
        container = self.container_for(segment)
        inner = container.read(segment, offset, max_bytes)
        try:
            value = yield inner
        except Interrupt:
            # The client cancelled the read (its reader released or was
            # reassigned its segments): a parked tail read leaves the
            # wakeup list.  A container-side LTS fetch runs on — its bytes
            # land in the cache either way, and readers that joined it
            # must not see this reader's cancellation.
            container.cancel_tail_read(segment, inner)
            raise
        yield self.network.delay(
            self.name, client_host, RPC_OVERHEAD + value.payload.size
        )
        return value

    def rpc_get_info(self, client_host: str, segment: str) -> SimFuture:
        return self._rpc(client_host, RPC_OVERHEAD, SegmentContainer.get_info, segment)

    def rpc_get_attribute(self, client_host: str, segment: str, writer_id: str) -> SimFuture:
        """The writer-reconnect handshake (§3.2): last event number."""
        return self._rpc(
            client_host, RPC_OVERHEAD, SegmentContainer.get_attribute, segment, (writer_id,)
        )

    def rpc_create_segment(
        self, client_host: str, segment: str, is_table: bool = False
    ) -> SimFuture:
        return self._rpc(
            client_host, RPC_OVERHEAD, SegmentContainer.create_segment, segment, (is_table,)
        )

    def rpc_seal_segment(self, client_host: str, segment: str) -> SimFuture:
        return self._rpc(client_host, RPC_OVERHEAD, SegmentContainer.seal_segment, segment)

    def rpc_truncate_segment(
        self, client_host: str, segment: str, offset: int
    ) -> SimFuture:
        return self._rpc(
            client_host,
            RPC_OVERHEAD,
            SegmentContainer.truncate_segment,
            segment,
            (offset,),
        )

    def rpc_delete_segment(self, client_host: str, segment: str) -> SimFuture:
        return self._rpc(client_host, RPC_OVERHEAD, SegmentContainer.delete_segment, segment)

    def rpc_table_update(
        self, client_host: str, segment: str, updates: Dict[str, Tuple[Any, Optional[int]]]
    ) -> SimFuture:
        return self._rpc(
            client_host,
            RPC_OVERHEAD + 64 * len(updates),
            SegmentContainer.table_update,
            segment,
            (updates,),
        )

    def rpc_table_get(self, client_host: str, segment: str, keys: List[str]) -> SimFuture:
        return self._rpc(
            client_host,
            RPC_OVERHEAD + 32 * len(keys),
            SegmentContainer.table_get,
            segment,
            (keys,),
        )

    # ------------------------------------------------------------------
    def load_report(self) -> Dict[str, Tuple[float, float]]:
        """Aggregate per-segment rates across hosted containers (§3.1)."""
        report: Dict[str, Tuple[float, float]] = {}
        for container in self.containers.values():
            report.update(container.load_report())
        return report


class SegmentStoreCluster:
    """Container-to-store assignment plus failover (§4.4).

    The assignment map lives in the coordination service; this class is
    the management logic every store/controller shares.
    """

    def __init__(
        self,
        sim: Simulator,
        zk_service: ZookeeperService,
        num_containers: int,
    ) -> None:
        self.sim = sim
        self.zk_service = zk_service
        self.num_containers = num_containers
        self.stores: Dict[str, SegmentStore] = {}
        self._assignment: Dict[int, str] = {}
        self._zk = zk_service.connect("cluster-manager")

    def add_store(self, store: SegmentStore) -> None:
        store.cluster = self  # type: ignore[attr-defined]
        self.stores[store.name] = store

    def assignment(self) -> Dict[int, str]:
        return dict(self._assignment)

    def store_for_container(self, container_id: int) -> SegmentStore:
        return self.stores[self._assignment[container_id]]

    def store_for_segment(self, segment: str) -> SegmentStore:
        container_id = assign_to_bucket(segment, self.num_containers)
        return self.store_for_container(container_id)

    def bootstrap(self) -> SimFuture:
        """Distribute containers round-robin and start them all."""

        def run():
            yield self._zk.ensure_path("/pravega/cluster/containers")
            names = sorted(n for n, s in self.stores.items() if s.alive)
            startups = []
            for container_id in range(self.num_containers):
                target = names[container_id % len(names)]
                self._assignment[container_id] = target
                yield self._zk.ensure_path(
                    f"/pravega/cluster/containers/{container_id}"
                )
                yield self._zk.set(
                    f"/pravega/cluster/containers/{container_id}",
                    target.encode(),
                )
                startups.append(self.stores[target].host_container(container_id))
            for startup in startups:
                yield startup

        return self.sim.process(run())

    def fail_store(self, name: str) -> SimFuture:
        """Crash a store and redistribute its containers (§4.4).

        The surviving stores recover each reassigned container: recovery
        fences the old WAL ledgers, so even if the crashed store were
        still half-alive its writes would be rejected (no split brain).
        """
        victim = self.stores[name]
        orphaned = [cid for cid, owner in self._assignment.items() if owner == name]
        victim.crash()

        def run():
            survivors = sorted(n for n, s in self.stores.items() if s.alive)
            if not survivors:
                raise ContainerOfflineError("no surviving segment stores")
            recoveries = []
            for i, container_id in enumerate(orphaned):
                target = survivors[i % len(survivors)]
                self._assignment[container_id] = target
                yield self._zk.set(
                    f"/pravega/cluster/containers/{container_id}",
                    target.encode(),
                )
                recoveries.append(
                    self.stores[target].host_container(container_id, recover=True)
                )
            for recovery in recoveries:
                yield recovery
            return len(orphaned)

        return self.sim.process(run())

    def recover_container(self, container_id: int) -> SimFuture:
        """Re-home and recover one container (fault-injection heal path).

        Unlike :meth:`fail_store` this targets a single container whose
        owner crashed or whose WAL fail-stopped; the container is moved
        to a live store (possibly the same one, restarted) and recovered
        from its fenced WAL (§4.4).
        """

        def run():
            survivors = sorted(n for n, s in self.stores.items() if s.alive)
            if not survivors:
                raise ContainerOfflineError("no surviving segment stores")
            previous = self._assignment.get(container_id)
            target = survivors[container_id % len(survivors)]
            if previous is not None and previous != target:
                # drop any stale (offline) instance left on the old owner
                self.stores[previous].containers.pop(container_id, None)
            else:
                self.stores[target].containers.pop(container_id, None)
            self._assignment[container_id] = target
            yield self._zk.set(
                f"/pravega/cluster/containers/{container_id}",
                target.encode(),
            )
            yield self.stores[target].host_container(container_id, recover=True)
            return target

        return self.sim.process(run())
