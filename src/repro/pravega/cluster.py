"""One-call Pravega deployment matching Table 1.

The paper's deployment: one controller (m5.large), three combined
Segment Store + Bookie instances (i3.4xlarge, one NVMe journal drive
each), Zookeeper, and an LTS backend (AWS EFS).  ``PravegaCluster.build``
assembles the simulated equivalent and exposes client factories.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.common.metrics import MetricsRegistry
from repro.bookkeeper.bookie import Bookie
from repro.bookkeeper.client import BookKeeperCluster
from repro.lts import (
    FileSystemLTS,
    InMemoryLTS,
    LongTermStorage,
    LtsSpec,
    NoOpLTS,
    ObjectStoreLTS,
)
from repro.pravega.client.controller_client import ControllerClient
from repro.pravega.client.reader import EventStreamReader, ReaderConfig
from repro.pravega.client.reader_group import ReaderGroup
from repro.pravega.client.state_synchronizer import StateSynchronizer
from repro.pravega.client.writer import EventStreamWriter, WriterConfig
from repro.pravega.controller import Controller, ControllerConfig
from repro.pravega.segment_store import (
    SegmentStore,
    SegmentStoreCluster,
    SegmentStoreConfig,
)
from repro.sim.core import SimFuture, Simulator
from repro.sim.disk import Disk, DiskSpec
from repro.sim.network import Network, NetworkSpec
from repro.zookeeper.service import ZookeeperService

__all__ = ["PravegaClusterConfig", "PravegaCluster"]


@dataclass(frozen=True)
class PravegaClusterConfig:
    num_segment_stores: int = 3
    num_containers: int = 8
    #: "efs" (Table 1 default), "s3", "noop" (§5.4 test feature), "memory"
    lts_kind: str = "efs"
    #: Bookkeeper journal fsync (False = the Fig. 5 "no flush" variant)
    journal_sync: bool = True
    store: SegmentStoreConfig = field(default_factory=SegmentStoreConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    disk: DiskSpec = field(default_factory=DiskSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    #: optional override for the LTS performance envelope
    lts_spec: Optional["LtsSpec"] = None


class PravegaCluster:
    """A running simulated Pravega deployment."""

    def __init__(
        self,
        sim: Simulator,
        config: PravegaClusterConfig,
        network: Network,
        zk_service: ZookeeperService,
        bk_cluster: BookKeeperCluster,
        lts: LongTermStorage,
        store_cluster: SegmentStoreCluster,
        controller: Controller,
        metrics: MetricsRegistry,
    ) -> None:
        self.sim = sim
        self.config = config
        self.network = network
        self.zk_service = zk_service
        self.bk_cluster = bk_cluster
        self.lts = lts
        self.store_cluster = store_cluster
        self.controller = controller
        self.metrics = metrics

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, sim: Simulator, config: Optional[PravegaClusterConfig] = None
    ) -> "PravegaCluster":
        config = config or PravegaClusterConfig()
        metrics = MetricsRegistry()
        network = Network(sim, config.network)
        zk_service = ZookeeperService(sim, network)
        bk_cluster = BookKeeperCluster(sim, network)
        lts = cls._make_lts(sim, config.lts_kind, config.lts_spec)
        store_cluster = SegmentStoreCluster(
            sim, zk_service, config.num_containers
        )
        for i in range(config.num_segment_stores):
            host = f"segmentstore-{i}"
            # Bookie colocated with the segment store (Table 1), sharing
            # the host but with a dedicated journal drive.
            disk = Disk(sim, config.disk)
            bookie = Bookie(sim, host, disk, journal_sync=config.journal_sync)
            bk_cluster.add_bookie(bookie)
            store = SegmentStore(
                sim, host, network, bk_cluster, zk_service, lts, config.store, metrics
            )
            store_cluster.add_store(store)
        controller = Controller(
            sim,
            network,
            store_cluster,
            "controller",
            config.controller,
            metrics,
        )
        return cls(
            sim,
            config,
            network,
            zk_service,
            bk_cluster,
            lts,
            store_cluster,
            controller,
            metrics,
        )

    @staticmethod
    def _make_lts(
        sim: Simulator, kind: str, spec: Optional["LtsSpec"] = None
    ) -> LongTermStorage:
        if kind == "efs":
            return FileSystemLTS(sim, spec)
        if kind == "s3":
            return ObjectStoreLTS(sim, spec)
        if kind == "noop":
            return NoOpLTS(sim)
        if kind == "memory":
            return InMemoryLTS(sim)
        raise ValueError(f"unknown LTS kind: {kind}")

    def start(self) -> SimFuture:
        """Boot the data plane, then the control plane."""

        def run():
            yield self.store_cluster.bootstrap()
            yield self.controller.bootstrap()

        return self.sim.process(run())

    # ------------------------------------------------------------------
    # Client factories
    # ------------------------------------------------------------------
    @property
    def stores(self) -> Dict[str, SegmentStore]:
        return self.store_cluster.stores

    def controller_client(self, host: str) -> ControllerClient:
        return ControllerClient(self.controller, host)

    def create_writer(
        self,
        host: str,
        scope: str,
        stream: str,
        config: Optional[WriterConfig] = None,
        writer_id: Optional[str] = None,
    ) -> EventStreamWriter:
        return EventStreamWriter(
            self.sim,
            self.controller_client(host),
            self.stores,
            scope,
            stream,
            host,
            config,
            writer_id,
        )

    def create_reader_group(self, host: str, name: str, scope: str, stream: str) -> SimFuture:
        """Resolves with a :class:`ReaderGroup`."""
        segment = f"{scope}/_readergroups/{name}"
        synchronizer = StateSynchronizer(
            self.sim,
            self.stores,
            self.store_cluster.store_for_segment,
            segment,
            host,
        )
        return ReaderGroup.create(
            self.sim, name, self.controller_client(host), synchronizer, scope, stream
        )

    def create_reader(
        self,
        host: str,
        reader_id: str,
        group: ReaderGroup,
        config: Optional[ReaderConfig] = None,
    ) -> EventStreamReader:
        return EventStreamReader(self.sim, reader_id, group, self.stores, host, config)

    def create_key_value_table(
        self, host: str, scope: str, name: str, partitions: int = 1
    ) -> SimFuture:
        """Create a key-value table (§2.2); resolves with the client handle."""
        from repro.pravega.client.tables import KeyValueTable

        table = KeyValueTable(
            self.sim,
            self.stores,
            self.store_cluster.store_for_segment,
            scope,
            name,
            host,
            partitions,
        )

        def run():
            yield table.create()
            return table

        return self.sim.process(run())
