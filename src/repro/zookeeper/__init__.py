"""Zookeeper-like coordination service (substrate for Pravega, §2.2/§4.4)."""

from repro.zookeeper.service import NodeStat, ZkClient, ZookeeperService
from repro.zookeeper.znode import ZNode, parent_path, split_path, validate_path

__all__ = [
    "ZookeeperService",
    "ZkClient",
    "NodeStat",
    "ZNode",
    "parent_path",
    "split_path",
    "validate_path",
]
