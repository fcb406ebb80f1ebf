"""Pravega: the paper's primary contribution.

Control plane (:mod:`repro.pravega.controller`), data plane
(:mod:`repro.pravega.segment_store`, :mod:`repro.pravega.container`),
clients (:mod:`repro.pravega.client`), and the one-call cluster builder
(:mod:`repro.pravega.cluster`).
"""

from repro.pravega.cluster import PravegaCluster, PravegaClusterConfig
from repro.pravega.controller import Controller, ControllerConfig, SegmentLocation
from repro.pravega.model import (
    RetentionPolicy,
    RetentionType,
    ScaleType,
    ScalingPolicy,
    StreamConfiguration,
)
from repro.pravega.segment_store import SegmentStore, SegmentStoreCluster, SegmentStoreConfig

__all__ = [
    "PravegaCluster",
    "PravegaClusterConfig",
    "Controller",
    "ControllerConfig",
    "SegmentLocation",
    "StreamConfiguration",
    "ScalingPolicy",
    "ScaleType",
    "RetentionPolicy",
    "RetentionType",
    "SegmentStore",
    "SegmentStoreCluster",
    "SegmentStoreConfig",
]
