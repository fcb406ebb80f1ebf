"""Discrete-event simulation substrate (replaces the paper's AWS testbed)."""

from repro.sim.core import (
    Drain,
    Interrupt,
    Process,
    SimFuture,
    SimStats,
    Simulator,
    all_of,
)
from repro.sim.disk import Disk, DiskSpec, PageCache, PageCacheSpec
from repro.sim.network import Host, Network, NetworkSpec
from repro.sim.resources import FifoServer, Store

__all__ = [
    "Simulator",
    "SimFuture",
    "SimStats",
    "Process",
    "Interrupt",
    "Drain",
    "all_of",
    "Disk",
    "DiskSpec",
    "PageCache",
    "PageCacheSpec",
    "Network",
    "NetworkSpec",
    "Host",
    "FifoServer",
    "Store",
]
