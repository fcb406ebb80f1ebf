"""Network model: hosts with NIC bandwidth, links with RTT.

Messages between hosts pay (i) serialization time on the sender's NIC,
(ii) half an RTT of propagation, and (iii) a small per-message overhead.
The sender NIC is a FIFO device, so aggregate egress is bandwidth-bound.
Intra-host messages (client and server colocated, or a loopback call)
pay only a tiny local-dispatch latency.

Defaults approximate intra-AZ AWS networking between the c5.4xlarge
benchmark instances and the i3.4xlarge servers of Table 1: ~10 Gb/s NICs
and a ~250 us round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.common.errors import SimulationError
from repro.sim.core import SimFuture, Simulator
from repro.sim.resources import FifoServer

__all__ = ["NetworkSpec", "Host", "Network"]


@dataclass(frozen=True)
class NetworkSpec:
    #: NIC bandwidth per host, bytes/second (~10 Gb/s)
    bandwidth: float = 1.25e9
    #: round-trip time between any two distinct hosts, seconds
    rtt: float = 250e-6
    #: fixed per-message sender-side overhead (syscalls, framing), seconds
    per_message_overhead: float = 10e-6
    #: latency of a local (same-host) call, seconds
    local_latency: float = 5e-6


class Host:
    """A named machine with an egress NIC queue."""

    def __init__(self, sim: Simulator, name: str, spec: NetworkSpec) -> None:
        self.sim = sim
        self.name = name
        self.spec = spec
        self._egress = FifoServer(sim, name=f"nic:{name}")
        self.bytes_sent = 0
        self.messages_sent = 0
        sim.register_fluid(self)


class Network:
    """Registry of hosts plus the message-transfer primitive."""

    def __init__(self, sim: Simulator, spec: Optional[NetworkSpec] = None) -> None:
        self.sim = sim
        self.spec = spec or NetworkSpec()
        self._hosts: dict[str, Host] = {}
        #: fault-injection hook (repro.faults.FaultEngine); unwired by default
        self.faults = None

    def host(self, name: str) -> Host:
        """Get or create the host with ``name``."""
        existing = self._hosts.get(name)
        if existing is None:
            existing = Host(self.sim, name, self.spec)
            self._hosts[name] = existing
        return existing

    def delay(self, src: str, dst: str, nbytes: int) -> float:
        """Send ``nbytes`` from ``src`` to ``dst``; seconds until arrival.

        Does all of a message's accounting (byte and message counters,
        the fault hook's extra delay, NIC serialization) at call time, so
        a process that waits only for the arrival yields the returned
        number and resumes on the kernel's allocation-free timer path.
        """
        if nbytes < 0:
            raise SimulationError(f"negative message size: {nbytes}")
        sender = self._hosts.get(src)
        if sender is None:
            sender = self.host(src)
        sender.bytes_sent += nbytes
        sender.messages_sent += 1
        extra = 0.0
        if self.faults is not None:
            extra = self.faults.net_message(src, dst)
        spec = self.spec
        if src == dst:
            return spec.local_latency + extra
        # The NIC is a FIFO with deterministic service times, so the
        # serialization completion instant is known at send time —
        # serialization + propagation fold into one arrival delay.
        service = spec.per_message_overhead + nbytes / spec.bandwidth
        return (
            sender._egress.occupy(service) - self.sim._now
        ) + spec.rtt * 0.5 + extra

    def transfer(
        self, src: str, dst: str, nbytes: int, payload: Any = None
    ) -> SimFuture:
        """:meth:`delay` as a future resolving with ``payload`` on arrival,
        for callers that attach callbacks instead of waiting in a process."""
        return self.sim.resolve_after(self.delay(src, dst, nbytes), payload)

