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

    def egress_backlog_seconds(self) -> float:
        return self._egress.backlog_seconds()


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

    def transfer(
        self, src: str, dst: str, nbytes: int, payload: Any = None
    ) -> SimFuture:
        """Deliver ``nbytes`` from ``src`` to ``dst``.

        The returned future resolves with ``payload`` at the moment the
        message arrives at ``dst``.
        """
        if nbytes < 0:
            raise SimulationError(f"negative message size: {nbytes}")
        sim = self.sim
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
            return sim.resolve_after(spec.local_latency + extra, payload)
        # The NIC is a FIFO with deterministic service times, so the
        # serialization completion instant is known at submit time —
        # fold serialization + propagation into a single delivery event
        # instead of chaining a completion future into a second timer.
        service = spec.per_message_overhead + nbytes / spec.bandwidth
        serialized_at = sender._egress.occupy(service)
        delay = (serialized_at - sim._now) + spec.rtt * 0.5 + extra
        return sim.resolve_after(delay, payload)

    def rtt_between(self, src: str, dst: str) -> float:
        """Nominal round-trip time between two hosts."""
        if src == dst:
            return 2.0 * self.spec.local_latency
        return self.spec.rtt
