"""Generic simulation resources: FIFO servers and queues.

These sit directly under the kernel on the hot path (every disk op and
network message crosses a :class:`FifoServer`), so they avoid per-request
closures: completions are delivered through a prebound method draining a
FIFO of futures, and all classes use ``__slots__``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.common.errors import SimulationError
from repro.sim.core import SimFuture, Simulator

__all__ = ["FifoServer", "Store"]


class FifoServer:
    """A device that serves requests one at a time, each with a known
    service duration.

    This is the building block for disks and network links: submitting a
    request enqueues it; the returned future resolves when the device has
    finished serving it.  Total throughput is therefore bounded by the
    service rate regardless of the number of concurrent submitters.  A
    process that waits only for the device yields :meth:`delay` instead.

    Completions are FIFO by construction (finish times are monotone in
    submit order), so one prebound drain callback serves every request —
    no per-request closure is allocated.
    """

    __slots__ = (
        "sim",
        "name",
        "_busy_until",
        "total_busy_time",
        "ops_served",
        "_completions",
        "_complete_cb",
    )

    def __init__(self, sim: Simulator, name: str = "server") -> None:
        self.sim = sim
        self.name = name
        self._busy_until = 0.0
        self.total_busy_time = 0.0
        self.ops_served = 0
        #: futures for in-flight requests, in completion (== submit) order
        self._completions: Deque[SimFuture] = deque()
        self._complete_cb = self._complete

    @property
    def pending(self) -> int:
        return len(self._completions)

    def submit(self, service_time: float) -> SimFuture:
        """Enqueue a request taking ``service_time`` seconds of device time."""
        if service_time < 0:
            raise SimulationError(f"negative service time: {service_time}")
        sim = self.sim
        now = sim._now
        busy = self._busy_until
        start = now if now > busy else busy
        finish = start + service_time
        self._busy_until = finish
        self.total_busy_time += service_time
        self.ops_served += 1
        fut = SimFuture(sim)
        self._completions.append(fut)
        sim.schedule(finish - now, self._complete_cb)
        return fut

    def occupy(self, service_time: float) -> float:
        """Reserve device time; returns the absolute completion instant.

        Advances the FIFO accounting exactly as :meth:`submit`, but
        allocates no future and schedules no completion event — callers
        that only need the finish *time* (e.g. NIC serialization inside
        ``Network.delay``, which folds it into the arrival delay) skip
        one heap event and one future per request.  Occupied requests
        are excluded from :attr:`pending` but are reflected in
        :meth:`backlog_seconds`.
        """
        if service_time < 0:
            raise SimulationError(f"negative service time: {service_time}")
        now = self.sim._now
        busy = self._busy_until
        start = now if now > busy else busy
        finish = start + service_time
        self._busy_until = finish
        self.total_busy_time += service_time
        self.ops_served += 1
        return finish

    def delay(self, service_time: float) -> float:
        """Reserve device time; returns the seconds until it is served.

        A process that waits only for the device yields this number
        instead of a :meth:`submit` future: it resumes at the same
        ``(time, seq)`` on the kernel's allocation-free timer path.
        """
        return self.occupy(service_time) - self.sim._now

    def _complete(self) -> None:
        self._completions.popleft().set_result(None)

    def backlog_seconds(self) -> float:
        """Seconds of already-queued work ahead of a new submission."""
        return max(0.0, self._busy_until - self.sim.now)


class Store:
    """An unbounded FIFO queue with blocking ``get``."""

    __slots__ = ("sim", "_items", "_getters")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimFuture] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().set_result(item)
        else:
            self._items.append(item)

    def get(self) -> SimFuture:
        fut = SimFuture(self.sim)
        if self._items:
            fut.set_result(self._items.popleft())
        else:
            self._getters.append(fut)
        return fut

