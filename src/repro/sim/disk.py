"""Storage-device models.

Two devices matter for the paper's evaluation:

* the **journal drive** (one local NVMe per broker/bookie, Table 1).  Its
  behaviour under *many concurrently-appended files* is the mechanism behind
  the Kafka partition-scaling collapse of Figs. 10-11: a device op that
  targets a different file than the previous op pays a *switch penalty*
  (filesystem metadata, lost write-merging, head-of-queue disruption), so a
  workload multiplexed into a single log (Pravega's segment containers,
  Bookkeeper's journal) retains near-sequential bandwidth while a
  one-file-per-partition workload (Kafka) degrades with partition count.

* the **OS page cache** in front of the journal drive.  Kafka's default
  (no fsync) acknowledges writes once they are in the page cache; the kernel
  writes dirty pages back in large chunks but throttles writers once the
  dirty limit is reached — so sustained throughput converges to writeback
  throughput, which itself suffers the file-switch penalty.

Calibration defaults follow §5.6: ~800 MB/s synchronous sequential writes
(the authors' ``dd`` measurement on the i3 NVMe drives).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.common.errors import SimulationError
from repro.sim.core import SimFuture, Simulator
from repro.sim.resources import FifoServer

__all__ = ["DiskSpec", "Disk", "PageCacheSpec", "PageCache"]


@dataclass(frozen=True)
class DiskSpec:
    """Performance envelope of a journal drive."""

    #: sequential write bandwidth, bytes/second (dd measurement in §5.6)
    bandwidth: float = 800e6
    #: fixed device time per write op to the *same* file as the previous op
    op_latency: float = 60e-6
    #: extra device time when an op targets a different file than the last op
    file_switch_latency: float = 900e-6
    #: extra device time for a synchronous (fsync'd) op
    fsync_latency: float = 80e-6
    name: str = "nvme"


class Disk:
    """A journal drive: a FIFO device with per-op and file-switch costs."""

    def __init__(self, sim: Simulator, spec: Optional[DiskSpec] = None) -> None:
        self.sim = sim
        self.spec = spec or DiskSpec()
        self._server = FifoServer(sim, name=self.spec.name)
        self._last_file: Optional[str] = None
        self.bytes_written = 0
        self.ops = 0
        self.switches = 0
        #: fault-injection hook (repro.faults.FaultEngine); unwired by default
        self.faults = None
        #: node name used to match fault-rule targets
        self.node = ""
        sim.register_fluid(self)

    def backlog_seconds(self) -> float:
        return self._server.backlog_seconds()

    def service_time(self, file_id: str, nbytes: int, sync: bool) -> float:
        """Device time for a single write op (without queueing)."""
        spec = self.spec
        cost = spec.op_latency + nbytes / spec.bandwidth
        if self._last_file is not None and self._last_file != file_id:
            cost += spec.file_switch_latency
        if sync:
            cost += spec.fsync_latency
        return cost

    def write(self, file_id: str, nbytes: int, sync: bool = True) -> SimFuture:
        """Append ``nbytes`` to ``file_id``; resolves when on the platter.

        ``sync=True`` models write+fsync (durable on completion);
        ``sync=False`` models kernel writeback I/O.
        """
        if nbytes < 0:
            raise SimulationError(f"negative write size: {nbytes}")
        cost = self.service_time(file_id, nbytes, sync)
        if self.faults is not None:
            try:
                cost += self.faults.disk_op(self.node, file_id, nbytes, sync)
            except Exception as exc:
                # injected device failure: the op errors after its latency
                fut = self.sim.future()
                self.sim.schedule(
                    self.spec.op_latency, lambda: fut.set_exception(exc)
                )
                return fut
        if self._last_file is not None and self._last_file != file_id:
            self.switches += 1
        self._last_file = file_id
        self.bytes_written += nbytes
        self.ops += 1
        return self._server.submit(cost)

    def read(self, nbytes: int) -> SimFuture:
        """Sequential read of ``nbytes`` (used during recovery replay)."""
        cost = self.spec.op_latency + nbytes / self.spec.bandwidth
        if self.faults is not None:
            try:
                cost += self.faults.disk_op(self.node, "<read>", nbytes, False)
            except Exception as exc:
                fut = self.sim.future()
                self.sim.schedule(
                    self.spec.op_latency, lambda: fut.set_exception(exc)
                )
                return fut
        return self._server.submit(cost)


@dataclass(frozen=True)
class PageCacheSpec:
    """Kernel dirty-page accounting knobs (Linux-flavoured)."""

    #: writers are throttled once this many dirty bytes accumulate
    dirty_limit: int = 256 * 1024 * 1024
    #: maximum bytes written back to one file in a single device op
    writeback_chunk: int = 4 * 1024 * 1024
    #: memory-copy bandwidth for absorbing writes into the cache
    memory_bandwidth: float = 8e9


class PageCache:
    """OS page cache in front of a :class:`Disk`.

    Writes complete at memory speed until the dirty limit is hit, after
    which they block until writeback frees headroom (Linux dirty
    throttling).  A background writeback process drains dirty bytes
    file-by-file in chunks, paying the disk's file-switch penalty whenever
    it alternates between files.
    """

    def __init__(
        self,
        sim: Simulator,
        disk: Disk,
        spec: Optional[PageCacheSpec] = None,
    ) -> None:
        self.sim = sim
        self.disk = disk
        self.spec = spec or PageCacheSpec()
        self._dirty: "OrderedDict[str, int]" = OrderedDict()
        self._dirty_total = 0
        self._waiters: Deque[tuple[str, int, SimFuture]] = deque()
        self._writeback_running = False
        self._sync_waiters: dict[str, list[SimFuture]] = {}

    @property
    def dirty_bytes(self) -> int:
        return self._dirty_total

    def dirty_for(self, file_id: str) -> int:
        """Dirty (unsynced) bytes currently cached for ``file_id``."""
        return self._dirty.get(file_id, 0)

    def drop_file(self, file_id: str) -> int:
        """Discard dirty bytes for ``file_id`` without writing them back.

        Models a crash losing unsynced data: the caller decides which
        logical records the lost bytes correspond to.  Returns the
        number of bytes dropped.  Pending fsync waiters for the file
        are resolved (their data is gone, there is nothing to wait for).
        """
        dropped = self._dirty.pop(file_id, 0)
        self._dirty_total -= dropped
        for waiter in self._sync_waiters.pop(file_id, []):
            if not waiter.done:
                waiter.set_result(None)
        self._admit_waiters()
        return dropped

    def write(self, file_id: str, nbytes: int) -> SimFuture:
        """Buffered write: resolves when the data is in the page cache."""
        fut = self.sim.future()
        if self._dirty_total + nbytes <= self.spec.dirty_limit and not self._waiters:
            self._absorb(file_id, nbytes, fut)
        else:
            self._waiters.append((file_id, nbytes, fut))
            self._kick_writeback()
        return fut

    def _absorb(self, file_id: str, nbytes: int, fut: SimFuture) -> None:
        self._dirty[file_id] = self._dirty.get(file_id, 0) + nbytes
        self._dirty_total += nbytes
        copy_time = nbytes / self.spec.memory_bandwidth
        self.sim.schedule(copy_time, fut.set_result)
        self._kick_writeback()

    def flush(self, file_id: str) -> SimFuture:
        """fsync(file_id): resolves once no dirty bytes remain for the file."""
        fut = self.sim.future()
        if self._dirty.get(file_id, 0) == 0:
            fut.set_result(None)
            return fut
        self._sync_waiters.setdefault(file_id, []).append(fut)
        self._kick_writeback()
        return fut

    # ------------------------------------------------------------------
    def _kick_writeback(self) -> None:
        if not self._writeback_running and self._dirty_total > 0:
            self._writeback_running = True
            self.sim.process(self._writeback_loop())

    def _writeback_loop(self):
        while self._dirty_total > 0:
            # Prefer files with explicit fsync waiters, else the file with
            # the most dirty bytes (mimics per-inode writeback batching).
            file_id = None
            for candidate in self._sync_waiters:
                if self._dirty.get(candidate, 0) > 0:
                    file_id = candidate
                    break
            if file_id is None:
                file_id = max(self._dirty, key=self._dirty.get)  # type: ignore[arg-type]
            chunk = min(self._dirty[file_id], self.spec.writeback_chunk)
            try:
                yield self.disk.write(file_id, chunk, sync=False)
            except Exception:
                # injected device failure: back off and retry writeback
                yield self.sim.timeout(0.01)
                continue
            if file_id not in self._dirty:
                # file dropped (crash) while the chunk was in flight;
                # drop_file already settled the accounting
                self._admit_waiters()
                continue
            remaining = self._dirty[file_id] - chunk
            if remaining <= 0:
                del self._dirty[file_id]
            else:
                self._dirty[file_id] = remaining
            self._dirty_total -= chunk
            if remaining <= 0 and file_id in self._sync_waiters:
                for waiter in self._sync_waiters.pop(file_id):
                    waiter.set_result(None)
            self._admit_waiters()
        self._writeback_running = False

    def _admit_waiters(self) -> None:
        while self._waiters:
            file_id, nbytes, fut = self._waiters[0]
            if self._dirty_total + nbytes > self.spec.dirty_limit:
                return
            self._waiters.popleft()
            self._absorb(file_id, nbytes, fut)
