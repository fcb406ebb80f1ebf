"""The durable log: operation queue, data frames and the WAL (§4.1).

"A segment container has a single, dedicated WAL log to which it writes
all operations it receives.  Many segments can be mapped to a single
segment container, so all operations from a container's segments are
multiplexed into that single log."

The container aggregates operations into **data frames**.  When the
processing queue runs dry it waits a little for more operations, using
the paper's adaptive formula::

    Delay = RecentLatency * (1 - AvgWriteSize / MaxFrameSize)

— proportional to recent WAL latency, inversely proportional to recent
frame fill: full frames mean throughput is already maximized (no wait);
underutilized frames justify waiting (up to a bound) to batch more.

The WAL itself is a sequence of Bookkeeper ledgers: frames are appended
to the current ledger, ledgers roll over at a size bound, and truncation
(driven by the storage writer, §4.3) deletes fully-flushed ledgers.  The
ledger list is kept in the coordination service so a recovering container
can find — and fence — its log (§4.4).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.common.errors import BookkeeperError, ContainerOfflineError, NoNodeError
from repro.common.payload import Payload
from repro.bookkeeper.client import BookKeeperClient, LedgerHandle
from repro.pravega.container.operations import Operation
from repro.sim.core import SimFuture, Simulator
from repro.zookeeper.service import ZkClient

__all__ = ["DurableLogConfig", "DataFrame", "DurableLog", "FRAME_HEADER_SIZE"]

FRAME_HEADER_SIZE = 64


@dataclass(frozen=True)
class DurableLogConfig:
    #: maximum serialized size of one data frame
    max_frame_size: int = 1024 * 1024
    #: hard bound on the adaptive batching delay
    max_batch_delay: float = 0.010
    #: roll to a new ledger after this many bytes
    ledger_rollover_bytes: int = 128 * 1024 * 1024
    #: Bookkeeper replication for the WAL (Table 1 defaults)
    ensemble_size: int = 3
    write_quorum: int = 3
    ack_quorum: int = 2


@dataclass
class DataFrame:
    """One WAL entry: a batch of multiplexed operations."""

    operations: List[Operation] = field(default_factory=list)
    first_sequence: int = -1
    last_sequence: int = -1

    @property
    def serialized_size(self) -> int:
        return FRAME_HEADER_SIZE + sum(op.serialized_size for op in self.operations)


@dataclass
class _LedgerInfo:
    ledger_id: int
    first_sequence: int
    last_sequence: int = -1
    size: int = 0


class DurableLog:
    """The per-container WAL pipeline."""

    def __init__(
        self,
        sim: Simulator,
        container_id: int,
        bk_client: BookKeeperClient,
        zk: ZkClient,
        config: Optional[DurableLogConfig] = None,
        apply_callback: Optional[Callable[[Operation], None]] = None,
        faults=None,
    ) -> None:
        self.sim = sim
        self.container_id = container_id
        self.bk_client = bk_client
        self.zk = zk
        self.config = config or DurableLogConfig()
        self.apply_callback = apply_callback or (lambda op: None)
        #: fault-injection hook (repro.faults.FaultEngine); unwired by default
        self.faults = faults
        #: queued (operation, future) pairs awaiting frame assembly
        self._queue: deque[tuple[Operation, SimFuture]] = deque()
        self._next_sequence = 0
        self._writer_running = False
        self._current_ledger: Optional[LedgerHandle] = None
        self._ledgers: List[_LedgerInfo] = []
        self._online = False
        self._failure: Optional[BaseException] = None
        #: invoked once on a fatal WAL failure (container fail-stop, §4.4)
        self.on_fatal: Callable[[BaseException], None] = lambda exc: None
        # Adaptive batching state.
        self._recent_latency = 0.001
        self._recent_fill = 1.0
        # Metrics.
        self.frames_written = 0
        self.operations_applied = 0
        self.bytes_written = 0
        self.last_applied_sequence = -1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def zk_path(self) -> str:
        return f"/pravega/containers/{self.container_id}/ledgers"

    @property
    def online(self) -> bool:
        return self._online

    def start(self) -> SimFuture:
        """Open a fresh ledger and begin accepting operations."""

        def startup():
            yield self.zk.ensure_path(self.zk_path)
            yield from self._roll_ledger()
            self._online = True

        return self.sim.process(startup())

    def _persist_ledger_list(self):
        payload = json.dumps([info.ledger_id for info in self._ledgers]).encode()
        return self.zk.set(self.zk_path, payload)

    def _roll_ledger(self):
        if self._current_ledger is not None:
            self._current_ledger.close()
        handle = self.bk_client.create_ledger(
            ensemble_size=self.config.ensemble_size,
            write_quorum=self.config.write_quorum,
            ack_quorum=self.config.ack_quorum,
        )
        self._current_ledger = handle
        self._ledgers.append(_LedgerInfo(handle.ledger_id, self._next_sequence))
        yield self._persist_ledger_list()

    def shutdown(self, failure: Optional[BaseException] = None) -> None:
        """Stop accepting work; fail everything still queued (§4.4)."""
        if not self._online and self._failure is not None:
            return
        self._online = False
        self._failure = failure or ContainerOfflineError(
            f"container {self.container_id} durable log is offline"
        )
        pending, self._queue = list(self._queue), deque()
        for _, fut in pending:
            if not fut.done:
                fut.set_exception(self._failure)
        if self._current_ledger is not None:
            self._current_ledger.close()
        if failure is not None:
            # A *fatal* WAL failure (fencing, quorum loss) fail-stops the
            # whole container; a plain administrative shutdown does not.
            self.on_fatal(self._failure)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def add(self, operation: Operation) -> SimFuture:
        """Queue an operation; resolves (with the op) once it is durable
        in the WAL and applied to the container's in-memory state."""
        fut = self.sim.future()
        if not self._online:
            fut.set_exception(
                self._failure
                or ContainerOfflineError(f"container {self.container_id} offline")
            )
            return fut
        operation.sequence_number = self._next_sequence
        self._next_sequence += 1
        self._queue.append((operation, fut))
        if not self._writer_running:
            self._writer_running = True
            self.sim.process(self._writer_loop())
        return fut

    def _writer_loop(self):
        config = self.config
        while self._queue and self._online:
            frame = DataFrame()
            batch: List[tuple[Operation, SimFuture]] = []
            size = FRAME_HEADER_SIZE

            def take_available() -> int:
                nonlocal size
                taken = 0
                while self._queue:
                    op, fut = self._queue[0]
                    op_size = op.serialized_size
                    if batch and size + op_size > config.max_frame_size:
                        break
                    self._queue.popleft()
                    batch.append((op, fut))
                    frame.operations.append(op)
                    size += op_size
                    taken += 1
                return taken

            take_available()
            # Queue ran dry with a non-full frame: adaptive wait (§4.1).
            if not self._queue and size < config.max_frame_size:
                delay = self._recent_latency * (1.0 - self._recent_fill)
                delay = min(max(delay, 0.0), config.max_batch_delay)
                if delay > 0:
                    yield delay
                    take_available()

            frame.first_sequence = batch[0][0].sequence_number
            frame.last_sequence = batch[-1][0].sequence_number
            # ``size`` already tracks the serialized frame size — avoid
            # re-summing every operation via DataFrame.serialized_size.
            frame_size = size

            # Ledger rollover.
            ledger_info = self._ledgers[-1]
            if ledger_info.size + frame_size > config.ledger_rollover_bytes:
                try:
                    yield from self._roll_ledger()
                except Exception as exc:
                    # Rollover needs zookeeper (ledger-list persist) and
                    # Bookkeeper; losing either mid-roll is fatal for the
                    # container, never a hang for queued operations.
                    for _, fut in batch:
                        if not fut.done:
                            fut.set_exception(exc)
                    self.shutdown(exc)
                    return
                ledger_info = self._ledgers[-1]

            started = self.sim.now
            # One frame span per WAL entry, parented on the first traced
            # operation; absorbed into every batched op (shared-span model).
            frame_span = None
            for op, _ in batch:
                op_span = op.trace_span
                if op_span is not None:
                    frame_span = op_span.child(
                        "durablelog.frame", bytes=frame_size, ops=len(batch)
                    )
                    break
            try:
                yield self._current_ledger.append(
                    Payload.synthetic(frame_size), record=frame, span=frame_span
                )
            except BookkeeperError as exc:
                if frame_span is not None:
                    frame_span.annotate("wal-fatal", error=type(exc).__name__)
                    frame_span.finish()
                # Fenced or quorum lost: the container must shut down (§4.4).
                for _, fut in batch:
                    if not fut.done:
                        fut.set_exception(exc)
                self.shutdown(exc)
                return
            latency = self.sim.now - started
            self._recent_latency += 0.2 * (latency - self._recent_latency)
            fill = frame_size / config.max_frame_size
            self._recent_fill += 0.2 * (min(fill, 1.0) - self._recent_fill)

            ledger_info.size += frame_size
            ledger_info.last_sequence = frame.last_sequence
            self.frames_written += 1
            self.bytes_written += frame_size

            if frame_span is not None:
                frame_span.finish()
                for op, _ in batch:
                    if op.trace_span is not None:
                        op.trace_span.absorb(frame_span)

            # Accept the frame: apply operations to the container state.
            apply_callback = self.apply_callback
            for op, fut in batch:
                apply_callback(op)
                self.operations_applied += 1
                self.last_applied_sequence = op.sequence_number
                if not fut.done:
                    fut.set_result(op)
        self._writer_running = False

    # ------------------------------------------------------------------
    # Truncation (§4.3): delete ledgers fully below the flushed sequence
    # ------------------------------------------------------------------
    def truncate(self, up_to_sequence: int) -> SimFuture:
        """Delete WAL ledgers whose operations are all <= ``up_to_sequence``.

        The current (open) ledger is never deleted.
        """

        def run():
            deletable = [
                info
                for info in self._ledgers[:-1]
                if info.last_sequence != -1 and info.last_sequence <= up_to_sequence
            ]
            for info in deletable:
                yield self.bk_client.delete_ledger(info.ledger_id)
                self._ledgers.remove(info)
            if deletable:
                yield self._persist_ledger_list()
            return len(deletable)

        return self.sim.process(run())

    @property
    def ledger_count(self) -> int:
        return len(self._ledgers)

    # ------------------------------------------------------------------
    # Recovery (§4.4)
    # ------------------------------------------------------------------
    @staticmethod
    def recover(
        sim: Simulator,
        container_id: int,
        bk_client: BookKeeperClient,
        zk: ZkClient,
        config: Optional[DurableLogConfig] = None,
        faults=None,
    ) -> SimFuture:
        """Fence the previous owner's ledgers and replay their frames.

        Resolves with ``(frames, log)``: the ordered list of recovered
        :class:`DataFrame` objects and a fresh, started :class:`DurableLog`
        ready for new operations.  The new log's sequence numbers continue
        after the recovered ones.

        Recovery itself runs under the fault engine: each replay step
        reports to ``faults.recovery_step``, which may crash recovery
        (``InjectedCrashError``).  A crashed recovery leaves no partial
        new state — fencing is idempotent, so the caller simply retries.
        """
        log = DurableLog(sim, container_id, bk_client, zk, config, faults=faults)
        site = f"container-{container_id}"

        def run():
            frames: List[DataFrame] = []
            if faults is not None:
                faults.recovery_step(site)
            try:
                data, _ = yield zk.get(log.zk_path)
                ledger_ids = json.loads(data.decode()) if data else []
            except NoNodeError:
                ledger_ids = []
            recovered_infos: List[_LedgerInfo] = []
            for ledger_id in ledger_ids:
                if bk_client.cluster.ledger_manager.lookup(ledger_id) is None:
                    continue  # already truncated
                if faults is not None:
                    # replay is re-injectable: a crash here aborts recovery
                    faults.recovery_step(site)
                handle = yield bk_client.open_ledger_with_recovery(ledger_id)
                info = _LedgerInfo(ledger_id, first_sequence=0)
                last = handle.metadata.last_entry_id
                if last >= 0:
                    entries = yield handle.read(0, last)
                    for entry in entries:
                        if isinstance(entry.record, DataFrame):
                            frames.append(entry.record)
                            if info.last_sequence < 0:
                                info.first_sequence = entry.record.first_sequence
                            info.last_sequence = entry.record.last_sequence
                            info.size += entry.record.serialized_size
                recovered_infos.append(info)
            max_seq = -1
            for frame in frames:
                max_seq = max(max_seq, frame.last_sequence)
            log._next_sequence = max_seq + 1
            # The surviving ledgers stay on the new log's ledger list:
            # until a checkpoint + flush lets truncation delete them, they
            # are the only durable copy of the replayed operations, and a
            # repeat crash before that must be able to find them again.
            log._ledgers.extend(recovered_infos)
            yield log.start()
            return frames, log

        return sim.process(run())
