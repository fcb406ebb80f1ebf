"""Bookkeeper client: ledger handles with quorum replication.

Implements the write/ack-quorum protocol the paper's deployments use
(Table 1: ensemble=3, writeQuorum=3, ackQuorum=2): each entry is sent to
its write set; the append is acknowledged once ``ack_quorum`` bookies
have journaled it.  Appends complete in entry order (the LAC — last add
confirmed — advances contiguously), and ledger recovery fences the
ensemble before reading, guaranteeing exclusive access for a new owner
(§4.4, ref [8]).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import (
    BookkeeperError,
    LedgerClosedError,
    LedgerFencedError,
    NotEnoughBookiesError,
)
from repro.common.payload import Payload
from repro.sim.core import SimFuture, Simulator
from repro.sim.network import Network
from repro.bookkeeper.bookie import Bookie, ENTRY_OVERHEAD
from repro.bookkeeper.ledger import Entry, LedgerManager, LedgerMetadata, LedgerState

__all__ = ["BookKeeperCluster", "BookKeeperClient", "LedgerHandle"]


class BookKeeperCluster:
    """The set of bookies plus the shared ledger manager."""

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network
        self.bookies: Dict[str, Bookie] = {}
        self.ledger_manager = LedgerManager()

    def add_bookie(self, bookie: Bookie) -> None:
        self.bookies[bookie.name] = bookie

    def bookie(self, name: str) -> Bookie:
        return self.bookies[name]

    def client(self, client_host: str) -> "BookKeeperClient":
        return BookKeeperClient(self, client_host)


class BookKeeperClient:
    """A client bound to one host; all bookie RPCs pay network costs."""

    def __init__(self, cluster: BookKeeperCluster, client_host: str) -> None:
        self.cluster = cluster
        self.client_host = client_host

    @property
    def sim(self) -> Simulator:
        return self.cluster.sim

    # ------------------------------------------------------------------
    def create_ledger(
        self,
        ensemble_size: int = 3,
        write_quorum: int = 3,
        ack_quorum: int = 2,
        preferred_bookies: Optional[List[str]] = None,
    ) -> "LedgerHandle":
        """Create a new open ledger and return its write handle."""
        available = preferred_bookies or sorted(self.cluster.bookies)
        candidates = [b for b in available if self.cluster.bookies[b].alive]
        if len(candidates) < ensemble_size:
            raise NotEnoughBookiesError(
                f"need {ensemble_size} bookies, {len(candidates)} alive"
            )
        ledger_id = self.cluster.ledger_manager.allocate_id()
        # Spread ensembles deterministically across the cluster.
        start = ledger_id % len(candidates)
        ensemble = [candidates[(start + i) % len(candidates)] for i in range(ensemble_size)]
        metadata = LedgerMetadata(ledger_id, ensemble, write_quorum, ack_quorum)
        self.cluster.ledger_manager.register(metadata)
        return LedgerHandle(self, metadata, writable=True)

    def open_ledger_no_recovery(self, ledger_id: int) -> "LedgerHandle":
        """Open for reading without fencing (tail reading by the owner)."""
        metadata = self.cluster.ledger_manager.get(ledger_id)
        return LedgerHandle(self, metadata, writable=False)

    def open_ledger_with_recovery(self, ledger_id: int) -> SimFuture:
        """Fence the ensemble, recover the last entry, close the ledger.

        Resolves with a read-only :class:`LedgerHandle`.  After this, the
        previous writer's appends are rejected by the fenced bookies —
        the exclusive-ownership guarantee of §4.4.
        """
        metadata = self.cluster.ledger_manager.get(ledger_id)

        def recovery():
            responses: List[int] = []
            pending = []
            for name in metadata.ensemble:
                bookie = self.cluster.bookies[name]
                rpc = self.cluster.network.transfer(self.client_host, name, 64)
                pending.append((bookie, rpc))
            for bookie, rpc in pending:
                yield rpc
                if bookie.alive:
                    responses.append(bookie.fence(ledger_id))
            needed = len(metadata.ensemble) - metadata.ack_quorum + 1
            if len(responses) < needed:
                raise BookkeeperError(
                    f"recovery of ledger {ledger_id}: only {len(responses)} "
                    f"fence responses, need {needed}"
                )
            if metadata.state is not LedgerState.CLOSED:
                metadata.last_entry_id = max(responses) if responses else -1
                metadata.state = LedgerState.CLOSED
            return LedgerHandle(self, metadata, writable=False)

        return self.sim.process(recovery())

    def delete_ledger(self, ledger_id: int) -> SimFuture:
        """Remove the ledger everywhere (used by WAL truncation, §4.3)."""
        metadata = self.cluster.ledger_manager.get(ledger_id)

        def deletion():
            for name in metadata.ensemble:
                yield self.cluster.network.delay(self.client_host, name, 64)
                self.cluster.bookies[name].delete_ledger(ledger_id)
            self.cluster.ledger_manager.remove(ledger_id)

        return self.sim.process(deletion())


class LedgerHandle:
    """Write/read handle for one ledger."""

    def __init__(
        self, client: BookKeeperClient, metadata: LedgerMetadata, writable: bool
    ) -> None:
        self.client = client
        self.metadata = metadata
        self.writable = writable and metadata.state is LedgerState.OPEN
        self._next_entry_id = 0
        self._acked: Dict[int, SimFuture] = {}
        self._confirmed: set[int] = set()
        self._last_add_confirmed = -1
        self._failed = False

    @property
    def ledger_id(self) -> int:
        return self.metadata.ledger_id

    @property
    def last_add_confirmed(self) -> int:
        return self._last_add_confirmed

    @property
    def sim(self) -> Simulator:
        return self.client.sim

    # ------------------------------------------------------------------
    def append(self, payload: Payload, record: object = None, span=None) -> SimFuture:
        """Replicated append; resolves with the entry id once ack_quorum
        bookies have made it durable *and* all earlier entries completed.

        ``record`` is the structured content of the entry (see
        :class:`Entry`); readers get it back on recovery replay.

        With ``span`` (a parent trace span) the replication fans out into
        per-bookie sub-spans; the entry span accrues the fastest replica's
        network + journal-fsync time, and the remainder until the entry's
        future resolves (ack-quorum wait + LAC ordering) is the quorum
        component — all absorbed back into ``span`` on completion.
        """
        fut = self.sim.future()
        if not self.writable or self.metadata.state is not LedgerState.OPEN:
            fut.set_exception(LedgerClosedError(f"ledger {self.ledger_id}"))
            return fut
        if self._failed:
            fut.set_exception(LedgerFencedError(f"ledger {self.ledger_id}"))
            return fut
        entry_id = self._next_entry_id
        self._next_entry_id += 1
        entry = Entry(self.ledger_id, entry_id, payload, record)
        self._acked[entry_id] = fut
        entry_span = None
        if span is not None:
            entry_span = span.child(
                "bk.entry",
                actor=f"ledger-{self.ledger_id}",
                entry_id=entry_id,
                bytes=payload.size,
                quorum=self.metadata.ack_quorum,
            )

            def finish_entry(f: SimFuture, entry_span=entry_span, parent=span) -> None:
                entry_span.finish()
                first_ack = entry_span.attrs.get("_first_ack")
                if first_ack is not None:
                    entry_span.component("quorum", self.sim.now - first_ack)
                parent.absorb(entry_span)

            fut.add_callback(finish_entry)
        self.sim.process(self._replicate(entry, entry_span))
        return fut

    def _replicate(self, entry: Entry, entry_span=None):
        if entry_span is None:
            acks = self._send(entry)
        else:
            acks = self._send_traced(entry, entry_span)
        try:
            yield acks
        except Exception as exc:  # noqa: BLE001 - fail the handle
            # The LAC can never pass this entry, so every add still pending
            # on the handle fails with it (BookKeeper's errorOutPendingAdds);
            # a later entry already on a quorum would otherwise never resolve.
            self._failed = True
            pending, self._acked = self._acked, {}
            for fut in pending.values():
                if not fut.done:
                    fut.set_exception(exc)
            return
        self._confirmed.add(entry.entry_id)
        self._advance_lac()

    def _send(self, entry: Entry) -> "_QuorumAck":
        """Send ``entry`` to its write set; returns the quorum wait.

        A plain method, not inline in :meth:`_replicate`, so the fan-out's
        locals die here instead of living in the generator frame for the
        whole in-flight time.
        """
        write_set = self.metadata.write_set(entry.entry_id)
        acks = _QuorumAck(self.sim, entry, self.metadata.ack_quorum, len(write_set))
        cluster = self.client.cluster
        transfer = cluster.network.transfer
        bookies = cluster.bookies
        host = self.client.client_host
        wire_size = entry.payload.size + ENTRY_OVERHEAD
        send = acks.send
        for name in write_set:
            transfer(host, name, wire_size, payload=bookies[name]).add_callback(send)
        return acks

    def _send_traced(self, entry: Entry, entry_span) -> "_QuorumAck":
        """:meth:`_send` with per-replica spans (the cold path).

        Same transfers in the same order; only the callbacks differ,
        recording each replica's network and journal time before the
        store result reaches the quorum wait.
        """
        sim = self.sim
        cluster = self.client.cluster
        write_set = self.metadata.write_set(entry.entry_id)
        acks = _QuorumAck(sim, entry, self.metadata.ack_quorum, len(write_set))
        wire_size = entry.payload.size + ENTRY_OVERHEAD
        for name in write_set:
            bookie = cluster.bookies[name]
            replica_span = entry_span.child("bk.replica", actor=name, bytes=wire_size)
            rpc = cluster.network.transfer(self.client.client_host, name, wire_size)

            def send(
                _: SimFuture,
                bookie: Bookie = bookie,
                replica_span=replica_span,
                sent_at: float = sim.now,
            ) -> None:
                replica_span.component("network", sim.now - sent_at)
                store = bookie.add_entry(entry, span=replica_span)

                def store_done(f: SimFuture, replica_span=replica_span) -> None:
                    # With ackQuorum < writeQuorum the slowest replica can
                    # complete after the entry acked; clamp the span to its
                    # parent (the tail is off the critical path) and keep
                    # the true completion time as an annotation.
                    parent_end = entry_span.end
                    if parent_end is not None and sim.now > parent_end:
                        replica_span.annotate("straggler", completed=sim.now)
                        replica_span.finish(parent_end)
                    else:
                        replica_span.finish()
                    # The fastest replica defines the sequential part of the
                    # entry's critical path (its network + fsync time).
                    if f.exception is None and "_first_ack" not in entry_span.attrs:
                        entry_span.attrs["_first_ack"] = sim.now
                        entry_span.absorb(replica_span)

                store.add_callback(store_done)
                store.add_callback(acks)

            rpc.add_callback(send)
        return acks

    def _advance_lac(self) -> None:
        while (self._last_add_confirmed + 1) in self._confirmed:
            self._last_add_confirmed += 1
            entry_id = self._last_add_confirmed
            fut = self._acked.pop(entry_id, None)
            if fut is not None and not fut.done:
                fut.set_result(entry_id)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the ledger at the current LAC."""
        if self.metadata.state is LedgerState.OPEN:
            self.metadata.last_entry_id = self._last_add_confirmed
            self.metadata.state = LedgerState.CLOSED
        self.writable = False

    def read(self, first_entry: int, last_entry: int) -> SimFuture:
        """Read entries [first, last] from the ensemble.

        Resolves with a list of :class:`Entry`.  Used by segment-container
        recovery to replay the WAL (§4.4).
        """
        metadata = self.metadata

        def reading():
            cluster = self.client.cluster
            entries: List[Entry] = []
            total = 0
            for entry_id in range(first_entry, last_entry + 1):
                entry = None
                for name in metadata.write_set(entry_id):
                    bookie = cluster.bookies[name]
                    if bookie.alive and bookie.has_entry(metadata.ledger_id, entry_id):
                        entry = bookie.read_entry(metadata.ledger_id, entry_id)
                        total += entry.payload.size + ENTRY_OVERHEAD
                        break
                if entry is None:
                    raise BookkeeperError(
                        f"entry {entry_id} of ledger {metadata.ledger_id} unreadable"
                    )
                entries.append(entry)
            # One bulk transfer approximates the streaming read.
            yield cluster.network.delay(
                metadata.ensemble[0], self.client.client_host, total
            )
            return entries

        return self.sim.process(reading())


class _QuorumAck(SimFuture):
    """The ack-quorum wait of one entry, and the store callback of every
    replica: one object per entry instead of a state dict plus closures.

    :meth:`send` is the delivery callback of each replica's transfer
    (which resolves with its bookie); :meth:`__call__` counts each
    replica's store result and resolves this future at ``quorum`` acks,
    or fails it once more replicas failed than the quorum tolerates.
    """

    __slots__ = ("entry", "quorum", "tolerated", "acked", "failed", "fenced")

    def __init__(
        self, sim: Simulator, entry: Entry, quorum: int, replicas: int
    ) -> None:
        SimFuture.__init__(self, sim)
        self.entry = entry
        self.quorum = quorum
        self.tolerated = replicas - quorum
        self.acked = 0
        self.failed = 0
        self.fenced = False

    def send(self, rpc: SimFuture) -> None:
        rpc._value.add_entry(self.entry).add_callback(self)

    def __call__(self, store: SimFuture) -> None:
        exc = store._exception
        if exc is None:
            self.acked += 1
        else:
            self.failed += 1
            if isinstance(exc, LedgerFencedError):
                self.fenced = True
        if self._done:
            return
        if self.acked >= self.quorum:
            self.set_result(None)
        elif self.failed > self.tolerated:
            if self.fenced:
                self.set_exception(LedgerFencedError(f"ledger {self.entry.ledger_id}"))
            else:
                self.set_exception(
                    BookkeeperError(f"entry {self.entry.entry_id}: quorum unreachable")
                )
