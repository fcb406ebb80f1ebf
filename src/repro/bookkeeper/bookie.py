"""The bookie: Bookkeeper's storage server.

"A bookie ... journals requests to append data to a ledger, and it
performs another level of aggregation before appending to its journal.
This third level of aggregation is another opportunity to batch data
coming from different segment containers" (§4.1).  The journal is the
bookie's single append-only file on the local NVMe drive (Table 1: one
drive for the Bookkeeper journal), so *all* ledgers hosted by a bookie
multiplex into one sequential write stream — the group commit below is
the mechanism that lets Pravega/Bookkeeper use the drive at near-``dd``
bandwidth (§5.6).

Durability: with ``journal_sync=True`` (the default, matching Pravega's
default durability) an append is acknowledged only after the journal
write is fsync'd.  ``journal_sync=False`` reproduces the "no flush"
configuration of Fig. 5, where journal writes land in the page cache.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.common.errors import (
    BookkeeperError,
    LedgerFencedError,
    NoSuchLedgerError,
)
from repro.common.payload import Payload
from repro.sim.core import SimFuture, Simulator
from repro.sim.disk import Disk, PageCache
from repro.bookkeeper.ledger import Entry

__all__ = ["Bookie"]

#: fixed journal framing overhead per entry (headers, digest), bytes
ENTRY_OVERHEAD = 64


class Bookie:
    """One Bookkeeper storage server with a group-committing journal."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        journal_disk: Disk,
        journal_sync: bool = True,
        page_cache: Optional[PageCache] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.journal_disk = journal_disk
        self.journal_sync = journal_sync
        self.page_cache = page_cache or PageCache(sim, journal_disk)
        self._ledgers: Dict[int, Dict[int, Entry]] = {}
        self._fenced: Set[int] = set()
        #: queued (entry, future, span) triples; span is the per-replica
        #: trace span (repro.obs), None when tracing is off
        self._journal_queue: List[tuple] = []
        self._journal_running = False
        self.alive = True
        self.entries_journaled = 0
        self.journal_batches = 0
        self.bytes_journaled = 0
        #: fault-injection hook (repro.faults.FaultEngine); unwired by default
        self.faults = None
        #: journaled-but-unsynced entries, oldest first, as
        #: (ledger_id, entry_id, wire_size) — the candidates for loss when a
        #: crash discards the page cache (journal_sync=False only)
        self._unsynced: deque = deque()
        self._unsynced_bytes = 0

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def add_entry(self, entry: Entry, recovery: bool = False, span=None) -> SimFuture:
        """Store ``entry``; resolves once the journal write is durable
        (or cached, if ``journal_sync`` is off)."""
        fut = self.sim.future()
        if self.faults is not None:
            self.faults.node_op(self.name)
        if not self.alive:
            fut.set_exception(BookkeeperError(f"bookie {self.name} is down"))
            return fut
        if entry.ledger_id in self._fenced and not recovery:
            fut.set_exception(
                LedgerFencedError(f"ledger {entry.ledger_id} fenced on {self.name}")
            )
            return fut
        self._journal_queue.append((entry, fut, span))
        if not self._journal_running:
            self._journal_running = True
            self.sim.process(self._journal_loop())
        return fut

    def _journal_loop(self):
        """Group commit: drain everything queued, one journal write, ack all."""
        journal_file = f"journal:{self.name}"
        while self._journal_queue:
            batch, self._journal_queue = self._journal_queue, []
            total = sum(entry.payload.size + ENTRY_OVERHEAD for entry, _, _ in batch)
            write_started = self.sim.now
            try:
                if self.journal_sync:
                    yield self.journal_disk.write(journal_file, total, sync=True)
                else:
                    yield self.page_cache.write(journal_file, total)
            except Exception as exc:
                # journal device failure: this batch is lost, the loop
                # keeps serving later requests (the device may recover)
                for _, fut, _span in batch:
                    if not fut.done:
                        fut.set_exception(
                            BookkeeperError(
                                f"journal write failed on {self.name}: {exc}"
                            )
                        )
                continue
            if not self.alive:
                # crashed while the batch was in flight: never acked
                for _, fut, _span in batch:
                    if not fut.done:
                        fut.set_exception(
                            BookkeeperError(f"bookie {self.name} crashed")
                        )
                continue
            self.journal_batches += 1
            self.entries_journaled += len(batch)
            self.bytes_journaled += total
            if self.journal_sync:
                # Group commit: every request in the batch waited for the
                # whole synced journal write — each one's critical path
                # carries the full fsync duration (shared-span model).
                write_latency = self.sim.now - write_started
                for _, _fut, span in batch:
                    if span is not None:
                        span.component("fsync", write_latency)
            ledgers = self._ledgers
            for entry, fut, _span in batch:
                ledger = ledgers.setdefault(entry.ledger_id, {})
                ledger[entry.entry_id] = entry
                if not self.journal_sync:
                    wire = entry.payload.size + ENTRY_OVERHEAD
                    self._unsynced.append((entry.ledger_id, entry.entry_id, wire))
                    self._unsynced_bytes += wire
                if not fut.done:
                    fut.set_result(entry.entry_id)
            if not self.journal_sync:
                # entries already written back can no longer be lost;
                # keep only the (possibly still dirty) tail
                dirty = self.page_cache.dirty_for(journal_file)
                while (
                    self._unsynced
                    and self._unsynced_bytes - self._unsynced[0][2] >= dirty
                ):
                    self._unsynced_bytes -= self._unsynced.popleft()[2]
        self._journal_running = False

    # ------------------------------------------------------------------
    # Read path / recovery
    # ------------------------------------------------------------------
    def read_entry(self, ledger_id: int, entry_id: int) -> Entry:
        ledger = self._ledgers.get(ledger_id)
        if ledger is None or entry_id not in ledger:
            raise NoSuchLedgerError(f"ledger {ledger_id} entry {entry_id} on {self.name}")
        return ledger[entry_id]

    def has_entry(self, ledger_id: int, entry_id: int) -> bool:
        return entry_id in self._ledgers.get(ledger_id, {})

    def last_entry_id(self, ledger_id: int) -> int:
        ledger = self._ledgers.get(ledger_id)
        if not ledger:
            return -1
        return max(ledger)

    def fence(self, ledger_id: int) -> int:
        """Reject future appends to ``ledger_id``; returns last stored entry.

        This is the mechanism behind exclusive WAL access for segment
        containers (§4.4): a new owner fences the ledger so the old owner's
        in-flight appends fail.
        """
        self._fenced.add(ledger_id)
        return self.last_entry_id(ledger_id)

    def delete_ledger(self, ledger_id: int) -> None:
        """Drop the ledger's entries (WAL truncation deletes ledgers, §4.3)."""
        self._ledgers.pop(ledger_id, None)
        self._fenced.discard(ledger_id)

    def stored_bytes(self) -> int:
        return sum(
            e.payload.size
            for ledger in self._ledgers.values()
            for e in ledger.values()
        )

    # ------------------------------------------------------------------
    def crash(self, lose_unsynced: bool = False) -> None:
        """Fail-stop: reject everything until restarted.

        With ``lose_unsynced=True`` (and ``journal_sync=False``) the
        journal bytes still dirty in the page cache are discarded and
        the entries they carried are removed, newest first — the
        power-loss outcome of the Fig. 5 "no flush" configuration.
        """
        self.alive = False
        pending, self._journal_queue = self._journal_queue, []
        for _, fut, _span in pending:
            if not fut.done:
                fut.set_exception(
                    BookkeeperError(f"bookie {self.name} crashed")
                )
        if lose_unsynced:
            journal_file = f"journal:{self.name}"
            dirty = self.page_cache.drop_file(journal_file)
            lost = 0
            while self._unsynced and lost < dirty:
                ledger_id, entry_id, wire = self._unsynced.pop()
                lost += wire
                ledger = self._ledgers.get(ledger_id)
                if ledger is not None:
                    ledger.pop(entry_id, None)
            self._unsynced.clear()
            self._unsynced_bytes = 0

    def restart(self) -> None:
        """Restart after a crash.

        Entries journaled with ``journal_sync=True`` survive; with the
        no-flush configuration anything still in the page cache at crash
        time would be lost in reality — the (writeback-incomplete) tail
        loss itself is modeled by the durability experiments.
        """
        self.alive = True
