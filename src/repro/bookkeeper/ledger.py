"""Ledger model: metadata and entries.

A ledger is a bounded, append-only, replicated log.  Its metadata —
ensemble (the bookies storing it), write quorum (replicas per entry) and
ack quorum (confirmations required before acknowledging a write, Table 1:
ensemble=3, writeQuorum=3, ackQuorum=2) — lives in a shared ledger
manager, which in Apache Bookkeeper is Zookeeper-backed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import NoSuchLedgerError
from repro.common.payload import Payload

__all__ = ["LedgerState", "LedgerMetadata", "Entry", "LedgerManager"]


class LedgerState(enum.Enum):
    """Ledger lifecycle: OPEN accepts appends; CLOSED is immutable."""
    OPEN = "open"
    CLOSED = "closed"


@dataclass(frozen=True, slots=True)
class Entry:
    """One replicated log record.

    ``record`` is the structured object the payload bytes decode to
    (e.g. a Pravega data frame).  It rides along with the stored entry so
    recovery can replay operations after reading the ledger — the
    simulation equivalent of deserializing the entry's bytes.  Slotted:
    every bookie keeps one per stored entry.
    """

    ledger_id: int
    entry_id: int
    payload: Payload
    record: object = None


@dataclass
class LedgerMetadata:
    ledger_id: int
    ensemble: List[str]
    write_quorum: int
    ack_quorum: int
    state: LedgerState = LedgerState.OPEN
    #: set when the ledger is closed (normally or by recovery)
    last_entry_id: int = -1

    def __post_init__(self) -> None:
        if not (1 <= self.ack_quorum <= self.write_quorum <= len(self.ensemble)):
            raise ValueError(
                f"need 1 <= ackQuorum({self.ack_quorum}) <= "
                f"writeQuorum({self.write_quorum}) <= ensemble({len(self.ensemble)})"
            )

    def write_set(self, entry_id: int) -> List[str]:
        """Bookies storing ``entry_id`` (round-robin striping)."""
        n = len(self.ensemble)
        return [self.ensemble[(entry_id + i) % n] for i in range(self.write_quorum)]


@dataclass
class LedgerManager:
    """Shared ledger-metadata store (conceptually Zookeeper-backed)."""

    _ledgers: Dict[int, LedgerMetadata] = field(default_factory=dict)
    _next_id: int = 0

    def allocate_id(self) -> int:
        ledger_id = self._next_id
        self._next_id += 1
        return ledger_id

    def register(self, metadata: LedgerMetadata) -> None:
        self._ledgers[metadata.ledger_id] = metadata

    def get(self, ledger_id: int) -> LedgerMetadata:
        metadata = self._ledgers.get(ledger_id)
        if metadata is None:
            raise NoSuchLedgerError(str(ledger_id))
        return metadata

    def lookup(self, ledger_id: int) -> Optional[LedgerMetadata]:
        return self._ledgers.get(ledger_id)

    def remove(self, ledger_id: int) -> None:
        if ledger_id not in self._ledgers:
            raise NoSuchLedgerError(str(ledger_id))
        del self._ledgers[ledger_id]

    def ledger_ids(self) -> List[int]:
        return sorted(self._ledgers)
