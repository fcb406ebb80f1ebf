"""Key-value tables: the client API built on top of segments (§2.2).

"Controller instances maintain the stream metadata (which is stored in
Pravega itself via the key-value API built on top of streams)" — the same
API is public: applications get durable, replicated key-value tables with
per-key conditional updates.  The table segments underneath also apply
multi-key updates atomically (§4.3: "All LTS metadata operations are
performed using conditional updates and using transactions to update
multiple keys at once").

A table is backed by one table segment per key-space partition; keys are
hashed to partitions, so tables scale like streams do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.common.errors import StreamError
from repro.common.hashing import stable_hash64
from repro.sim.core import SimFuture, Simulator

__all__ = ["TableEntry", "KeyValueTable"]


@dataclass(frozen=True)
class TableEntry:
    """A versioned table value; ``version`` feeds conditional updates."""

    key: str
    value: Any
    version: int


class KeyValueTable:
    """Client handle on a (possibly partitioned) key-value table."""

    def __init__(
        self,
        sim: Simulator,
        stores: Dict[str, "SegmentStore"],  # noqa: F821 - avoid import cycle
        store_for_segment,
        scope: str,
        name: str,
        host: str,
        partitions: int = 1,
    ) -> None:
        if partitions < 1:
            raise StreamError("a table needs at least one partition")
        self.sim = sim
        self._stores = stores
        self._store_for_segment = store_for_segment
        self.scope = scope
        self.name = name
        self.host = host
        self.partitions = partitions

    # ------------------------------------------------------------------
    def _segment_for(self, key: str) -> str:
        partition = stable_hash64(key) % self.partitions
        return f"{self.scope}/_tables/{self.name}/{partition}"

    def _segments(self) -> List[str]:
        return [
            f"{self.scope}/_tables/{self.name}/{p}" for p in range(self.partitions)
        ]

    def create(self) -> SimFuture:
        """Create the backing table segments (idempotent)."""

        def run():
            from repro.common.errors import SegmentExistsError

            for segment in self._segments():
                store = self._store_for_segment(segment)
                try:
                    yield store.rpc_create_segment(self.host, segment, is_table=True)
                except SegmentExistsError:
                    pass

        return self.sim.process(run())

    # ------------------------------------------------------------------
    def put(self, key: str, value: Any, expected_version: Optional[int] = None) -> SimFuture:
        """Insert/update one key.

        ``expected_version=None`` is unconditional; ``-1`` requires the key
        to be absent; otherwise the stored version must match.  Resolves
        with the new version; fails with ConditionalUpdateError on a
        version mismatch.
        """
        segment = self._segment_for(key)
        store = self._store_for_segment(segment)

        def run():
            versions = yield store.rpc_table_update(
                self.host, segment, {key: (value, expected_version)}
            )
            return versions[key]

        return self.sim.process(run())

    def get(self, key: str) -> SimFuture:
        """Resolves with a :class:`TableEntry` or None if absent."""
        segment = self._segment_for(key)
        store = self._store_for_segment(segment)

        def run():
            entries = yield store.rpc_table_get(self.host, segment, [key])
            if key not in entries:
                return None
            value, version = entries[key]
            return TableEntry(key, value, version)

        return self.sim.process(run())

    def remove(self, key: str, expected_version: Optional[int] = None) -> SimFuture:
        """Delete one key (conditionally when a version is given)."""
        segment = self._segment_for(key)
        store = self._store_for_segment(segment)

        def run():
            yield store.rpc_table_update(
                self.host, segment, {key: (None, expected_version)}
            )

        return self.sim.process(run())

    def keys(self) -> SimFuture:
        """Resolves with all keys across the table's partitions."""

        def run():
            found: List[str] = []
            for segment in self._segments():
                store = self._store_for_segment(segment)
                container = store.container_for(segment)
                found.extend(container.table_keys(segment))
                yield self.sim.timeout(0.0)
            return sorted(found)

        return self.sim.process(run())
