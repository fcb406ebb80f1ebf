"""Long-term storage (LTS) interface and the shared transfer model.

LTS is the primary, scale-out storage for stream data (§2.2): Pravega
asynchronously migrates WAL data to it and serves historical reads from
it.  The paper uses AWS EFS (NFS) for Pravega and AWS S3 for Pulsar and
measures both at ~160 MB/s *per file/object transfer* (§5.7), while
Pravega's parallel chunk reads reach 731 MB/s aggregate — so the model
distinguishes per-stream bandwidth from aggregate bandwidth.

Chunks are immutable, write-once blobs: "Pravega stores chunks (i.e.,
contiguous range of segment bytes) and segments are made up of a sequence
of non-overlapping chunks.  Note that chunks themselves do not include
additional metadata" (§4.3).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import NoSuchChunkError, StorageError
from repro.common.payload import Payload
from repro.sim.core import SimFuture, Simulator
from repro.sim.resources import FifoServer

__all__ = ["LtsSpec", "LongTermStorage", "ThrottledTransferModel"]

#: transfers are interleaved at this granularity for fairness
_SLICE = 4 * 1024 * 1024


@dataclass(frozen=True)
class LtsSpec:
    """Performance envelope of an LTS backend."""

    #: bandwidth available to a single transfer (the ~160 MB/s of §5.7)
    per_stream_bandwidth: float = 160e6
    #: bandwidth across all concurrent transfers
    aggregate_bandwidth: float = 800e6
    #: fixed latency per operation (metadata + first byte)
    op_latency: float = 3e-3
    name: str = "lts"


class ThrottledTransferModel:
    """Shared implementation of the two-level bandwidth model."""

    def __init__(self, sim: Simulator, spec: LtsSpec) -> None:
        self.sim = sim
        self.spec = spec
        self._aggregate = FifoServer(sim, name=f"{spec.name}-aggregate")
        self.bytes_in = 0
        self.bytes_out = 0

    def transfer(self, nbytes: int, inbound: bool) -> SimFuture:
        """Move ``nbytes`` to (inbound) or from the backend.

        A single transfer is paced at ``per_stream_bandwidth``; all
        concurrent transfers share ``aggregate_bandwidth``.
        """
        if inbound:
            self.bytes_in += nbytes
        else:
            self.bytes_out += nbytes

        def run():
            yield self.sim.timeout(self.spec.op_latency)
            remaining = nbytes
            while remaining > 0:
                piece = min(remaining, _SLICE)
                remaining -= piece
                aggregate_time = piece / self.spec.aggregate_bandwidth
                stream_time = piece / self.spec.per_stream_bandwidth
                yield self._aggregate.delay(aggregate_time)
                pacing = stream_time - aggregate_time
                if pacing > 0:
                    yield self.sim.timeout(pacing)

        return self.sim.process(run())


class LongTermStorage(abc.ABC):
    """Abstract chunk store: write-once chunks addressed by name."""

    def __init__(self, sim: Simulator, spec: Optional[LtsSpec] = None) -> None:
        self.sim = sim
        self.spec = spec or LtsSpec()
        self._transfers = ThrottledTransferModel(sim, self.spec)
        self._chunks: Dict[str, Payload] = {}

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def write_chunk(self, name: str, payload: Payload) -> SimFuture:
        """Store an immutable chunk; resolves when the data is durable."""
        if name in self._chunks:
            fut = self.sim.future()
            fut.set_exception(StorageError(f"chunk exists: {name}"))
            return fut

        def run():
            yield self._transfers.transfer(payload.size, inbound=True)
            yield self.sim.timeout(self._commit_latency())
            self._chunks[name] = payload
            return name

        return self.sim.process(run())

    def read_chunk(
        self, name: str, offset: int = 0, length: Optional[int] = None
    ) -> SimFuture:
        """Read [offset, offset+length) of the chunk; resolves with a Payload."""
        fut_error = self._missing(name)
        if fut_error is not None:
            return fut_error
        chunk = self._chunks[name]
        end = chunk.size if length is None else min(offset + length, chunk.size)
        if offset > chunk.size:
            fut = self.sim.future()
            fut.set_exception(
                StorageError(f"read past end of {name}: {offset} > {chunk.size}")
            )
            return fut
        piece = chunk.slice(offset, end)

        def run():
            yield self._transfers.transfer(piece.size, inbound=False)
            return piece

        return self.sim.process(run())

    def delete_chunk(self, name: str) -> SimFuture:
        fut_error = self._missing(name)
        if fut_error is not None:
            return fut_error

        def run():
            yield self.sim.timeout(self.spec.op_latency)
            self._chunks.pop(name, None)

        return self.sim.process(run())

    # ------------------------------------------------------------------
    # Synchronous inspection helpers (no simulated cost; tests/metrics)
    # ------------------------------------------------------------------
    def exists(self, name: str) -> bool:
        return name in self._chunks

    def chunk_size(self, name: str) -> int:
        if name not in self._chunks:
            raise NoSuchChunkError(name)
        return self._chunks[name].size

    def list_chunks(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self._chunks if n.startswith(prefix))

    def total_bytes(self) -> int:
        return sum(p.size for p in self._chunks.values())

    @property
    def bytes_written(self) -> int:
        return self._transfers.bytes_in

    @property
    def bytes_read(self) -> int:
        return self._transfers.bytes_out

    # ------------------------------------------------------------------
    def _missing(self, name: str) -> Optional[SimFuture]:
        if name not in self._chunks:
            fut = self.sim.future()
            fut.set_exception(NoSuchChunkError(name))
            return fut
        return None

    def _commit_latency(self) -> float:
        """Extra latency to make a chunk visible after upload (backend-specific)."""
        return 0.0
