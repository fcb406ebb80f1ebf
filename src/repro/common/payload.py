"""Payload: bytes that may be real or synthetic.

Correctness tests exercise the data path with real byte content and verify
exact round trips.  Benchmarks move tens of gigabytes of simulated data;
allocating those bytes for real would be pointless, so a payload may carry
only its *size*.  Every component of the storage path (WAL frames, cache
blocks, LTS chunks, read responses) operates on :class:`Payload` and
therefore works identically in both modes; sizes always add up exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = ["Payload"]


@dataclass(frozen=True, slots=True)
class Payload:
    """An immutable run of bytes, possibly content-free (synthetic)."""

    size: int
    content: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative payload size: {self.size}")
        if self.content is not None and len(self.content) != self.size:
            raise ValueError(
                f"content length {len(self.content)} != declared size {self.size}"
            )

    @classmethod
    def _trusted(cls, size: int, content: Optional[bytes]) -> "Payload":
        """Construct without validation — callers guarantee the size/content
        invariant.  Frozen-dataclass ``__init__`` pays one
        ``object.__setattr__`` per field plus ``__post_init__``; the storage
        path builds millions of payloads, so internal call sites skip it.
        """
        payload = object.__new__(cls)
        _set = object.__setattr__
        _set(payload, "size", size)
        _set(payload, "content", content)
        return payload

    @classmethod
    def of(cls, data: bytes) -> "Payload":
        """A payload with real content."""
        return cls._trusted(len(data), bytes(data))

    @classmethod
    def synthetic(cls, size: int) -> "Payload":
        """A content-free payload of ``size`` bytes."""
        if size < 0:
            raise ValueError(f"negative payload size: {size}")
        return cls._trusted(size, None)

    @classmethod
    def empty(cls) -> "Payload":
        return _EMPTY

    @property
    def is_synthetic(self) -> bool:
        return self.content is None and self.size > 0

    def slice(self, start: int, end: int) -> "Payload":
        """The sub-payload [start, end) — content-preserving when possible."""
        if not (0 <= start <= end <= self.size):
            raise ValueError(f"bad slice [{start}, {end}) of {self.size} bytes")
        if self.content is not None:
            return Payload._trusted(end - start, self.content[start:end])
        return Payload._trusted(end - start, None)

    @classmethod
    def concat(cls, parts: Sequence["Payload"]) -> "Payload":
        """Concatenate payloads; the result is synthetic if any part is."""
        total = 0
        all_content = True
        for p in parts:
            total += p.size
            if p.content is None:
                all_content = False
        if total == 0:
            return _EMPTY
        if all_content:
            return cls._trusted(total, b"".join(p.content for p in parts))  # type: ignore[misc]
        return cls._trusted(total, None)

    def __add__(self, other: "Payload") -> "Payload":
        return Payload.concat([self, other])

    def require_content(self) -> bytes:
        if self.content is None:
            raise ValueError("payload is synthetic (size-only)")
        return self.content


#: shared immutable empty payload (Payload is frozen, so a singleton is safe)
_EMPTY = Payload(0, b"")
