"""Key-space algebra for stream scaling.

A stream's segments partition the routing-key space [0, 1) (§2.1).  A
scale-up event seals one segment and replaces it with successors whose
ranges exactly partition the sealed range; a scale-down merges adjacent
sealed ranges into one successor (§3.1, Fig. 2a).  This module implements
the range arithmetic and the partition invariant checks that the
controller relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["KeyRange", "split_range", "merge_ranges", "is_partition"]

_EPS = 1e-12


@dataclass(frozen=True, order=True)
class KeyRange:
    """Half-open interval [low, high) within the key space [0, 1)."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.low < self.high <= 1.0):
            raise ValueError(f"invalid key range [{self.low}, {self.high})")

    def contains(self, position: float) -> bool:
        return self.low <= position < self.high

    def overlaps(self, other: "KeyRange") -> bool:
        return self.low < other.high and other.low < self.high

    @property
    def width(self) -> float:
        return self.high - self.low

    @classmethod
    def full(cls) -> "KeyRange":
        return cls(0.0, 1.0)


def split_range(key_range: KeyRange, parts: int) -> list[KeyRange]:
    """Split ``key_range`` into ``parts`` equal sub-ranges (scale-up)."""
    if parts < 2:
        raise ValueError(f"split requires at least 2 parts, got {parts}")
    width = key_range.width / parts
    bounds = [key_range.low + i * width for i in range(parts)] + [key_range.high]
    return [KeyRange(bounds[i], bounds[i + 1]) for i in range(parts)]


def merge_ranges(ranges: Sequence[KeyRange]) -> KeyRange:
    """Merge contiguous ranges into one (scale-down).

    Raises ``ValueError`` if the ranges do not form a contiguous,
    non-overlapping run.
    """
    if not ranges:
        raise ValueError("cannot merge zero ranges")
    ordered = sorted(ranges)
    for left, right in zip(ordered, ordered[1:]):
        if abs(left.high - right.low) > _EPS:
            raise ValueError(
                f"ranges not contiguous: [{left.low},{left.high}) then "
                f"[{right.low},{right.high})"
            )
    return KeyRange(ordered[0].low, ordered[-1].high)


def is_partition(ranges: Iterable[KeyRange], of: KeyRange | None = None) -> bool:
    """True iff ``ranges`` exactly partition ``of`` (default: the full space)."""
    target = of or KeyRange.full()
    ordered = sorted(ranges)
    if not ordered:
        return False
    if abs(ordered[0].low - target.low) > _EPS:
        return False
    if abs(ordered[-1].high - target.high) > _EPS:
        return False
    for left, right in zip(ordered, ordered[1:]):
        if abs(left.high - right.low) > _EPS:
            return False
    return True
