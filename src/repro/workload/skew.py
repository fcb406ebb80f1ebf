"""Key-skew models: how a tick's events spread over routing keys.

The driver's historical "random" key mode spreads each tick's event
group uniformly over the key table (``bench.runner._spread``).  Real
tenants are rarely uniform: web workloads follow Zipf-like popularity
curves.  A :class:`KeySkew` plugs into the same group-spreading point of
the hot loop: given a tick's event count it returns ``(key_index,
share)`` pairs, where
``key_index`` selects an entry of the adapter's key table (one key per
initial partition/segment).

Skews are deterministic: a router is built per producer from the
workload seed via :func:`stable_hash64`, and share rounding uses
largest-remainder error diffusion so long-run frequencies converge to
the configured weights exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.common.hashing import stable_hash64

__all__ = ["KeySkew", "KeyRouter", "ZipfSkew"]


class KeyRouter:
    """Stateful per-producer share router."""

    def shares(self, count: int, now: float) -> List[Tuple[int, int]]:
        """Split ``count`` events into ``(key_index, share)`` pairs."""
        raise NotImplementedError  # pragma: no cover


class KeySkew:
    """A skew model; ``router(partitions, seed)`` builds the router."""

    def router(self, partitions: int, seed: int) -> KeyRouter:
        raise NotImplementedError  # pragma: no cover


class _WeightedRouter(KeyRouter):
    """Largest-remainder apportionment with per-key carry.

    Exact in the long run: each key's cumulative share tracks
    ``count * weight`` to within one event.
    """

    __slots__ = ("weights", "carry", "order")

    def __init__(self, weights: List[float]) -> None:
        total = sum(weights)
        self.weights = [w / total for w in weights]
        self.carry = [0.0] * len(weights)
        self.order = list(range(len(weights)))

    def _apportion(self, count: int) -> List[Tuple[int, int]]:
        weights, carry = self.weights, self.carry
        shares = []
        assigned = 0
        for i, w in enumerate(weights):
            exact = count * w + carry[i]
            n = int(exact)
            carry[i] = exact - n
            assigned += n
            if n:
                shares.append((i, n))
        leftover = count - assigned
        if leftover > 0:
            # Deterministic largest-remainder tie-break by key index.
            for i in sorted(self.order, key=lambda j: (-carry[j], j))[:leftover]:
                carry[i] -= 1.0
                shares.append((i, 1))
        return shares

    def shares(self, count: int, now: float) -> List[Tuple[int, int]]:
        return self._apportion(count)


@dataclass(frozen=True)
class ZipfSkew(KeySkew):
    """Zipf(s) popularity: rank-r key receives weight 1/r^s.

    The rank -> key assignment is a seeded permutation so different
    producers (different seeds) can agree or disagree on the hot key via
    seed choice; by default each producer's router permutes with its own
    seed offset mixed in, keeping aggregate skew while avoiding a single
    synchronized hot key unless ``pinned`` is set.
    """

    s: float = 1.0
    #: pin the rank->key assignment (all producers share the hot key)
    pinned: bool = True

    def router(self, partitions: int, seed: int) -> KeyRouter:
        import random

        ranks = [1.0 / (r + 1) ** self.s for r in range(partitions)]
        perm = list(range(partitions))
        perm_seed = 0 if self.pinned else seed
        random.Random(stable_hash64(f"zipf:{perm_seed}")).shuffle(perm)
        weights = [0.0] * partitions
        for rank, key in enumerate(perm):
            weights[key] = ranks[rank]
        return _WeightedRouter(weights)
