"""Replacement policies for set-associative caches.

A policy manages one cache's way-selection state.  Sets are dense lists of
tags ordered by the policy itself where that is natural (LRU keeps
most-recent-first), so the cache core stays policy-agnostic.
"""

from __future__ import annotations

import random
from typing import Optional


class ReplacementPolicy:
    """Interface: pick a victim way index for a full set."""

    name = "abstract"

    def victim(self, set_index: int, ways: int) -> int:
        """Return the way index to evict from a full set."""
        raise NotImplementedError

    def touched(self, set_index: int, way: int) -> None:
        """Notify that ``way`` in ``set_index`` was accessed (default noop).

        LRU ordering is maintained structurally by the cache (move-to-front),
        so most policies need no per-touch state here.
        """


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used: evict the tail of the recency list.

    The cache keeps each set ordered most-recent-first, so the victim is
    always the last way.
    """

    name = "lru"

    def victim(self, set_index: int, ways: int) -> int:
        """Choose the way to evict from this set."""
        return ways - 1


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: the cache inserts at the front and never
    reorders on hit, so evicting the last way realises FIFO."""

    name = "fifo"

    def victim(self, set_index: int, ways: int) -> int:
        """Choose the way to evict from this set."""
        return ways - 1


class RandomPolicy(ReplacementPolicy):
    """Uniformly random victim selection."""

    name = "random"

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def victim(self, set_index: int, ways: int) -> int:
        """Choose the way to evict from this set."""
        return self._rng.randrange(ways)


def make_policy(name: str, rng: Optional[random.Random] = None) -> ReplacementPolicy:
    """Factory mapping a policy name to an instance.

    ``rng`` is required for stochastic policies.
    """
    if name == "lru":
        return LRUPolicy()
    if name == "fifo":
        return FIFOPolicy()
    if name == "random":
        if rng is None:
            raise ValueError("random replacement requires an RNG")
        return RandomPolicy(rng)
    raise ValueError(f"unknown replacement policy {name!r}")
