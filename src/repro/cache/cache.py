"""One level of a set-associative, write-back, write-allocate LRU cache.

The model is functional (hit/miss and victim tracking, no timing): latency
is applied by the hierarchy / core model.  A :class:`Cache` holds one
level's state; :class:`~repro.cache.hierarchy.CacheHierarchy` walks it.
Each set is a dense list of line numbers ordered most-recent-first, so a
hit moves its line to the front and a fill evicts the last one.
"""

from __future__ import annotations

from typing import List, Set

from ..common.config import CacheConfig
from ..common.units import log2_exact


class Cache:
    """One cache level's sets, dirty lines and hit/miss counts.

    >>> from repro.common.config import CacheConfig
    >>> c = Cache(CacheConfig(capacity_bytes=1024, associativity=2,
    ...                       line_bytes=64))
    >>> c.num_sets, c.contains(0), c.resident_lines()
    (8, False, 0)
    """

    __slots__ = ("line_shift", "set_mask", "ways", "sets", "dirty", "hits",
                 "misses")

    def __init__(self, config: CacheConfig) -> None:
        self.line_shift = log2_exact(config.line_bytes)
        self.set_mask = config.num_sets - 1
        self.ways = config.associativity
        #: Line numbers per set, most recently used first.
        self.sets: List[List[int]] = [[] for _ in range(config.num_sets)]
        #: Resident lines written since they were filled.
        self.dirty: Set[int] = set()
        self.hits = 0
        self.misses = 0

    @property
    def num_sets(self) -> int:
        """Number of sets in this cache."""
        return len(self.sets)

    def contains(self, address: int) -> bool:
        """True when the line holding ``address`` is resident."""
        line = address >> self.line_shift
        return line in self.sets[line & self.set_mask]

    def is_dirty(self, address: int) -> bool:
        """True when the resident line holding ``address`` is dirty."""
        line = address >> self.line_shift
        return line in self.dirty and self.contains(address)

    def resident_lines(self) -> int:
        """Total lines currently resident (testing/inspection helper)."""
        return sum(len(s) for s in self.sets)

    def reset_stats(self) -> None:
        """Zero hit/miss counters (state is preserved)."""
        self.hits = 0
        self.misses = 0
