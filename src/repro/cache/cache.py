"""A set-associative, write-back, write-allocate cache.

The model is functional (hit/miss and victim tracking, no timing): latency
is applied by the hierarchy / core model.  Each set is a dense list of line
numbers ordered most-recent-first, so LRU and FIFO come out of the insert
discipline and stochastic policies override victim selection only.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set, Tuple

from ..common.config import CacheConfig
from ..common.units import log2_exact
from .replacement import LRUPolicy, RandomPolicy, ReplacementPolicy, make_policy


class Cache:
    """One cache level.

    >>> from repro.common.config import CacheConfig
    >>> c = Cache(CacheConfig(capacity_bytes=1024, associativity=2,
    ...                       line_bytes=64))
    >>> c.access(0, is_write=False)
    (False, None)
    >>> c.access(0, is_write=False)
    (True, None)
    """

    __slots__ = (
        "config", "name", "line_bytes", "_line_shift", "_num_sets",
        "_set_mask", "_ways", "_sets", "_dirty", "_policy",
        "_reorder_on_hit", "_pop_last",
        "hits", "misses", "evictions", "writebacks",
    )

    def __init__(
        self,
        config: CacheConfig,
        rng: Optional[random.Random] = None,
        name: str = "cache",
    ) -> None:
        self.config = config
        self.name = name
        self.line_bytes = config.line_bytes
        self._line_shift = log2_exact(config.line_bytes)
        self._num_sets = config.num_sets
        self._set_mask = self._num_sets - 1
        self._ways = config.associativity
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]
        self._dirty: Set[int] = set()
        self._policy: ReplacementPolicy = make_policy(config.replacement, rng)
        self._reorder_on_hit = isinstance(self._policy, LRUPolicy)
        # LRU and FIFO always evict the last way of the recency list, so
        # the hot fill path can pop() without the policy round-trip.
        self._pop_last = not isinstance(self._policy, RandomPolicy)
        # Hot-path statistics as plain ints.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    @property
    def num_sets(self) -> int:
        """Number of sets in this cache."""
        return self._num_sets

    def access(self, address: int, is_write: bool) -> Tuple[bool, Optional[int]]:
        """Access one byte address.

        Returns ``(hit, writeback_address)``: ``writeback_address`` is the
        byte address of a dirty victim written back by this fill, else None.
        Misses allocate (write-allocate for stores).
        """
        line = address >> self._line_shift
        set_list = self._sets[line & self._set_mask]
        if line in set_list:
            self.hits += 1
            if self._reorder_on_hit and set_list[0] != line:
                set_list.remove(line)
                set_list.insert(0, line)
            if is_write:
                self._dirty.add(line)
            return (True, None)
        self.misses += 1
        writeback = self._fill(line, set_list)
        if is_write:
            self._dirty.add(line)
        return (False, writeback)

    def fill(self, address: int, dirty: bool = False) -> Optional[int]:
        """Insert a line (e.g. a writeback arriving from an upper level).

        Returns the byte address of a dirty victim, if any.  A no-op when
        the line is already resident (the dirty bit is merged).
        """
        line = address >> self._line_shift
        set_list = self._sets[line & self._set_mask]
        if line in set_list:
            if dirty:
                self._dirty.add(line)
            return None
        writeback = self._fill(line, set_list)
        if dirty:
            self._dirty.add(line)
        return writeback

    def _fill(self, line: int, set_list: List[int]) -> Optional[int]:
        """Allocate ``line`` into its set, evicting if full."""
        writeback: Optional[int] = None
        if len(set_list) >= self._ways:
            if self._pop_last:
                victim = set_list.pop()
            else:
                victim_way = self._policy.victim(
                    line & self._set_mask, self._ways)
                victim = set_list.pop(victim_way)
            self.evictions += 1
            dirty = self._dirty
            if victim in dirty:
                dirty.discard(victim)
                self.writebacks += 1
                writeback = victim << self._line_shift
        set_list.insert(0, line)
        return writeback

    def contains(self, address: int) -> bool:
        """True when the line holding ``address`` is resident."""
        line = address >> self._line_shift
        return line in self._sets[line & self._set_mask]

    def is_dirty(self, address: int) -> bool:
        """True when the resident line holding ``address`` is dirty."""
        line = address >> self._line_shift
        return line in self._dirty and self.contains(address)

    def invalidate(self, address: int) -> Optional[int]:
        """Remove a line; returns its byte address if it was dirty."""
        line = address >> self._line_shift
        set_list = self._sets[line & self._set_mask]
        if line not in set_list:
            return None
        set_list.remove(line)
        if line in self._dirty:
            self._dirty.discard(line)
            return line << self._line_shift
        return None

    def resident_lines(self) -> int:
        """Total lines currently resident (testing/inspection helper)."""
        return sum(len(s) for s in self._sets)

    @property
    def accesses(self) -> int:
        """Total accesses (hits plus misses)."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss fraction of all accesses (0.0 when idle)."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        """Zero hit/miss/eviction counters (state is preserved)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
