"""Three-level cache hierarchy (Table 1): private L1/L2, shared LLC.

The hierarchy is functional: it classifies each reference by the level it
hits and reports which DRAM transactions (demand fill, dirty writebacks)
the reference triggers.  Latencies are *access latencies* of the hitting
level (Table 1 gives 4/12/20 cycles); DRAM misses additionally pay the
memory-system latency computed by the controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..common.config import HierarchyConfig
from .cache import Cache

#: Levels a reference can hit at.
L1, L2, LLC, MEMORY = "L1", "L2", "LLC", "MEM"

#: Shared empty writeback sequence for the (dominant) no-writeback case.
_NO_WRITEBACKS: tuple = ()


@dataclass
class CacheAccessResult:
    """Outcome of pushing one reference through the hierarchy."""

    level: str
    latency_cycles: int
    #: Byte address of the demand line to fetch from DRAM (LLC miss), or None.
    demand_fill: Optional[int] = None
    #: Byte addresses of dirty lines evicted to DRAM by this reference.
    writebacks: List[int] = field(default_factory=list)


def caches_group(levels: Iterable[Tuple[str, int, int]],
                 demand_misses: int) -> Dict[str, Dict[str, object]]:
    """The ``[caches]`` subtree from ``(name, hits, misses)`` per level
    and the LLC's demand misses (the one place its shape is written)."""
    group: Dict[str, Dict[str, object]] = {}
    for name, hits, misses in levels:
        level = group[name] = {"hits": hits, "misses": misses}
        if name == "llc":
            level["demand_misses"] = demand_misses
        total = hits + misses
        level["hit_rate"] = hits / total if total else 0.0
    return group


def _write_back(cache: Cache, line: int) -> Optional[int]:
    """Write the dirty victim ``line`` of the level above into ``cache``;
    return the dirty line it evicts there, or None.

    A resident line only turns dirty and keeps its place in the recency
    order; otherwise the line is allocated, evicting the set's LRU line.
    """
    ways = cache.sets[line & cache.set_mask]
    dirty = cache.dirty
    dirty.add(line)
    if line in ways:
        return None
    ways.insert(0, line)
    if len(ways) > cache.ways:
        victim = ways.pop()
        if victim in dirty:
            dirty.discard(victim)
            return victim
    return None


class CacheHierarchy:
    """Private-L1/L2 per core plus one shared LLC, all LRU.

    The hierarchy is non-inclusive/non-exclusive (mostly-inclusive in
    practice): fills allocate at every level on the walk back up, and dirty
    victims write back one level down.
    """

    def __init__(self, config: HierarchyConfig, num_cores: int) -> None:
        self.config = config
        self.num_cores = num_cores
        self.l1: List[Cache] = [Cache(config.l1) for _ in range(num_cores)]
        self.l2: List[Cache] = [Cache(config.l2) for _ in range(num_cores)]
        self.llc = Cache(config.llc)
        self.line_bytes = config.l1.line_bytes
        #: Demand LLC misses per core (for per-core MPKI).
        self.llc_demand_misses: List[int] = [0] * num_cores
        # Hot-path constants: the line shift every level shares, the
        # outcomes of hits that spill nothing, and the line-align mask.
        self._line_shift = self.llc.line_shift
        self._l1_hit = (L1, config.l1.latency_cycles, None, _NO_WRITEBACKS)
        self._l2_latency = config.l2.latency_cycles
        self._l2_hit = (L2, self._l2_latency, None, _NO_WRITEBACKS)
        self._llc_latency = config.llc.latency_cycles
        self._line_align = ~(self.line_bytes - 1)

    def access_tuple(self, core: int, address: int, is_write: bool):
        """Hot-path access returning ``(level, latency_cycles, demand_fill,
        writebacks)`` with no result-object allocation.

        One pass walks L1, L2 and the LLC: each level it reaches counts a
        hit or a miss, a hit moves its line to the front of its set, a
        miss allocates it there (evicting the set's LRU line), and a write
        marks the line dirty.  A dirty L1 victim is written into L2 and a
        dirty L2 victim into the LLC (:func:`_write_back`) before the next
        level is probed.  ``writebacks`` holds the byte addresses of the
        dirty LLC victims in that order, or is a shared empty tuple in the
        (dominant) case of none; callers must only iterate it.
        """
        line = address >> self._line_shift
        cache = self.l1[core]
        ways = cache.sets[line & cache.set_mask]
        if line in ways:
            cache.hits += 1
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            if is_write:
                cache.dirty.add(line)
            return self._l1_hit
        cache.misses += 1
        l2 = self.l2[core]
        llc = self.llc
        writebacks = None
        dirty = cache.dirty
        if len(ways) >= cache.ways:
            victim = ways.pop()
            if victim in dirty:
                dirty.discard(victim)
                victim = _write_back(l2, victim)
                if victim is not None:
                    victim = _write_back(llc, victim)
                    if victim is not None:
                        writebacks = [victim << self._line_shift]
        ways.insert(0, line)
        if is_write:
            dirty.add(line)

        ways = l2.sets[line & l2.set_mask]
        if line in ways:
            l2.hits += 1
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            if is_write:
                l2.dirty.add(line)
            if writebacks is None:
                return self._l2_hit
            return (L2, self._l2_latency, None, writebacks)
        l2.misses += 1
        dirty = l2.dirty
        if len(ways) >= l2.ways:
            victim = ways.pop()
            if victim in dirty:
                dirty.discard(victim)
                victim = _write_back(llc, victim)
                if victim is not None:
                    if writebacks is None:
                        writebacks = [victim << self._line_shift]
                    else:
                        writebacks.append(victim << self._line_shift)
        ways.insert(0, line)
        if is_write:
            dirty.add(line)

        ways = llc.sets[line & llc.set_mask]
        if line in ways:
            llc.hits += 1
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            if is_write:
                llc.dirty.add(line)
            return (LLC, self._llc_latency, None,
                    _NO_WRITEBACKS if writebacks is None else writebacks)
        llc.misses += 1
        dirty = llc.dirty
        if len(ways) >= llc.ways:
            victim = ways.pop()
            if victim in dirty:
                dirty.discard(victim)
                if writebacks is None:
                    writebacks = [victim << self._line_shift]
                else:
                    writebacks.append(victim << self._line_shift)
        ways.insert(0, line)
        if is_write:
            dirty.add(line)
        self.llc_demand_misses[core] += 1
        return (MEMORY, self._llc_latency, address & self._line_align,
                _NO_WRITEBACKS if writebacks is None else writebacks)

    def access(self, core: int, address: int, is_write: bool) -> CacheAccessResult:
        """Push one reference through the hierarchy for ``core``."""
        level, latency, demand_fill, writebacks = self.access_tuple(
            core, address, is_write)
        return CacheAccessResult(level, latency, demand_fill=demand_fill,
                                 writebacks=list(writebacks))

    def total_llc_misses(self) -> int:
        """Demand LLC misses summed over cores."""
        return sum(self.llc_demand_misses)

    def stats_group(self) -> Dict[str, Dict[str, object]]:
        """Export per-level hit/miss counts as a ``[caches]`` subtree.

        Private levels aggregate across cores (per-core detail lives in
        the core groups as stalls/latency, not repeated here).
        """
        return caches_group(
            [(name, sum(cache.hits for cache in caches),
              sum(cache.misses for cache in caches))
             for name, caches in (("l1", self.l1), ("l2", self.l2),
                                  ("llc", [self.llc]))],
            self.total_llc_misses())

    def reset_stats(self) -> None:
        """Zero all per-level statistics (contents preserved)."""
        for cache in (*self.l1, *self.l2, self.llc):
            cache.reset_stats()
        self.llc_demand_misses = [0] * self.num_cores
