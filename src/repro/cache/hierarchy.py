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
from ..common.rng import make_rng
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


class CacheHierarchy:
    """Private-L1/L2 per core plus one shared LLC.

    The hierarchy is non-inclusive/non-exclusive (mostly-inclusive in
    practice): fills allocate at every level on the walk back up, and dirty
    victims write back one level down.
    """

    def __init__(self, config: HierarchyConfig, num_cores: int, seed: int = 1) -> None:
        self.config = config
        self.num_cores = num_cores
        self.l1: List[Cache] = [
            Cache(config.l1, make_rng(seed, f"l1:{i}"), name=f"L1[{i}]")
            for i in range(num_cores)
        ]
        self.l2: List[Cache] = [
            Cache(config.l2, make_rng(seed, f"l2:{i}"), name=f"L2[{i}]")
            for i in range(num_cores)
        ]
        self.llc = Cache(config.llc, make_rng(seed, "llc"), name="LLC")
        self.line_bytes = config.l1.line_bytes
        #: Demand LLC misses per core (for per-core MPKI).
        self.llc_demand_misses: List[int] = [0] * num_cores
        # Hot-path constants: per-level latencies and the line-align mask.
        self._l1_latency = config.l1.latency_cycles
        self._l2_latency = config.l2.latency_cycles
        self._llc_latency = config.llc.latency_cycles
        self._line_align = ~(self.line_bytes - 1)

    def access_tuple(self, core: int, address: int, is_write: bool):
        """Hot-path access returning ``(level, latency_cycles, demand_fill,
        writebacks)`` with no result-object allocation.

        ``writebacks`` is a shared empty tuple in the (dominant) case of no
        dirty spills; callers must only iterate it.  Semantics are exactly
        :meth:`access` — that method is now a thin wrapper over this one.
        """
        hit, wb = self.l1[core].access(address, is_write)
        if hit:
            return (L1, self._l1_latency, None, _NO_WRITEBACKS)
        writebacks = None
        llc = self.llc
        if wb is not None:
            # L1 dirty victim lands in L2.
            spill = self.l2[core].fill(wb, dirty=True)
            if spill is not None:
                spill2 = llc.fill(spill, dirty=True)
                if spill2 is not None:
                    writebacks = [spill2]
        hit, wb = self.l2[core].access(address, is_write)
        if hit:
            return (L2, self._l2_latency, None,
                    writebacks if writebacks is not None else _NO_WRITEBACKS)
        if wb is not None:
            spill = llc.fill(wb, dirty=True)
            if spill is not None:
                if writebacks is None:
                    writebacks = [spill]
                else:
                    writebacks.append(spill)
        hit, wb = llc.access(address, is_write)
        if wb is not None:
            if writebacks is None:
                writebacks = [wb]
            else:
                writebacks.append(wb)
        if writebacks is None:
            writebacks = _NO_WRITEBACKS
        if hit:
            return (LLC, self._llc_latency, None, writebacks)
        self.llc_demand_misses[core] += 1
        return (MEMORY, self._llc_latency, address & self._line_align,
                writebacks)

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
