"""Result metrics for one simulation run.

:class:`RunMetrics` is a plain, JSON-serialisable record of everything the
experiment harnesses need: per-core execution times, MPKI, PPKM (promotions
per kilo-misses), footprint, access-location breakdown, translation-cache
behaviour and energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List


@dataclass
class RunMetrics:
    """Measured outcome of one (workload, design) simulation."""

    workload: str
    design: str
    references: int
    instructions: int
    #: Per-core measured execution time (ns).
    time_ns: List[float] = field(default_factory=list)
    #: Per-core instructions per cycle.
    ipc: List[float] = field(default_factory=list)
    #: Demand LLC misses during the measurement window.
    llc_misses: int = 0
    #: Row promotions (migrations) during the measurement window.
    promotions: int = 0
    #: Demand DRAM accesses (reads + writes).
    dram_accesses: int = 0
    #: Translation-table DRAM fetches.
    table_fetches: int = 0
    footprint_bytes: int = 0
    #: Fractions of accesses served by row buffer / fast / slow arrays.
    access_locations: Dict[str, float] = field(default_factory=dict)
    mean_read_latency_ns: float = 0.0
    #: Approximate read-latency percentiles in ns (p50/p95/p99).
    read_latency_percentiles_ns: Dict[str, float] = field(
        default_factory=dict)
    translation_cache_hit_rate: float = 0.0
    #: Dynamic energy breakdown in nJ (activate/column/migration).
    energy_nj: Dict[str, float] = field(default_factory=dict)
    #: Design-specific extras (e.g. inclusive clean-fill counts,
    #: dropped-promotion counts).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Full nested statistics tree (the plain dictionary that
    #: ``repro.obs.build_stats_tree`` composes from every component's
    #: ``stats_group()``), recalled from the cache like every other
    #: field.  Render it with :func:`repro.obs.render_stats`.
    stats: Dict[str, object] = field(default_factory=dict)
    #: Phase-resolved timeline: windowed counter deltas sampled every
    #: ``interval_refs`` retired references over the measurement window
    #: (see :mod:`repro.obs.timeline`).  Render with
    #: :func:`repro.obs.render_timeline`.
    timeline: Dict[str, object] = field(default_factory=dict)

    @property
    def total_time_ns(self) -> float:
        """Longest per-core time (makespan of the run)."""
        return max(self.time_ns) if self.time_ns else 0.0

    @property
    def mpki(self) -> float:
        """LLC misses per kilo-instruction."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.llc_misses / self.instructions

    @property
    def ppkm(self) -> float:
        """Promotions per kilo-(LLC)-misses (Figure 7b/7e)."""
        if self.llc_misses == 0:
            return 0.0
        return 1000.0 * self.promotions / self.llc_misses

    @property
    def promotions_per_access(self) -> float:
        """Row promotions per demand memory access (Figure 8c)."""
        if self.dram_accesses == 0:
            return 0.0
        return self.promotions / self.dram_accesses

    @property
    def dynamic_energy_nj(self) -> float:
        """Total dynamic energy of the run, in nJ."""
        return sum(self.energy_nj.values())

    def speedup_over(self, baseline: "RunMetrics") -> float:
        """Weighted speedup versus a baseline run of the same workload.

        For one core this is plain execution-time speedup; for mixes it is
        the arithmetic mean of per-core speedups (each program pinned to
        its core, matching the paper's per-program sampling).
        """
        if len(self.time_ns) != len(baseline.time_ns):
            raise ValueError("core counts differ between runs")
        if any(t <= 0 for t in self.time_ns):
            raise ValueError("run has non-positive core time")
        # Summed left to right in an explicit loop: from Python 3.12 on,
        # sum() of floats is compensated, so tables would depend on the
        # interpreter version.
        total = 0.0
        for base, time in zip(baseline.time_ns, self.time_ns):
            total += base / time
        return total / len(self.time_ns)

    def improvement_percent(self, baseline: "RunMetrics") -> float:
        """Performance improvement over the baseline, in percent."""
        return (self.speedup_over(baseline) - 1.0) * 100.0

    def to_dict(self) -> Dict[str, object]:
        """Serialise for the on-disk result cache.

        Every field holds JSON types only, so this is one field dict,
        not a deep copy: its nested lists and dicts (``time_ns``,
        ``stats``, ``timeline``, ...) are the metrics' own, and a caller
        must serialise or copy them before mutating either side.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunMetrics":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)  # type: ignore[arg-type]
