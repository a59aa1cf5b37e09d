"""Central configuration dataclasses for the simulated system.

Every experiment is fully described by a :class:`SystemConfig`; two runs with
equal configs and equal workload seeds produce identical results.  The
defaults reproduce Table 1 of the paper at the repo's 1/32 scale (see
DESIGN.md "Scaling contract").
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Tuple

from .units import KiB, MiB, is_power_of_two

#: Canonical names of every buildable design variant.  The CLI's design
#: choices and :class:`SystemConfig` validation both derive from this
#: (re-exported as ``repro.core.variants.DESIGNS`` next to the design
#: factories).
DESIGNS: Tuple[str, ...] = (
    "standard", "sas", "charm", "das", "das_fm", "fs", "das_incl"
)


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core model parameters (Table 1: 3 GHz, 4-wide, 192 ROB)."""

    frequency_ghz: float = 3.0
    issue_width: int = 4
    rob_entries: int = 192

    def __post_init__(self) -> None:
        if self.issue_width <= 0:
            raise ValueError("issue_width must be positive")
        if self.rob_entries <= 0:
            raise ValueError("rob_entries must be positive")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    capacity_bytes: int
    associativity: int
    line_bytes: int = 64
    latency_cycles: int = 1

    def __post_init__(self) -> None:
        if self.capacity_bytes % (self.associativity * self.line_bytes) != 0:
            raise ValueError(
                "capacity must be a multiple of associativity * line size"
            )
        if not is_power_of_two(self.line_bytes):
            raise ValueError("line size must be a power of two")
        if self.num_sets < 1 or not is_power_of_two(self.num_sets):
            raise ValueError("number of sets must be a power of two")

    @property
    def num_sets(self) -> int:
        """Number of cache sets."""
        return self.capacity_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class HierarchyConfig:
    """Three-level cache hierarchy (Table 1, scaled — see DESIGN.md)."""

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * KiB, 8, latency_cycles=4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(128 * KiB, 8, latency_cycles=12)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(1 * MiB, 8, latency_cycles=20)
    )

    def __post_init__(self) -> None:
        line = self.l1.line_bytes
        if not (line == self.l2.line_bytes == self.llc.line_bytes):
            raise ValueError("all cache levels must share one line size")


@dataclass(frozen=True)
class DRAMGeometry:
    """Channel/rank/bank/row geometry of the memory system.

    Default is the paper's two-channel, two-ranks-per-channel DDR3 system at
    1/32 capacity scale: 2 ch x 2 ranks x 8 banks x 1024 rows x 8 KiB rows
    = 256 MiB (fast level at 1/8 = 32 MiB).
    """

    channels: int = 2
    ranks_per_channel: int = 2
    banks_per_rank: int = 8
    rows_per_bank: int = 1024
    row_bytes: int = 8192
    line_bytes: int = 64

    def __post_init__(self) -> None:
        for name in ("channels", "ranks_per_channel", "banks_per_rank",
                     "rows_per_bank", "row_bytes", "line_bytes"):
            value = getattr(self, name)
            if not is_power_of_two(value):
                raise ValueError(f"{name} must be a power of two, got {value}")
        if self.row_bytes % self.line_bytes != 0:
            raise ValueError("row size must be a multiple of the line size")

    @property
    def total_banks(self) -> int:
        """Banks across every channel and rank."""
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def total_rows(self) -> int:
        """DRAM rows across every bank."""
        return self.total_banks * self.rows_per_bank

    @property
    def capacity_bytes(self) -> int:
        """Total DRAM capacity in bytes."""
        return self.total_rows * self.row_bytes

    @property
    def lines_per_row(self) -> int:
        """Cache lines stored per DRAM row."""
        return self.row_bytes // self.line_bytes


@dataclass(frozen=True)
class ControllerConfig:
    """Memory controller parameters (Table 1: 32-entry queue, open page,
    FR-FCFS)."""

    queue_entries: int = 32
    page_policy: str = "open"
    scheduler: str = "frfcfs"
    write_queue_entries: int = 32
    write_drain_high: float = 0.75
    write_drain_low: float = 0.25
    #: Issue per-rank auto-refresh every tREFI (off by default: the
    #: paper's evaluation abstracts refresh, and enabling it shifts all
    #: designs equally; flip on for substrate studies).
    refresh_enabled: bool = False

    def __post_init__(self) -> None:
        if self.page_policy not in ("open", "closed"):
            raise ValueError(f"unknown page policy {self.page_policy!r}")
        if self.scheduler not in ("frfcfs", "fcfs"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if not 0.0 < self.write_drain_low < self.write_drain_high <= 1.0:
            raise ValueError("write drain watermarks must satisfy 0<low<high<=1")


@dataclass(frozen=True)
class AsymmetricConfig:
    """DAS-DRAM organisation and management parameters (Table 1, 'Asym.').

    ``fast_ratio`` is the fraction of total capacity built from fast
    subarrays (paper: 1/8).  ``migration_group_rows`` bounds remapping
    freedom so one translation entry fits in a byte (paper: 32 rows).
    ``migration_latency_ns`` is the full row-swap latency (paper: 146.25 ns =
    3 x tRC_slow).
    """

    fast_ratio: float = 1.0 / 8.0
    migration_group_rows: int = 32
    migration_latency_ns: float = 146.25
    promotion_threshold: int = 1
    promotion_counters: int = 1024
    replacement: str = "lru"
    #: 4 KiB at the repo's 1/32 scale == the paper's 128 KiB on 8 GB
    #: (one byte per fast-level row in both cases).
    translation_cache_bytes: int = 4 * KiB
    translation_entry_bytes: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.fast_ratio < 1.0:
            raise ValueError("fast_ratio must lie strictly between 0 and 1")
        if not is_power_of_two(self.migration_group_rows):
            raise ValueError("migration_group_rows must be a power of two")
        if self.promotion_threshold < 1:
            raise ValueError("promotion_threshold must be >= 1")
        if self.replacement not in ("lru", "random", "sequential", "counter"):
            raise ValueError(f"unknown replacement {self.replacement!r}")

    def fast_rows_per_group(self) -> int:
        """Number of fast-level row slots inside one migration group."""
        fast = int(round(self.migration_group_rows * self.fast_ratio))
        return max(1, fast)


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build one simulated system."""

    num_cores: int = 1
    core: CoreConfig = field(default_factory=CoreConfig)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    geometry: DRAMGeometry = field(default_factory=DRAMGeometry)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    asym: AsymmetricConfig = field(default_factory=AsymmetricConfig)
    #: Design variant name: standard | sas | charm | das | das_fm | fs
    #: | das_incl (the inclusive-cache alternative of Section 5).
    design: str = "standard"
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ValueError("num_cores must be positive")
        if self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}")

    def replace(self, **changes: object) -> "SystemConfig":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def to_json(self) -> str:
        """Serialise to canonical JSON (stable key order) for caching keys."""
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    def cache_key(self) -> str:
        """A short deterministic identifier for result caching."""
        import hashlib

        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]
