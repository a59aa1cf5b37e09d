"""Factories for the five DRAM designs evaluated in the paper (Section 7).

1. **standard** — homogeneous commodity DRAM (the baseline).
2. **sas** — Static Asymmetric-Subarray DRAM: profiled oracle assignment,
   no migration.
3. **charm** — SAS plus optimised column access on the fast level.
4. **das** — Dynamic Asymmetric-Subarray DRAM (the paper's proposal).
5. **das_fm** — DAS with free (zero-latency) migration, isolating
   migration overhead.
6. **fs** — hypothetical all-fast-subarray DRAM (the upper bound).
7. **das_incl** — the inclusive-cache management alternative the paper
   discusses and rejects in Section 5 (repo extra, for the ablation).
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..common.config import DESIGNS, SystemConfig
from ..common.rng import make_rng
from ..common.units import Frequency
from ..controller.controller import ManagementPolicy, MemorySystem
from ..dram.device import DRAMDevice
from ..dram.timing import (
    FAST,
    SLOW,
    charm_fast,
    ddr3_1600_fast,
    ddr3_1600_slow,
)
from ..energy.model import EnergyMeter
from .inclusive import InclusiveManager
from .manager import DASManager, StaticAsymmetricManager
from .migration import MigrationEngine
from .organization import AsymmetricOrganization
from .promotion import make_promotion_policy
from .replacement import make_fast_replacement
from .translation import (
    LLCTranslationPartition,
    TranslationCache,
    TranslationTable,
)

__all__ = ["DESIGNS", "PROFILED_DESIGNS", "DESIGN_ORDER",
           "build_memory_system"]

#: Names of designs needing a profiling pass before the measured run.
PROFILED_DESIGNS = ("sas", "charm")

#: All design names in the paper's presentation order.
DESIGN_ORDER = ("sas", "charm", "das", "das_fm", "fs")


def _llc_latency_ns(config: SystemConfig) -> float:
    period = Frequency.from_ghz(config.core.frequency_ghz).period_ns
    return config.hierarchy.llc.latency_cycles * period


def build_memory_system(
    config: SystemConfig,
    row_heat: Optional[Mapping[int, int]] = None,
) -> MemorySystem:
    """Construct the memory system for a design variant.

    ``row_heat`` (global logical row -> access count) must be supplied for
    the profiled designs (sas / charm) and is ignored otherwise.  The
    unmanaged designs (standard / fs) get no manager, so the controller
    skips the translation and scheduling hooks.
    """
    design = config.design
    slow = ddr3_1600_slow()
    energy = EnergyMeter()

    if design == "standard":
        device = DRAMDevice(config.geometry, {SLOW: slow})
        return MemorySystem(device, config.controller, energy=energy)
    if design == "fs":
        device = DRAMDevice(config.geometry,
                            {SLOW: slow, FAST: ddr3_1600_fast()},
                            config.geometry.rows_per_bank)
        return MemorySystem(device, config.controller, energy=energy)

    organization = AsymmetricOrganization(config.geometry, config.asym)
    fast = charm_fast() if design == "charm" else ddr3_1600_fast()
    device = DRAMDevice(config.geometry, {SLOW: slow, FAST: fast},
                        organization.fast_rows_per_bank,
                        organization.subarray_of)

    if design in PROFILED_DESIGNS:
        if row_heat is None:
            raise ValueError(
                f"design {design!r} requires a profiling pass (row_heat)")
        manager: ManagementPolicy = StaticAsymmetricManager(
            organization, row_heat)
        return MemorySystem(device, config.controller, manager, energy)

    if design == "das_incl":
        manager = InclusiveManager(
            organization,
            make_fast_replacement(
                config.asym.replacement,
                make_rng(config.seed, "fast-replacement")),
            config.asym.migration_latency_ns,
        )
        return MemorySystem(device, config.controller, manager, energy)

    if design in ("das", "das_fm"):
        asym = config.asym
        table = TranslationTable(organization)
        translation_cache = TranslationCache(
            asym.translation_cache_bytes, asym.translation_entry_bytes)
        llc_partition = LLCTranslationPartition(
            config.hierarchy.llc.capacity_bytes,
            line_bytes=config.hierarchy.llc.line_bytes,
            entry_bytes=asym.translation_entry_bytes,
        )
        promotion = make_promotion_policy(asym.promotion_threshold,
                                          asym.promotion_counters)
        replacement = make_fast_replacement(
            asym.replacement, make_rng(config.seed, "fast-replacement"))
        if design == "das_fm":
            engine = MigrationEngine.free()
        else:
            engine = MigrationEngine(asym.migration_latency_ns)
        manager = DASManager(
            organization, table, translation_cache, llc_partition,
            promotion, replacement, engine, _llc_latency_ns(config))
        return MemorySystem(device, config.controller, manager, energy)

    raise ValueError(f"unknown design {design!r}")
