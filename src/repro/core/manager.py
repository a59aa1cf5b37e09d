"""Management mechanisms for asymmetric-subarray DRAM (paper Section 5).

:class:`DASManager` is the paper's hardware exclusive-cache management:
every memory request is translated through the translation table (cached
in the translation cache and the LLC partition), and every demand access
served by the slow level may trigger a row-promotion swap, subject to the
filtering policy.  The entire mechanism lives in the memory controller and
is transparent to software.

:class:`StaticAsymmetricManager` models SAS-DRAM and CHARM: an oracle
profile pre-assigns the hottest rows of each migration group to the fast
slots before the run; the mapping never changes, so no translation
machinery is exercised at run time.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..controller.controller import ManagementPolicy, MemorySystem, Translation
from ..obs.tracer import MIGRATION_TID, TRANSLATION_TID
from ..controller.request import Request
from ..dram.bank import BankOp
from ..dram.timing import SLOW
from .migration import MigrationEngine
from .organization import AsymmetricOrganization
from .promotion import PromotionPolicy
from .replacement import FastLevelReplacement
from .translation import (
    LLCTranslationPartition,
    TranslationCache,
    TranslationTable,
)


class DASManager(ManagementPolicy):
    """Dynamic asymmetric-subarray management (the paper's contribution)."""

    def __init__(
        self,
        organization: AsymmetricOrganization,
        table: TranslationTable,
        translation_cache: TranslationCache,
        llc_partition: LLCTranslationPartition,
        promotion: PromotionPolicy,
        replacement: FastLevelReplacement,
        engine: MigrationEngine,
        llc_latency_ns: float,
    ) -> None:
        self.organization = organization
        self.table = table
        self.translation_cache = translation_cache
        self.llc_partition = llc_partition
        self.promotion = promotion
        self.replacement = replacement
        self.engine = engine
        self.llc_latency_ns = llc_latency_ns
        self._rows_per_bank = organization.geometry.rows_per_bank
        # Hot-path bindings of the (immutable) group geometry: translate()
        # runs once per demand access and inlines physical_row()'s
        # arithmetic against these instead of chasing organization
        # attributes and re-validating ranges per call.
        self._group_rows = organization.group_rows
        self._fast_per_group = organization.fast_per_group
        self._slow_per_group = organization.slow_per_group
        self._fast_rows_per_bank = organization.fast_rows_per_bank
        #: Logical rows whose promotion swap is queued but not yet
        #: physically executed (guards against re-triggering).
        self._inflight_promotions: set = set()
        #: Accesses served from the slow and the fast level.
        self.slow_level_accesses = 0
        self.fast_level_accesses = 0
        #: Translation-table fetches issued to DRAM.
        self.table_fetches = 0
        #: Optional event tracer (attached by repro.sim.system.simulate).
        self.tracer = None

    # ------------------------------------------------------------------
    # ManagementPolicy interface
    # ------------------------------------------------------------------

    def translate(self, logical_row: int, flat_bank: int, row: int,
                  is_write: bool, now: float) -> Translation:
        """Map a logical row to its current physical location."""
        group_rows = self._group_rows
        group = row // group_rows
        local = row - group * group_rows
        slot = self.table.slot_of(flat_bank, group, local)
        fast_per_group = self._fast_per_group
        is_fast = slot < fast_per_group
        if is_fast:
            # physical_row(group, slot) for a fast slot.
            physical = group * fast_per_group + slot
            self.replacement.touch(flat_bank, group, slot)
        else:
            physical = (self._fast_rows_per_bank
                        + group * self._slow_per_group
                        + slot - fast_per_group)
        cached = self.translation_cache.lookup(logical_row)
        if cached is not None:
            # Concurrent with the LLC lookup: zero added latency.
            return Translation(physical)
        if self.llc_partition.lookup(logical_row):
            if is_fast:
                self.translation_cache.insert(logical_row, slot)
            return Translation(physical, delay_ns=self.llc_latency_ns)
        # Miss everywhere: fetch the translation line from DRAM.  The LLC
        # was checked on the way (one LLC latency) and the fetched line is
        # installed in both structures.
        self.table_fetches += 1
        if self.tracer is not None:
            self.tracer.emit(now, "translation", "table_fetch",
                             tid=TRANSLATION_TID, row=logical_row,
                             bank=flat_bank)
        self.llc_partition.insert(logical_row)
        if is_fast:
            self.translation_cache.insert(logical_row, slot)
        return Translation(
            physical,
            delay_ns=self.llc_latency_ns,
            table_row=self.organization.table_row_for(row),
        )

    def on_scheduled(self, request: Request, op: BankOp,
                     controller: MemorySystem) -> None:
        """Observe one scheduled DRAM access; may start a promotion."""
        if op.subarray_class != SLOW:
            self.fast_level_accesses += 1
            return
        self.slow_level_accesses += 1
        logical_row = request.logical_row
        if logical_row in self._inflight_promotions:
            return
        group_rows = self._group_rows
        bank_row = logical_row % self._rows_per_bank
        group = bank_row // group_rows
        local = bank_row - group * group_rows
        if self.table.slot_of(request.flat_bank, group,
                              local) < self._fast_per_group:
            # Promoted between submit and schedule (stale physical row).
            return
        if not self.promotion.should_promote(logical_row):
            return
        self._promote(request, controller)

    # ------------------------------------------------------------------
    # Promotion
    # ------------------------------------------------------------------

    def _promote(self, request: Request, controller: MemorySystem) -> None:
        """Queue a promotion swap for the row the request just touched.

        The translation-table update is committed when the swap physically
        executes (the bank's next idle gap): until the rows move, the old
        mapping keeps serving, so the triggering burst continues hitting
        its open row buffer.
        """
        org = self.organization
        flat_bank = request.flat_bank
        logical_row = request.logical_row
        bank_row = logical_row % self._rows_per_bank
        group = bank_row // org.group_rows
        local = bank_row % org.group_rows
        self._inflight_promotions.add(logical_row)
        self.promotion.forget(logical_row)

        def commit() -> None:
            """Apply the swap bookkeeping once the engine finishes."""
            self._inflight_promotions.discard(logical_row)
            if self.table.slot_of(flat_bank, group, local) < org.fast_per_group:
                return  # Already fast (another path promoted it).
            victim_slot = self.replacement.victim(flat_bank, group,
                                                  org.fast_per_group)
            victim_local = self.table.local_in_slot(flat_bank, group,
                                                    victim_slot)
            self.table.swap(flat_bank, group, local, victim_local)
            bank_base = (flat_bank * self._rows_per_bank
                         + group * org.group_rows)
            self.translation_cache.invalidate(bank_base + victim_local)
            self.translation_cache.insert(logical_row, victim_slot)

        source_slot = self.table.slot_of(flat_bank, group, local)
        source_subarray = org.subarray_of(org.physical_row(group,
                                                           source_slot))
        dest_subarray = org.subarray_of(org.physical_row(group, 0))
        completion = request.completion_ns or request.arrival_ns
        accepted = self.engine.swap(
            controller, flat_bank, completion,
            frozenset((source_subarray, dest_subarray)), commit)
        if not accepted:
            # Bounded migration queue was full: the promotion is dropped
            # and a later access to the row may trigger it again.
            self._inflight_promotions.discard(logical_row)
        if self.tracer is not None:
            self.tracer.emit(
                completion, "migration",
                "promotion" if accepted else "promotion_dropped",
                dur_ns=self.engine.swap_latency_ns if accepted else 0.0,
                tid=MIGRATION_TID, bank=flat_bank, row=logical_row)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def promotions(self) -> int:
        """Completed promotions so far."""
        return self.engine.promotions

    def stats_group(self) -> Dict[str, object]:
        """The manager's statistics tree, with the translation cache, LLC
        partition, migration engine and promotion policy subtrees."""
        return {
            "slow_level_accesses": self.slow_level_accesses,
            "fast_level_accesses": self.fast_level_accesses,
            "table_fetches": self.table_fetches,
            "translation_cache_hit_rate": self.translation_cache.hit_rate,
            "inflight_promotions": float(len(self._inflight_promotions)),
            "translation": {
                "materialized_groups":
                    float(self.table.materialized_groups()),
                "translation_cache": self.translation_cache.stats_group(),
                "llc_partition": self.llc_partition.stats_group(),
            },
            "migration": self.engine.stats_group(),
            "promotion": self.promotion.stats_group(),
        }

    def reset_stats(self) -> None:
        """Zero the per-run statistics counters of the manager and of
        every component it drives."""
        self.slow_level_accesses = 0
        self.fast_level_accesses = 0
        self.table_fetches = 0
        self.translation_cache.reset_stats()
        self.llc_partition.reset_stats()
        self.engine.reset_stats()
        self.promotion.reset_stats()


class StaticAsymmetricManager(ManagementPolicy):
    """SAS-DRAM / CHARM: profile-driven static assignment, no migration.

    ``row_heat`` maps global logical rows to access counts gathered by a
    profiling pass; within each migration group the hottest rows are
    assigned to the group's fast slots.  (The paper notes such oracle
    profiling "is not possible" in practice — it is the comparison point.)
    """

    def __init__(
        self,
        organization: AsymmetricOrganization,
        row_heat: Optional[Mapping[int, int]] = None,
    ) -> None:
        self.organization = organization
        self._rows_per_bank = organization.geometry.rows_per_bank
        self.table = TranslationTable(organization)
        if row_heat:
            self._assign(row_heat)
        #: Accesses served from the slow and the fast level.
        self.slow_level_accesses = 0
        self.fast_level_accesses = 0

    def _assign(self, row_heat: Mapping[int, int]) -> None:
        org = self.organization
        per_group: Dict[tuple, Dict[int, int]] = {}
        for logical_row, count in row_heat.items():
            flat_bank = logical_row // self._rows_per_bank
            bank_row = logical_row % self._rows_per_bank
            key = (flat_bank, bank_row // org.group_rows)
            per_group.setdefault(key, {})[bank_row % org.group_rows] = count
        for (flat_bank, group), heat in per_group.items():
            ranked = sorted(heat, key=lambda local: heat[local], reverse=True)
            hottest = ranked[: org.fast_per_group]
            for target_slot, local in enumerate(hottest):
                current = self.table.slot_of(flat_bank, group, local)
                if current == target_slot:
                    continue
                displaced = self.table.local_in_slot(flat_bank, group,
                                                     target_slot)
                self.table.swap(flat_bank, group, local, displaced)

    def translate(self, logical_row: int, flat_bank: int, row: int,
                  is_write: bool, now: float) -> Translation:
        """Map a logical row to its current physical location."""
        org = self.organization
        group_rows = org.group_rows
        group = row // group_rows
        local = row - group * group_rows
        slot = self.table.slot_of(flat_bank, group, local)
        fast_per_group = org.fast_per_group
        if slot < fast_per_group:
            physical = group * fast_per_group + slot
        else:
            physical = (org.fast_rows_per_bank
                        + group * org.slow_per_group
                        + slot - fast_per_group)
        return Translation(physical)

    def on_scheduled(self, request: Request, op: BankOp,
                     controller: MemorySystem) -> None:
        """Observe one scheduled DRAM access; may start a promotion."""
        if op.subarray_class == SLOW:
            self.slow_level_accesses += 1
        else:
            self.fast_level_accesses += 1

    @property
    def promotions(self) -> int:
        """Completed promotions so far."""
        return 0

    def stats_group(self) -> Dict[str, object]:
        """This component's nested stats-tree group."""
        return {
            "slow_level_accesses": self.slow_level_accesses,
            "fast_level_accesses": self.fast_level_accesses,
            "materialized_groups": float(self.table.materialized_groups()),
        }

    def reset_stats(self) -> None:
        """Zero the per-run statistics counters."""
        self.slow_level_accesses = 0
        self.fast_level_accesses = 0
