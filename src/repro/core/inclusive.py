"""Inclusive-cache management for asymmetric-subarray DRAM (Section 5).

The paper weighs two ways to manage the fast level and adopts the
*exclusive* scheme (no capacity loss).  This module implements the
alternative it rejects — the fast level as a hardware-managed
**inclusive cache** — so the trade-off can be measured:

* every logical row has a fixed *home* in a slow slot (addressable
  capacity shrinks by the fast fraction — the paper's main objection);
* fast slots hold **copies**; a promotion with a clean victim is a single
  row move (1.5 tRC) instead of a swap (3 tRC) — the scheme's advantage;
* a dirty victim must be written back to its home first, restoring the
  full swap cost.

The translation state is simpler too: only fast-level contents are
dynamic, so the whole table fits in the translation cache (lookups never
touch memory).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..controller.controller import ManagementPolicy, MemorySystem, Translation
from ..controller.request import Request
from ..dram.bank import BankOp
from ..dram.timing import SLOW
from .organization import AsymmetricOrganization
from .replacement import FastLevelReplacement


class InclusiveManager(ManagementPolicy):
    """Fast subarrays as an inclusive cache of the slow level."""

    def __init__(
        self,
        organization: AsymmetricOrganization,
        replacement: FastLevelReplacement,
        swap_latency_ns: float,
    ) -> None:
        self.organization = organization
        self.replacement = replacement
        self.swap_latency_ns = swap_latency_ns
        self._rows_per_bank = organization.geometry.rows_per_bank
        #: (flat_bank, group, fast_slot) -> cached logical local row.
        self._cached: Dict[Tuple[int, int, int], int] = {}
        #: Inverse view: (flat_bank, group, local) -> fast slot.
        self._slot_of_local: Dict[Tuple[int, int, int], int] = {}
        #: Dirty copies, keyed like ``_cached``.
        self._dirty: Set[Tuple[int, int, int]] = set()
        # Statistics.
        self.promotions = 0
        self.clean_fills = 0
        self.dirty_swaps = 0
        self.fast_level_accesses = 0
        self.slow_level_accesses = 0

    # ------------------------------------------------------------------
    # Capacity accounting (the scheme's cost)
    # ------------------------------------------------------------------

    def addressable_fraction(self) -> float:
        """Fraction of raw capacity that stays addressable.

        Fast slots duplicate data, so an inclusive scheme loses the fast
        fraction of total capacity (paper: at least 1/8).
        """
        org = self.organization
        return org.slow_per_group / org.group_rows

    # ------------------------------------------------------------------
    # ManagementPolicy interface
    # ------------------------------------------------------------------

    def translate(self, logical_row: int, flat_bank: int, row: int,
                  is_write: bool, now: float) -> Translation:
        """Map a logical row to its current physical location."""
        org = self.organization
        group = row // org.group_rows
        local = row % org.group_rows
        # The logical row's home is a slow slot; fold locals that would
        # name fast slots onto the slow range (capacity loss made real).
        home_local = org.fast_per_group + (local % org.slow_per_group)
        slot = self._slot_of_local.get((flat_bank, group, home_local))
        if slot is not None:
            # Served from the fast copy; the whole (small) table lives in
            # the translation cache, so no added latency.
            self.replacement.touch(flat_bank, group, slot)
            if is_write:
                self._dirty.add((flat_bank, group, slot))
            return Translation(org.physical_row(group, slot))
        return Translation(org.physical_row(group, home_local))

    def on_scheduled(self, request: Request, op: BankOp,
                     controller: MemorySystem) -> None:
        """Observe one scheduled DRAM access; may start a promotion."""
        if op.subarray_class != SLOW:
            self.fast_level_accesses += 1
            return
        self.slow_level_accesses += 1
        self._fill(request, controller)

    # ------------------------------------------------------------------
    # Fills
    # ------------------------------------------------------------------

    def _fill(self, request: Request, controller: MemorySystem) -> None:
        org = self.organization
        flat_bank = request.flat_bank
        bank_row = request.logical_row % self._rows_per_bank
        group = bank_row // org.group_rows
        local = bank_row % org.group_rows
        home_local = org.fast_per_group + (local % org.slow_per_group)
        victim_slot = self.replacement.victim(flat_bank, group,
                                              org.fast_per_group)
        key = (flat_bank, group, victim_slot)
        victim_local = self._cached.get(key)
        dirty_victim = key in self._dirty
        # Price the operation: clean victim -> one 1.5-tRC move;
        # dirty victim -> writeback first, a full 3-tRC swap equivalent.
        if dirty_victim:
            duration = self.swap_latency_ns
            self.dirty_swaps += 1
        else:
            duration = self.swap_latency_ns / 2.0
            self.clean_fills += 1
        self.promotions += 1
        if victim_local is not None:
            self._slot_of_local.pop((flat_bank, group, victim_local), None)
        self._dirty.discard(key)
        self._cached[key] = home_local
        self._slot_of_local[(flat_bank, group, home_local)] = victim_slot
        if duration > 0.0:
            source = org.subarray_of(org.physical_row(group, home_local))
            dest = org.subarray_of(org.physical_row(group, 0))
            completion = request.completion_ns or request.arrival_ns
            controller.queue_migration(
                flat_bank, completion, duration,
                frozenset((source, dest)))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats_group(self) -> Dict[str, object]:
        """This component's nested stats-tree group."""
        return {
            "promotions": self.promotions,
            "clean_fills": self.clean_fills,
            "dirty_swaps": self.dirty_swaps,
            "fast_level_accesses": self.fast_level_accesses,
            "slow_level_accesses": self.slow_level_accesses,
            "addressable_fraction": self.addressable_fraction(),
        }

    def reset_stats(self) -> None:
        """Zero the per-run statistics counters."""
        self.promotions = 0
        self.clean_fills = 0
        self.dirty_swaps = 0
        self.fast_level_accesses = 0
        self.slow_level_accesses = 0
