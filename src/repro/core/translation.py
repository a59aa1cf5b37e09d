"""Exclusive-cache address translation: table, cache, and LLC partition.

The translation table records, for every logical row, which group-local
slot currently holds it.  Within each migration group the mapping is a
permutation at all times (the exclusive-cache invariant).

Lookup path (paper Section 5.2/5.3):

1. **Translation cache** (in the memory controller) — holds entries for
   fast-level rows only; looked up concurrently with the LLC, so a hit
   adds zero latency.
2. **LLC partition** — part of the last-level cache holds translation
   lines; a hit costs one LLC access.
3. **Memory** — a DRAM read of the translation row in the same bank.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from .organization import AsymmetricOrganization


class TranslationTable:
    """Per-(bank, group) permutation of logical rows over group slots.

    Groups are materialised lazily with the identity permutation (logical
    local index *l* lives in slot *l*), which places the first
    ``fast_per_group`` logical rows of every group in fast slots at boot.

    Storage is a flat list indexed ``flat_bank * groups_per_bank + group``
    (one translation-table lookup per demand access — a tuple-keyed dict
    here costs a tuple allocation plus hashing on the hot path).
    """

    def __init__(self, organization: AsymmetricOrganization) -> None:
        self.organization = organization
        self._group_rows = organization.group_rows
        self._groups_per_bank = organization.groups_per_bank
        total_banks = organization.geometry.total_banks
        #: flat group index -> (slot_of_local, local_in_slot) arrays.
        self._groups: List[Optional[Tuple[array, array]]] = \
            [None] * (total_banks * self._groups_per_bank)
        self._identity = array("H", range(self._group_rows))
        self._materialized = 0

    def _group(self, flat_bank: int, group: int) -> Tuple[array, array]:
        index = flat_bank * self._groups_per_bank + group
        entry = self._groups[index]
        if entry is None:
            identity = self._identity
            entry = (array("H", identity), array("H", identity))
            self._groups[index] = entry
            self._materialized += 1
        return entry

    def slot_of(self, flat_bank: int, group: int, local: int) -> int:
        """Group-local slot currently holding logical local row ``local``.

        Materialises the group on first touch (``materialized_groups``
        counts groups ever looked up, mirroring the pre-flat-storage
        behaviour so cached stats trees stay identical).
        """
        index = flat_bank * self._groups_per_bank + group
        entry = self._groups[index]
        if entry is None:
            identity = self._identity
            entry = (array("H", identity), array("H", identity))
            self._groups[index] = entry
            self._materialized += 1
        return entry[0][local]

    def local_in_slot(self, flat_bank: int, group: int, slot: int) -> int:
        """Logical local row currently stored in ``slot``."""
        return self._group(flat_bank, group)[1][slot]

    def swap(self, flat_bank: int, group: int, local_a: int, local_b: int) -> None:
        """Exchange the slots of two logical rows (a promotion swap)."""
        slots, inverse = self._group(flat_bank, group)
        slot_a, slot_b = slots[local_a], slots[local_b]
        slots[local_a], slots[local_b] = slot_b, slot_a
        inverse[slot_a], inverse[slot_b] = local_b, local_a

    def materialized_groups(self) -> int:
        """Number of groups whose permutation arrays exist (inspection)."""
        return self._materialized


class TranslationCache:
    """LRU cache of fast-level translation entries (one per logical row).

    Capacity is ``capacity_bytes / entry_bytes`` entries.  Only rows
    currently resident in fast slots may have entries; the manager
    invalidates entries on demotion.
    """

    def __init__(self, capacity_bytes: int, entry_bytes: int = 1) -> None:
        if capacity_bytes < entry_bytes:
            raise ValueError("translation cache smaller than one entry")
        self.capacity_entries = capacity_bytes // entry_bytes
        self._entries: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, logical_row: int) -> Optional[int]:
        """Return the cached slot of a logical row, refreshing recency."""
        entries = self._entries
        slot = entries.get(logical_row)
        if slot is None:
            self.misses += 1
            return None
        self.hits += 1
        del entries[logical_row]
        entries[logical_row] = slot
        return slot

    def insert(self, logical_row: int, slot: int) -> None:
        """Insert/update an entry, evicting the least recent when full."""
        entries = self._entries
        if logical_row in entries:
            del entries[logical_row]
        elif len(entries) >= self.capacity_entries:
            del entries[next(iter(entries))]
        entries[logical_row] = slot

    def invalidate(self, logical_row: int) -> None:
        """Drop an entry (the row left the fast level)."""
        if self._entries.pop(logical_row, None) is not None:
            self.invalidations += 1

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hit fraction of all lookups (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats_group(self) -> Dict[str, int]:
        """This component's nested stats-tree group."""
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations}

    def reset_stats(self) -> None:
        """Zero the per-run statistics counters."""
        self.hits = 0
        self.misses = 0
        self.invalidations = 0


class LLCTranslationPartition:
    """Model of translation lines resident in the last-level cache.

    Each translation line covers ``entries_per_line`` consecutive logical
    rows.  The partition is LRU over line keys and bounded to a fraction of
    the LLC, modelling the paper's reuse of LLC capacity for the table.
    """

    def __init__(
        self,
        llc_capacity_bytes: int,
        line_bytes: int = 64,
        entry_bytes: int = 1,
        llc_fraction: float = 1.0 / 8.0,
    ) -> None:
        if not 0.0 < llc_fraction <= 1.0:
            raise ValueError("llc_fraction must lie in (0, 1]")
        self.entries_per_line = line_bytes // entry_bytes
        self.capacity_lines = max(
            1, int(llc_capacity_bytes * llc_fraction) // line_bytes)
        self._lines: Dict[int, None] = {}
        self.hits = 0
        self.misses = 0

    def line_key(self, logical_row: int) -> int:
        """Translation line covering a logical row."""
        return logical_row // self.entries_per_line

    def lookup(self, logical_row: int) -> bool:
        """True (and recency refreshed) when the covering line is resident."""
        key = logical_row // self.entries_per_line
        lines = self._lines
        if key in lines:
            self.hits += 1
            del lines[key]
            lines[key] = None
            return True
        self.misses += 1
        return False

    def insert(self, logical_row: int) -> None:
        """Bring the covering translation line into the LLC partition."""
        key = self.line_key(logical_row)
        lines = self._lines
        if key in lines:
            del lines[key]
        elif len(lines) >= self.capacity_lines:
            del lines[next(iter(lines))]
        lines[key] = None

    def stats_group(self) -> Dict[str, int]:
        """This component's nested stats-tree group."""
        return {"hits": self.hits, "misses": self.misses}

    def reset_stats(self) -> None:
        """Zero the per-run statistics counters."""
        self.hits = 0
        self.misses = 0
