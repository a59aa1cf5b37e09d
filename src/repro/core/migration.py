"""The row-migration engine (paper Sections 4.2 and 5.1).

A promotion in the exclusive scheme swaps two rows through the migration
rows of the involved subarrays.  Figure 6 shows the four-step schedule:
steps 1-2 move the promotee and the victim into migration rows, steps 3-4
complete the two placements with their half-row movements in parallel.
Table 1 prices the complete swap at 146.25 ns (= 3 x tRC of the slow
subarray); a single one-way row move costs 1.5 x tRC (Section 4.2 — tRAS
can be tightened because the migration cell is read right back out).

The engine expresses a migration as a bank-occupying window: the bank is
precharged, blocked for the swap latency, then resumes.  A zero-latency
engine models the DAS-DRAM (FM) idealisation used to isolate migration
overhead in Figure 7a.
"""

from __future__ import annotations

import math
from typing import Dict

from ..controller.controller import MemorySystem


class MigrationEngine:
    """Applies migration timing to banks and counts promotions."""

    def __init__(self, swap_latency_ns: float) -> None:
        if swap_latency_ns < 0:
            raise ValueError("swap latency must be non-negative")
        self.swap_latency_ns = swap_latency_ns
        #: Completed promotions so far.
        self.promotions = 0
        #: Promotions dropped because the bank's migration queue was full.
        self.dropped = 0
        #: Timed migration windows, their summed length (the busy time,
        #: in ns) and their summed squared length.
        self._windows = 0
        self.busy_time_ns = 0.0
        self._busy_sq_ns = 0.0

    @classmethod
    def free(cls) -> "MigrationEngine":
        """Zero-cost migration (the DAS-DRAM (FM) idealisation)."""
        return cls(0.0)

    def swap(self, controller: MemorySystem, flat_bank: int,
             earliest_ns: float, subarrays=frozenset(), commit=None) -> bool:
        """Perform one promotion swap on a bank.

        The swap is deferred until the open burst ends, then runs as a
        window blocking only the involved ``subarrays`` — the triggering
        access, its row-buffer followers, and accesses to the bank's
        other subarrays are never stalled, which is what keeps the
        paper's migration overhead at a fraction of a percent.
        ``commit`` (no-arg callable) applies the logical table update when
        the rows start moving; with a free engine it runs immediately.
        Returns False when the bank's bounded migration queue dropped the
        swap (the row will re-trigger on a later access).
        """
        if self.swap_latency_ns > 0.0:
            accepted = controller.queue_migration(
                flat_bank, earliest_ns, self.swap_latency_ns, subarrays,
                commit)
            if not accepted:
                self.dropped += 1
                return False
            self.promotions += 1
            window = self.swap_latency_ns
            self._windows += 1
            self.busy_time_ns += window
            self._busy_sq_ns += window * window
            return True
        self.promotions += 1
        if commit is not None:
            commit()
        return True

    def stats_group(self) -> Dict[str, object]:
        """This component's nested stats-tree group.

        ``window_ns`` summarises the timed windows: every window lasts
        ``swap_latency_ns``, so that is their min and max.
        """
        count = self._windows
        mean = self.busy_time_ns / count if count else 0.0
        variance = self._busy_sq_ns / count - mean**2 if count else 0.0
        width = self.swap_latency_ns if count else 0.0
        return {
            "promotions": self.promotions,
            "dropped": self.dropped,
            "window_ns": {
                "count": count,
                "sum": self.busy_time_ns,
                "mean": mean,
                "min": width,
                "max": width,
                "stdev": math.sqrt(max(variance, 0.0)),
            },
            "busy_time_ns": self.busy_time_ns,
        }

    def reset_stats(self) -> None:
        """Zero the per-run statistics counters."""
        self.promotions = 0
        self.dropped = 0
        self._windows = 0
        self.busy_time_ns = 0.0
        self._busy_sq_ns = 0.0
