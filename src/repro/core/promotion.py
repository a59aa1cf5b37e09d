"""Row-promotion filtering policies (paper Section 5.3 / Figure 8).

The first policy promotes on every slow-level access (threshold 1, the
configuration the paper finally adopts).  The second counts accesses per
row in a bounded table of hardware counters (1024 in the paper) and
promotes only once a row's count reaches the threshold.
"""

from __future__ import annotations

from typing import Dict


class PromotionPolicy:
    """Interface: decide whether a slow-level access triggers promotion."""

    def should_promote(self, logical_row: int) -> bool:
        """Decide whether this access promotes its row."""
        raise NotImplementedError

    def forget(self, logical_row: int) -> None:
        """Drop state for a row (called after it is promoted)."""

    def stats_group(self) -> Dict[str, int]:
        """This component's nested stats-tree group (no counters here)."""
        return {}

    def reset_stats(self) -> None:
        """Zero statistics at the warmup boundary."""


class AlwaysPromote(PromotionPolicy):
    """Threshold-1 policy: every slow-level hit triggers a promotion.

    Keeps no per-decision counters: the manager's slow-level access count
    equals its decision count, so counting here would only duplicate it.
    """

    name = "always"

    def should_promote(self, logical_row: int) -> bool:
        """Decide whether this access promotes its row."""
        return True


class ThresholdFilter(PromotionPolicy):
    """Promote after ``threshold`` accesses, tracked in a bounded LRU
    counter table (the paper's set of 1024 hardware counters)."""

    name = "threshold"

    def __init__(self, threshold: int, num_counters: int = 1024) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if num_counters < 1:
            raise ValueError("need at least one counter")
        self.threshold = threshold
        self.num_counters = num_counters
        self._counts: Dict[int, int] = {}
        self.triggered = 0
        self.filtered = 0
        self.counter_evictions = 0

    def should_promote(self, logical_row: int) -> bool:
        """Decide whether this access promotes its row."""
        if self.threshold == 1:
            self.triggered += 1
            return True
        counts = self._counts
        count = counts.pop(logical_row, 0) + 1
        if count >= self.threshold:
            # Promotion resets the counter (the row leaves the slow level).
            self.triggered += 1
            return True
        if len(counts) >= self.num_counters:
            # Evict the least recently touched row's counter.
            del counts[next(iter(counts))]
            self.counter_evictions += 1
        counts[logical_row] = count
        self.filtered += 1
        return False

    def forget(self, logical_row: int) -> None:
        """Drop tracked filter state for one row."""
        self._counts.pop(logical_row, None)

    def stats_group(self) -> Dict[str, int]:
        """This component's nested stats-tree group."""
        return {"triggered": self.triggered, "filtered": self.filtered,
                "counter_evictions": self.counter_evictions}

    def reset_stats(self) -> None:
        """Zero statistics at the warmup boundary."""
        self.triggered = 0
        self.filtered = 0
        self.counter_evictions = 0


def make_promotion_policy(threshold: int, num_counters: int = 1024) -> PromotionPolicy:
    """Factory: threshold 1 is the unfiltered policy, otherwise a filter."""
    if threshold == 1:
        return AlwaysPromote()
    return ThresholdFilter(threshold, num_counters)
