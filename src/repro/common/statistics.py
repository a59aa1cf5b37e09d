"""Statistics helpers: a latency histogram and geometric means.

Components count in plain attributes and export their statistics as
plain dictionaries (``stats_group()``); :mod:`repro.obs.stats` composes
and renders them.
"""

from __future__ import annotations

import math
from typing import Sequence


class Histogram:
    """A fixed-bucket histogram over ``[0, bucket_width * num_buckets)``.

    Samples beyond the last bucket land in an overflow bucket.
    """

    def __init__(self, bucket_width: float, num_buckets: int) -> None:
        if bucket_width <= 0 or num_buckets <= 0:
            raise ValueError("bucket_width and num_buckets must be positive")
        self.bucket_width = bucket_width
        self.buckets = [0] * num_buckets
        self._num_buckets = num_buckets
        self.overflow = 0
        self.count = 0
        #: Largest sample observed; bounds percentiles that land in the
        #: overflow bucket (heavy-tailed latency distributions).
        self.max_sample = 0.0

    def add(self, sample: float) -> None:
        """Record one sample into its bucket (one call per DRAM access —
        no len()/attribute chasing beyond the bucket list itself)."""
        self.count += 1
        if sample > self.max_sample:
            self.max_sample = sample
        index = int(sample // self.bucket_width)
        if 0 <= index < self._num_buckets:
            self.buckets[index] += 1
        else:
            self.overflow += 1

    def percentile(self, fraction: float) -> float:
        """Approximate the ``fraction`` percentile (bucket upper edge).

        A target that falls in the overflow bucket is clamped to the
        largest observed sample, keeping tail percentiles finite.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if self.count == 0:
            return 0.0
        target = fraction * self.count
        seen = 0
        for index, bucket_count in enumerate(self.buckets):
            seen += bucket_count
            if seen >= target:
                return (index + 1) * self.bucket_width
        return self.max_sample

    def reset(self) -> None:
        """Drop all samples (geometry preserved)."""
        self.buckets = [0] * len(self.buckets)
        self.overflow = 0
        self.count = 0
        self.max_sample = 0.0


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values.

    Used for the paper's "gmean" bars.  Raises on empty or non-positive
    input because a silent fallback would corrupt reported speedups.
    """
    if not values:
        raise ValueError("geometric mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def gmean_improvement(improvements_percent: Sequence[float]) -> float:
    """Geometric-mean a list of percentage improvements.

    The paper reports gmean over *speedups*; we convert each improvement
    (e.g. 7.25 meaning +7.25%) to a speedup factor, gmean the factors, and
    convert back to a percentage.
    """
    factors = [1.0 + p / 100.0 for p in improvements_percent]
    return (geometric_mean(factors) - 1.0) * 100.0
