"""Unit tests for repro.common.statistics."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.statistics import Histogram, geometric_mean, gmean_improvement


class TestHistogram:
    def test_bucket_placement(self):
        h = Histogram(10.0, 4)
        h.add(5.0)
        h.add(15.0)
        h.add(35.0)
        assert h.buckets == [1, 1, 0, 1]

    def test_overflow(self):
        h = Histogram(10.0, 2)
        h.add(100.0)
        assert h.overflow == 1

    def test_percentile(self):
        h = Histogram(1.0, 10)
        for value in range(10):
            h.add(value + 0.5)
        assert h.percentile(0.5) == pytest.approx(5.0)

    def test_percentile_empty(self):
        assert Histogram(1.0, 4).percentile(0.9) == 0.0

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            Histogram(1.0, 4).percentile(1.5)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Histogram(0.0, 4)

    def test_overflow_percentile_is_finite(self):
        # A tail percentile landing in the overflow bucket must clamp to
        # the largest observed sample, not report infinity.
        h = Histogram(1.0, 4)
        h.add(0.5)
        h.add(1000.0)
        p99 = h.percentile(0.99)
        assert math.isfinite(p99)
        assert p99 == pytest.approx(1000.0)

    def test_tracks_max_sample(self):
        h = Histogram(1.0, 4)
        for value in (2.0, 7.5, 3.0):
            h.add(value)
        assert h.max_sample == 7.5

    @given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1),
           st.floats(min_value=0.0, max_value=1.0))
    def test_percentile_always_finite(self, samples, fraction):
        h = Histogram(5.0, 8)
        for sample in samples:
            h.add(sample)
        assert math.isfinite(h.percentile(fraction))

    def test_reset(self):
        h = Histogram(1.0, 4)
        h.add(2.5)
        h.add(99.0)
        h.reset()
        assert h.count == 0
        assert h.overflow == 0
        assert h.buckets == [0, 0, 0, 0]
        assert h.max_sample == 0.0


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1,
                    max_size=20))
    def test_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


class TestGmeanImprovement:
    def test_identity(self):
        assert gmean_improvement([0.0, 0.0]) == pytest.approx(0.0)

    def test_matches_speedup_gmean(self):
        # +100% and +0% -> gmean speedup sqrt(2) -> +41.4%
        assert gmean_improvement([100.0, 0.0]) == pytest.approx(
            (math.sqrt(2) - 1) * 100)

    def test_negative_improvements(self):
        assert gmean_improvement([-50.0]) == pytest.approx(-50.0)
