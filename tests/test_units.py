"""Unit tests for repro.common.units."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.units import (
    Frequency,
    GiB,
    KiB,
    MiB,
    format_bytes,
    is_power_of_two,
    log2_exact,
)


class TestFrequency:
    def test_from_ghz_period(self):
        assert Frequency.from_ghz(1.0).period_ns == pytest.approx(1.0)

    def test_3ghz_cycle_is_third_of_ns(self):
        assert Frequency.from_ghz(3.0).period_ns == pytest.approx(1 / 3)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Frequency(0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Frequency(-1e9)


class TestPowersOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 64, 4096, 1 << 30])
    def test_accepts_powers(self, value):
        assert is_power_of_two(value)

    @pytest.mark.parametrize("value", [0, -2, 3, 6, 100, (1 << 30) + 1])
    def test_rejects_non_powers(self, value):
        assert not is_power_of_two(value)

    @pytest.mark.parametrize("value,expected", [(1, 0), (2, 1), (64, 6),
                                                (4096, 12)])
    def test_log2_exact(self, value, expected):
        assert log2_exact(value) == expected

    def test_log2_exact_rejects_non_power(self):
        with pytest.raises(ValueError):
            log2_exact(100)

    @given(st.integers(min_value=0, max_value=60))
    def test_log2_inverts_shift(self, exponent):
        assert log2_exact(1 << exponent) == exponent


class TestConstants:
    def test_unit_ratios(self):
        assert MiB == 1024 * KiB
        assert GiB == 1024 * MiB


class TestFormatBytes:
    @pytest.mark.parametrize("value,expected", [
        (0, "0 B"),
        (512, "512 B"),
        (KiB, "1.0 KiB"),
        (4 * MiB, "4.0 MiB"),
        (3 * GiB, "3.0 GiB"),
    ])
    def test_formatting(self, value, expected):
        assert format_bytes(value) == expected
