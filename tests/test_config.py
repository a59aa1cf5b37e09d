"""Unit tests for repro.common.config."""

import pytest

from repro.common.config import (
    AsymmetricConfig,
    CacheConfig,
    ControllerConfig,
    CoreConfig,
    DRAMGeometry,
    HierarchyConfig,
    SystemConfig,
)
from repro.common.units import KiB, MiB


class TestCoreConfig:
    def test_defaults_match_table1(self):
        core = CoreConfig()
        assert core.frequency_ghz == 3.0
        assert core.issue_width == 4
        assert core.rob_entries == 192

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            CoreConfig(issue_width=0)


class TestCacheConfig:
    def test_num_sets(self):
        config = CacheConfig(32 * KiB, 8, line_bytes=64)
        assert config.num_sets == 64

    def test_rejects_misaligned_capacity(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 2, line_bytes=64)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            CacheConfig(3 * 64 * 2, 2, line_bytes=64)


class TestHierarchyConfig:
    def test_line_size_must_match(self):
        with pytest.raises(ValueError):
            HierarchyConfig(
                l1=CacheConfig(1024, 2, line_bytes=32),
                l2=CacheConfig(4096, 4, line_bytes=64),
                llc=CacheConfig(16384, 8, line_bytes=64),
            )


class TestDRAMGeometry:
    def test_default_capacity_is_256_mib(self):
        assert DRAMGeometry().capacity_bytes == 256 * MiB

    def test_total_banks(self):
        assert DRAMGeometry().total_banks == 32

    def test_lines_per_row(self):
        assert DRAMGeometry().lines_per_row == 128

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            DRAMGeometry(channels=3)

    def test_row_must_hold_lines(self):
        with pytest.raises(ValueError):
            DRAMGeometry(row_bytes=32, line_bytes=64)


class TestControllerConfig:
    def test_defaults_match_table1(self):
        config = ControllerConfig()
        assert config.queue_entries == 32
        assert config.page_policy == "open"
        assert config.scheduler == "frfcfs"

    def test_rejects_unknown_policy(self):
        # Page policies are open and closed; the idle-timeout one is gone.
        for policy in ("sideways", "timeout"):
            with pytest.raises(ValueError, match="unknown page policy"):
                ControllerConfig(page_policy=policy)

    def test_rejects_bad_watermarks(self):
        with pytest.raises(ValueError):
            ControllerConfig(write_drain_low=0.9, write_drain_high=0.5)


class TestAsymmetricConfig:
    def test_defaults_match_table1(self):
        asym = AsymmetricConfig()
        assert asym.fast_ratio == pytest.approx(1 / 8)
        assert asym.migration_group_rows == 32
        assert asym.migration_latency_ns == pytest.approx(146.25)

    def test_fast_rows_per_group(self):
        assert AsymmetricConfig().fast_rows_per_group() == 4

    def test_fast_rows_per_group_minimum_one(self):
        asym = AsymmetricConfig(fast_ratio=1 / 64,
                                migration_group_rows=32)
        assert asym.fast_rows_per_group() == 1

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            AsymmetricConfig(fast_ratio=1.5)

    def test_rejects_unknown_replacement(self):
        with pytest.raises(ValueError):
            AsymmetricConfig(replacement="clock")

    def test_rejects_threshold_zero(self):
        with pytest.raises(ValueError):
            AsymmetricConfig(promotion_threshold=0)


class TestSystemConfig:
    def test_rejects_unknown_design(self):
        with pytest.raises(ValueError):
            SystemConfig(design="warp")

    def test_replace_changes_field(self):
        config = SystemConfig()
        changed = config.replace(design="fs")
        assert changed.design == "fs"
        assert config.design == "standard"

    def test_cache_key_stable(self):
        assert SystemConfig().cache_key() == SystemConfig().cache_key()

    def test_cache_key_sensitive_to_changes(self):
        a = SystemConfig()
        b = SystemConfig(design="das")
        assert a.cache_key() != b.cache_key()

    def test_to_json_roundtrip_stability(self):
        config = SystemConfig()
        assert config.to_json() == config.to_json()
