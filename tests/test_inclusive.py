"""Tests for the inclusive-cache management alternative."""

import pytest

from repro.common.config import AsymmetricConfig, ControllerConfig
from repro.common.rng import make_rng
from repro.controller.controller import MemorySystem
from repro.core.inclusive import InclusiveManager
from repro.core.organization import AsymmetricOrganization
from repro.core.replacement import make_fast_replacement
from repro.dram.device import DRAMDevice
from repro.dram.timing import FAST, SLOW, ddr3_1600_fast, ddr3_1600_slow


@pytest.fixture
def organization(tiny_geometry):
    return AsymmetricOrganization(
        tiny_geometry, AsymmetricConfig(migration_group_rows=16))


@pytest.fixture
def system(tiny_geometry, organization):
    device = DRAMDevice(
        tiny_geometry,
        {SLOW: ddr3_1600_slow(), FAST: ddr3_1600_fast()},
        organization.fast_rows_per_bank, organization.subarray_of)
    manager = InclusiveManager(
        organization,
        make_fast_replacement("lru", make_rng(1, "fr")),
        swap_latency_ns=146.25)
    return MemorySystem(device, ControllerConfig(), manager)


class TestAddressing:
    def test_addressable_fraction(self, system):
        manager = system.manager
        # 2 of 16 slots per group are cache slots.
        assert manager.addressable_fraction() == pytest.approx(14 / 16)

    def test_all_homes_are_slow_slots(self, system, organization):
        manager = system.manager
        for row in range(0, 64):
            translation = manager.translate(row, 0, row, False, 0.0)
            assert (translation.physical_row
                    >= organization.fast_rows_per_bank)

    def test_translation_is_free(self, system):
        translation = system.manager.translate(10, 0, 10, False, 0.0)
        assert translation.delay_ns == 0.0
        assert translation.table_row is None


class TestFills:
    def test_slow_access_fills_fast_copy(self, system):
        request = system.submit(0.0, 0x0, False)
        system.resolve(request)
        assert system.manager.promotions == 1
        assert system.manager.clean_fills == 1

    def test_cached_row_served_fast(self, system, organization):
        first = system.submit(0.0, 0x0, False)
        system.resolve(first)
        # Let the fill window pass, then re-access: fast copy serves.
        again = system.submit(first.completion_ns + 10_000, 0x0, False)
        system.resolve(again)
        assert again.op.subarray_class == FAST

    def test_dirty_victim_costs_full_swap(self, system, organization):
        manager = system.manager
        fast_slots = organization.fast_per_group
        # Fill every fast slot of group 0 (bank 0) with written copies.
        group_rows = organization.group_rows
        filled = 0
        now = 0.0
        for address in range(0, 1 << 20, 2048):
            decoded = system.device.mapping.decode(address)
            flat = decoded.flat_bank(system.device.geometry)
            if flat != 0 or decoded.row // group_rows != 0:
                continue
            request = system.submit(now, address, True)
            system.resolve(request)
            now = request.completion_ns + 10_000
            # Write again so the cached copy is dirty.
            again = system.submit(now, address, True)
            system.resolve(again)
            now = again.completion_ns + 10_000
            filled += 1
            if filled > fast_slots + 2:
                break
        assert manager.dirty_swaps > 0

    def test_promotion_count_matches_fills(self, system):
        for i in range(5):
            request = system.submit(i * 50_000.0, i * 2048 * 7, False)
            system.resolve(request)
        manager = system.manager
        assert manager.promotions == (manager.clean_fills
                                      + manager.dirty_swaps)

    def test_reset_stats(self, system):
        request = system.submit(0.0, 0x0, False)
        system.resolve(request)
        system.manager.reset_stats()
        assert system.manager.promotions == 0
        assert system.manager.clean_fills == 0


class TestVariantIntegration:
    def test_run_workload_accepts_das_incl(self):
        from repro import run_workload

        metrics = run_workload("libquantum", "das_incl",
                               references=4000, use_cache=False)
        assert metrics.design == "das_incl"
        assert metrics.promotions > 0
        assert "clean_fills" in metrics.extra
