"""Tests for the asymmetric-subarray organisation."""

import pytest

from repro.common.config import AsymmetricConfig, DRAMGeometry
from repro.core.organization import AsymmetricOrganization
from repro.dram.bank import Bank
from repro.dram.channel import Channel
from repro.dram.rank import Rank
from repro.dram.timing import FAST, SLOW, ddr3_1600_fast, ddr3_1600_slow


@pytest.fixture
def organization(tiny_geometry):
    return AsymmetricOrganization(
        tiny_geometry, AsymmetricConfig(migration_group_rows=16))


def row_class(organization, row):
    """The timing class a bank laid out by ``organization`` gives ``row``
    (the device puts each bank's first slow row at its fast-row count)."""
    timings = {SLOW: ddr3_1600_slow(), FAST: ddr3_1600_fast()}
    bank = Bank(timings, organization.fast_rows_per_bank,
                Rank(timings[SLOW]), Channel())
    return bank.schedule(row, False, 0.0).subarray_class


class TestGeometry:
    def test_groups_per_bank(self, organization, tiny_geometry):
        assert organization.groups_per_bank == (
            tiny_geometry.rows_per_bank // 16)

    def test_fast_per_group(self, organization):
        assert organization.fast_per_group == 2  # 16 rows * 1/8

    def test_fast_rows_per_bank(self, organization):
        assert organization.fast_rows_per_bank == (
            organization.fast_per_group * organization.groups_per_bank)

    def test_rejects_group_larger_than_bank(self, tiny_geometry):
        with pytest.raises(ValueError):
            AsymmetricOrganization(
                tiny_geometry,
                AsymmetricConfig(migration_group_rows=256))


class TestClassification:
    def test_fast_region_low_rows(self, organization):
        assert row_class(organization, 0) == FAST
        assert row_class(organization,
                         organization.fast_rows_per_bank - 1) == FAST

    def test_slow_region_high_rows(self, organization, tiny_geometry):
        assert row_class(organization,
                         organization.fast_rows_per_bank) == SLOW
        assert row_class(organization, tiny_geometry.rows_per_bank - 1) == SLOW


class TestSlotMapping:
    def test_fast_slots_map_to_fast_rows(self, organization):
        for group in range(organization.groups_per_bank):
            for slot in range(organization.fast_per_group):
                row = organization.physical_row(group, slot)
                assert row_class(organization, row) == FAST

    def test_slow_slots_map_to_slow_rows(self, organization):
        for group in range(organization.groups_per_bank):
            for slot in range(organization.fast_per_group,
                              organization.group_rows):
                row = organization.physical_row(group, slot)
                assert row_class(organization, row) == SLOW

    def test_mapping_is_injective(self, organization, tiny_geometry):
        rows = {
            organization.physical_row(group, slot)
            for group in range(organization.groups_per_bank)
            for slot in range(organization.group_rows)
        }
        assert len(rows) == tiny_geometry.rows_per_bank

    def test_rejects_out_of_range(self, organization):
        with pytest.raises(ValueError):
            organization.physical_row(organization.groups_per_bank, 0)
        with pytest.raises(ValueError):
            organization.physical_row(0, organization.group_rows)


class TestSubarrays:
    def test_fast_subarrays_precede_slow(self, organization):
        fast_rows = organization.fast_rows_per_bank
        fast_ids = {organization.subarray_of(row)
                    for row in range(fast_rows)}
        slow_ids = {organization.subarray_of(row)
                    for row in range(fast_rows, 128)}
        assert max(fast_ids) < min(slow_ids)

    def test_subarray_sizes(self, organization):
        assert (organization.subarray_of(0)
                == organization.subarray_of(
                    organization.FAST_SUBARRAY_ROWS - 1))


class TestTableRows:
    def test_table_rows_in_slow_region(self, organization, tiny_geometry):
        for bank_row in range(0, tiny_geometry.rows_per_bank, 7):
            table_row = organization.table_row_for(bank_row)
            assert row_class(organization, table_row) == SLOW

    def test_table_row_deterministic(self, organization):
        assert (organization.table_row_for(5)
                == organization.table_row_for(5))


class TestAreaOverhead:
    def test_paper_ballpark(self, tiny_geometry):
        organization = AsymmetricOrganization(
            DRAMGeometry(), AsymmetricConfig())
        overhead = organization.area_overhead_fraction()
        assert 0.05 < overhead < 0.08  # paper: 6.6%

    def test_quarter_ratio_costs_more(self):
        base = AsymmetricOrganization(DRAMGeometry(), AsymmetricConfig())
        quarter = AsymmetricOrganization(
            DRAMGeometry(), AsymmetricConfig(fast_ratio=0.25))
        assert (quarter.area_overhead_fraction()
                > base.area_overhead_fraction())
