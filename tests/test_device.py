"""Tests for DRAM device assembly."""

import pytest

from repro.dram.device import DRAMDevice
from repro.dram.timing import FAST, SLOW, ddr3_1600_fast, ddr3_1600_slow


@pytest.fixture
def device(tiny_geometry):
    return DRAMDevice(
        tiny_geometry,
        {SLOW: ddr3_1600_slow(), FAST: ddr3_1600_fast()},
    )


class TestAssembly:
    def test_bank_count(self, device, tiny_geometry):
        assert len(device.banks) == tiny_geometry.total_banks

    def test_channel_count(self, device, tiny_geometry):
        assert len(device.channels) == tiny_geometry.channels

    def test_banks_of_same_rank_share_rank_object(self, device,
                                                  tiny_geometry):
        per_rank = tiny_geometry.banks_per_rank
        assert device.banks[0].rank is device.banks[per_rank - 1].rank

    def test_banks_of_same_channel_share_channel(self, device,
                                                 tiny_geometry):
        assert device.banks[0].channel is device.banks[1].channel


class TestClassifiers:
    def test_homogeneous_slow(self, tiny_geometry):
        device = DRAMDevice(tiny_geometry, {SLOW: ddr3_1600_slow()})
        assert device.banks[0].schedule(7, False, 0.0).subarray_class == SLOW

    def test_homogeneous_fast(self, tiny_geometry):
        device = DRAMDevice(
            tiny_geometry,
            {SLOW: ddr3_1600_slow(), FAST: ddr3_1600_fast()},
            tiny_geometry.rows_per_bank)
        assert device.banks[0].schedule(7, False, 0.0).subarray_class == FAST

    def test_every_bank_splits_at_the_first_slow_row(self, tiny_geometry):
        device = DRAMDevice(
            tiny_geometry,
            {SLOW: ddr3_1600_slow(), FAST: ddr3_1600_fast()}, 8)
        for bank in device.banks:
            assert bank.schedule(7, False, 0.0).subarray_class == FAST
            assert bank.schedule(8, False, 0.0).subarray_class == SLOW

    def test_fast_rows_need_the_fast_class(self, tiny_geometry):
        with pytest.raises(ValueError):
            DRAMDevice(tiny_geometry, {SLOW: ddr3_1600_slow()}, 8)
