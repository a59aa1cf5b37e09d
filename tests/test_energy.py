"""Tests for the event-based energy model."""

import pytest

from repro.dram.bank import BankOp
from repro.dram.timing import FAST, SLOW
from repro.energy.model import EnergyMeter, EnergyParams


def op(activated=True, subarray_class=SLOW):
    return BankOp(
        first_command_ns=0.0, data_start_ns=10.0, data_end_ns=15.0,
        row_hit=not activated, row_conflict=False,
        activated=activated, precharged=False,
        subarray_class=subarray_class)


class TestEnergyMeter:
    def test_activation_energy_by_class(self):
        meter = EnergyMeter()
        meter.record_op(op(subarray_class=SLOW), is_write=False)
        meter.record_op(op(subarray_class=FAST), is_write=False)
        params = meter.params
        assert meter.activate_energy_nj == pytest.approx(
            params.activate_slow_nj + params.activate_fast_nj)

    def test_row_hit_skips_activation_energy(self):
        meter = EnergyMeter()
        meter.record_op(op(activated=False), is_write=False)
        assert meter.activate_energy_nj == 0.0

    def test_column_energy(self):
        meter = EnergyMeter()
        meter.record_op(op(), is_write=False)
        meter.record_op(op(), is_write=True)
        params = meter.params
        assert meter.column_energy_nj == pytest.approx(
            params.read_nj + params.write_nj)

    def test_migration_energy(self):
        meter = EnergyMeter()
        meter.record_migration()
        assert meter.migration_energy_nj == pytest.approx(
            meter.params.migration_swap_nj)

    def test_fast_activation_cheaper(self):
        params = EnergyParams()
        assert params.activate_fast_nj < params.activate_slow_nj

    def test_breakdown_keys(self):
        assert set(EnergyMeter().breakdown()) == {
            "activate_nj", "column_nj", "migration_nj"}

    def test_reset(self):
        meter = EnergyMeter()
        meter.record_op(op(), is_write=True)
        meter.record_migration()
        assert all(meter.breakdown().values())
        meter.reset()
        assert meter.breakdown() == {
            "activate_nj": 0.0, "column_nj": 0.0, "migration_nj": 0.0}
