"""Tests for the bank timing state machine."""

import pytest

from repro.dram.bank import Bank
from repro.dram.channel import Channel
from repro.dram.rank import Rank
from repro.dram.timing import FAST, SLOW, ddr3_1600_fast, ddr3_1600_slow


def make_bank(classify=None, subarray_of=None):
    timings = {SLOW: ddr3_1600_slow(), FAST: ddr3_1600_fast()}
    classify = classify or (lambda row: SLOW)
    return Bank(timings, classify, Rank(timings[SLOW]), Channel(),
                subarray_of=subarray_of)


class TestBasicSequencing:
    def test_closed_bank_pays_trcd(self):
        bank = make_bank()
        slow = ddr3_1600_slow()
        op = bank.schedule(5, False, 0.0)
        assert not op.row_hit and not op.row_conflict
        assert op.activated
        assert op.data_start_ns == pytest.approx(slow.tRCD + slow.tCL)

    def test_row_hit_skips_activation(self):
        bank = make_bank()
        bank.schedule(5, False, 0.0)
        op = bank.schedule(5, False, 100.0)
        assert op.row_hit
        assert not op.activated

    def test_row_conflict_pays_precharge(self):
        bank = make_bank()
        slow = ddr3_1600_slow()
        first = bank.schedule(5, False, 0.0)
        second = bank.schedule(9, False, first.data_end_ns)
        assert second.row_conflict
        assert second.precharged
        # ACT for the new row cannot come before tRAS of the old one + tRP.
        assert second.data_start_ns >= slow.tRAS + slow.tRP + slow.tRCD

    def test_trc_between_activations(self):
        bank = make_bank()
        slow = ddr3_1600_slow()
        bank.schedule(1, False, 0.0)
        second = bank.schedule(2, False, 0.0)
        assert second.first_command_ns + slow.tRP >= 0
        # The second ACT must wait at least tRC after the first.
        assert second.data_start_ns - slow.tRCD - slow.tCL >= slow.tRC - 1e-9

    def test_fast_rows_use_fast_timing(self):
        bank = make_bank(classify=lambda row: FAST)
        fast = ddr3_1600_fast()
        op = bank.schedule(0, False, 0.0)
        assert op.subarray_class == FAST
        assert op.data_start_ns == pytest.approx(fast.tRCD + fast.tCL)

    def test_fast_conflict_turns_around_faster_than_slow(self):
        fast_bank = make_bank(classify=lambda row: FAST)
        slow_bank = make_bank()
        fast_bank.schedule(1, False, 0.0)
        slow_bank.schedule(1, False, 0.0)
        fast_op = fast_bank.schedule(2, False, 0.0)
        slow_op = slow_bank.schedule(2, False, 0.0)
        assert fast_op.data_end_ns < slow_op.data_end_ns


class TestWriteTiming:
    def test_write_uses_cwl(self):
        bank = make_bank()
        slow = ddr3_1600_slow()
        op = bank.schedule(3, True, 0.0)
        assert op.data_start_ns == pytest.approx(slow.tRCD + slow.tCWL)

    def test_write_recovery_delays_precharge(self):
        bank = make_bank()
        slow = ddr3_1600_slow()
        write = bank.schedule(3, True, 0.0)
        conflict = bank.schedule(4, False, write.data_end_ns)
        assert (conflict.first_command_ns
                >= write.data_end_ns + slow.tWR - 1e-9)


class TestOccupy:
    def test_occupy_blocks_bank(self):
        bank = make_bank()
        start, end = bank.occupy(0.0, 100.0)
        assert end - start == pytest.approx(100.0)
        op = bank.schedule(1, False, 0.0)
        assert op.data_start_ns >= end

    def test_occupy_closes_open_row(self):
        bank = make_bank()
        bank.schedule(5, False, 0.0)
        bank.occupy(0.0, 50.0)
        assert bank.open_row is None

    def test_occupy_rejects_non_positive(self):
        with pytest.raises(ValueError):
            make_bank().occupy(0.0, 0.0)


class TestDeferredMigrations:
    def test_row_hits_unaffected_by_pending(self):
        bank = make_bank()
        first = bank.schedule(5, False, 0.0)
        bank.defer_migration(first.data_end_ns, 146.25, frozenset((0,)))
        op = bank.schedule(5, False, first.data_end_ns)
        assert op.row_hit

    def test_commit_runs_when_burst_ends(self):
        bank = make_bank()
        committed = []
        first = bank.schedule(5, False, 0.0)
        bank.defer_migration(first.data_end_ns, 146.25, frozenset((0,)),
                             lambda: committed.append(True))
        bank.schedule(5, False, first.data_end_ns)      # row hit: deferred
        assert committed == []
        bank.schedule(900, False, first.data_end_ns + 10)  # burst ends
        assert committed == [True]

    def test_access_to_involved_subarray_waits(self):
        bank = make_bank(subarray_of=lambda row: row // 64)
        first = bank.schedule(5, False, 0.0)
        ready = first.data_end_ns
        bank.defer_migration(ready, 200.0, frozenset((0, 1)))
        # Row 10 is subarray 0 (involved): must wait for the first half.
        op = bank.schedule(10, False, ready + 1)
        assert op.first_command_ns >= ready + 1

    def test_access_to_other_subarray_proceeds(self):
        bank = make_bank(subarray_of=lambda row: row // 64)
        first = bank.schedule(5, False, 0.0)
        ready = first.data_end_ns
        bank.defer_migration(ready, 1000.0, frozenset((0, 1)))
        other = bank.schedule(900, False, ready)  # subarray 14
        blocked = make_bank(subarray_of=lambda row: row // 64)
        blocked.schedule(5, False, 0.0)
        reference = blocked.schedule(900, False, ready)
        assert other.data_end_ns == pytest.approx(reference.data_end_ns)

    def test_queue_depth_bounded(self):
        bank = make_bank()
        assert bank.defer_migration(0.0, 10.0, frozenset((0,)))
        assert bank.defer_migration(0.0, 10.0, frozenset((0,)))
        assert not bank.defer_migration(0.0, 10.0, frozenset((0,)))

    def test_expired_windows_cost_nothing(self):
        bank = make_bank(subarray_of=lambda row: row // 64)
        first = bank.schedule(5, False, 0.0)
        bank.defer_migration(first.data_end_ns, 50.0, frozenset((0,)))
        # Access long after the window would have finished.
        late = first.data_end_ns + 10_000
        op = bank.schedule(10, False, late)
        assert op.first_command_ns == pytest.approx(late)


class TestEarliestService:
    def test_row_hit_estimate(self):
        bank = make_bank()
        bank.schedule(5, False, 0.0)
        assert bank.earliest_service(5) == pytest.approx(bank.column_ready)

    def test_conflict_estimate_not_before_precharge_legal(self):
        bank = make_bank()
        bank.schedule(5, False, 0.0)
        assert bank.earliest_service(9) >= bank.next_precharge_ok - 1e-9

    def test_estimate_does_not_mutate(self):
        bank = make_bank()
        bank.schedule(5, False, 0.0)
        before = (bank.open_row, bank.next_activate, bank.next_precharge_ok)
        bank.earliest_service(9)
        assert (bank.open_row, bank.next_activate,
                bank.next_precharge_ok) == before

    def test_closed_bank_estimate(self):
        bank = make_bank()
        assert bank.earliest_service(5) == pytest.approx(0.0)


class TestPrechargeNow:
    def test_closes_row(self):
        bank = make_bank()
        bank.schedule(5, False, 0.0)
        ready = bank.precharge_now(1000.0)
        assert bank.open_row is None
        assert ready >= 1000.0

    def test_idempotent_when_closed(self):
        bank = make_bank()
        assert bank.precharge_now(0.0) == pytest.approx(0.0)
