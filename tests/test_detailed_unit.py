"""Unit tests for the command-level reference model itself."""

import pytest

from repro.dram.detailed import (
    ACTIVE,
    DetailedChannel,
    DetailedRequest,
)
from repro.dram.timing import FAST, SLOW, ddr3_1600_fast, ddr3_1600_slow


def channel(banks=2):
    return DetailedChannel(banks, ddr3_1600_slow())


class TestConstruction:
    def test_rejects_zero_banks(self):
        with pytest.raises(ValueError):
            DetailedChannel(0, ddr3_1600_slow())

    def test_cycle_quantisation(self):
        c = channel()
        assert c._cycles(1.25) == 1
        assert c._cycles(1.3) == 2
        assert c._cycles(13.75) == 11


class TestSingleBankSequencing:
    def test_single_read_completes(self):
        c = channel()
        req = DetailedRequest(0.0, bank=0, row=3)
        c.run([req])
        assert req.completion_ns is not None
        slow = ddr3_1600_slow()
        expected = slow.tRCD + slow.tCL + slow.tBURST + c.io_delay_ns
        assert req.completion_ns == pytest.approx(expected, abs=3 * slow.tCK)

    def test_row_left_open(self):
        c = channel()
        c.run([DetailedRequest(0.0, bank=0, row=3)])
        assert c.banks[0].state == ACTIVE
        assert c.banks[0].open_row == 3

    def test_hit_faster_than_cold(self):
        c = channel()
        first = DetailedRequest(0.0, bank=0, row=3)
        second = DetailedRequest(200.0, bank=0, row=3)
        c.run([first, second])
        assert (second.completion_ns - 200.0) < first.completion_ns

    def test_conflict_respects_tras(self):
        slow = ddr3_1600_slow()
        c = channel()
        first = DetailedRequest(0.0, bank=0, row=3)
        conflict = DetailedRequest(1.0, bank=0, row=9)
        c.run([first, conflict])
        # ACT of the new row cannot come before tRAS + tRP of the old.
        earliest_data = (slow.tRAS + slow.tRP + slow.tRCD + slow.tCL
                         + slow.tBURST)
        assert conflict.completion_ns >= earliest_data - 2 * slow.tCK


class TestChannelConstraints:
    def test_data_bus_serialises(self):
        slow = ddr3_1600_slow()
        c = channel(banks=2)
        a = DetailedRequest(0.0, bank=0, row=1)
        b = DetailedRequest(0.0, bank=1, row=1)
        c.run([a, b])
        assert abs(a.completion_ns - b.completion_ns) >= slow.tCCD - 1e-9

    def test_bank_parallelism_overlaps(self):
        c = channel(banks=4)
        requests = [DetailedRequest(0.0, bank=i, row=1) for i in range(4)]
        c.run(list(requests))
        slow = ddr3_1600_slow()
        serial = 4 * (slow.tRCD + slow.tCL + slow.tBURST)
        assert max(r.completion_ns for r in requests) < serial

    def test_frfcfs_prefers_open_row(self):
        c = channel(banks=1)
        opener = DetailedRequest(0.0, bank=0, row=5)
        conflict = DetailedRequest(60.0, bank=0, row=9)
        hit = DetailedRequest(61.0, bank=0, row=5)
        c.run([opener, conflict, hit])
        assert hit.completion_ns < conflict.completion_ns

    def test_starvation_cap_eventually_serves_conflict(self):
        c = channel(banks=1)
        requests = [DetailedRequest(0.0, bank=0, row=5)]
        requests.append(DetailedRequest(10.0, bank=0, row=9))
        # A long run of row hits behind the conflict.
        requests.extend(DetailedRequest(20.0 + i * 10.0, bank=0, row=5)
                        for i in range(80))
        c.run(list(requests))
        assert requests[1].completion_ns is not None


class TestHeterogeneousTiming:
    def test_fast_class_rows_faster(self):
        timings = {SLOW: ddr3_1600_slow(), FAST: ddr3_1600_fast()}

        def classify(_bank, row):
            return FAST if row < 16 else SLOW

        c = DetailedChannel(1, ddr3_1600_slow(), classify=classify,
                            timings=timings)
        fast_req = DetailedRequest(0.0, bank=0, row=1)
        c.run([fast_req])
        c2 = DetailedChannel(1, ddr3_1600_slow(), classify=classify,
                             timings=timings)
        slow_req = DetailedRequest(0.0, bank=0, row=99)
        c2.run([slow_req])
        assert fast_req.completion_ns < slow_req.completion_ns
