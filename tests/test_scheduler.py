"""Tests for FR-FCFS / FCFS scheduling policies."""

import pytest

from repro.controller.request import Request
from repro.controller.scheduler import (
    STARVATION_CAP_NS,
    FCFSScheduler,
    FRFCFSScheduler,
    make_scheduler,
)
from repro.dram.device import DRAMDevice
from repro.dram.timing import SLOW, ddr3_1600_slow


@pytest.fixture
def device(tiny_geometry):
    return DRAMDevice(tiny_geometry, {SLOW: ddr3_1600_slow()})


def request(arrival, flat_bank, row):
    req = Request(arrival, 0, False, 0)
    req.flat_bank = flat_bank
    req.row = row
    return req


class TestFRFCFS:
    def test_row_hit_preferred(self, device):
        scheduler = FRFCFSScheduler(device)
        device.banks[0].schedule(5, False, 0.0)  # opens row 5
        older_conflict = request(0.0, 0, 9)
        younger_hit = request(10.0, 0, 5)
        picked = scheduler.pick([older_conflict, younger_hit], now=100.0)
        assert picked is younger_hit

    def test_starvation_cap_forces_oldest(self, device):
        scheduler = FRFCFSScheduler(device)
        device.banks[0].schedule(5, False, 0.0)
        ancient_conflict = request(0.0, 0, 9)
        fresh_hit = request(STARVATION_CAP_NS + 100, 0, 5)
        picked = scheduler.pick([ancient_conflict, fresh_hit],
                                now=STARVATION_CAP_NS + 101)
        assert picked is ancient_conflict

    def test_avoids_busy_bank(self, device):
        scheduler = FRFCFSScheduler(device)
        device.banks[0].occupy(0.0, 10_000.0)
        to_busy = request(0.0, 0, 1)
        to_idle = request(5.0, 1, 1)
        picked = scheduler.pick([to_busy, to_idle], now=10.0)
        assert picked is to_idle

    def test_oldest_wins_ties(self, device):
        scheduler = FRFCFSScheduler(device)
        older = request(0.0, 0, 1)
        younger = request(1.0, 1, 1)
        picked = scheduler.pick([older, younger], now=5.0)
        assert picked is older

    def test_rejects_empty(self, device):
        with pytest.raises(ValueError):
            FRFCFSScheduler(device).pick([], now=0.0)

    def test_window_limits_candidates(self, device):
        scheduler = FRFCFSScheduler(device, window=2)
        device.banks[0].schedule(5, False, 0.0)
        requests = [request(float(i), 1, i) for i in range(5)]
        late_hit = request(10.0, 0, 5)
        picked = scheduler.pick(requests + [late_hit], now=20.0)
        # The row hit is outside the 2-oldest window, so age order rules.
        assert picked is requests[0]


class TestFCFS:
    def test_strict_age_order(self, device):
        scheduler = FCFSScheduler(device)
        device.banks[0].schedule(5, False, 0.0)
        older_conflict = request(0.0, 0, 9)
        younger_hit = request(1.0, 0, 5)
        assert scheduler.pick([older_conflict, younger_hit],
                              now=10.0) is older_conflict

    def test_rejects_empty(self, device):
        with pytest.raises(ValueError):
            FCFSScheduler(device).pick([], now=0.0)


class TestFactory:
    def test_frfcfs(self, device):
        assert isinstance(make_scheduler("frfcfs", device, 32),
                          FRFCFSScheduler)

    def test_fcfs(self, device):
        assert isinstance(make_scheduler("fcfs", device, 32),
                          FCFSScheduler)

    def test_unknown(self, device):
        with pytest.raises(ValueError):
            make_scheduler("tcm", device, 32)
