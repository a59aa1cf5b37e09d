"""Tests for DRAM auto-refresh (tREFI / tRFC)."""

from repro.common.config import ControllerConfig
from repro.controller.controller import MemorySystem
from repro.dram.device import DRAMDevice, homogeneous_classifier
from repro.dram.timing import SLOW, ddr3_1600_slow


def make_system(tiny_geometry, refresh=True):
    device = DRAMDevice(tiny_geometry, {SLOW: ddr3_1600_slow()},
                        homogeneous_classifier(SLOW))
    return MemorySystem(device,
                        ControllerConfig(refresh_enabled=refresh))


class TestRefresh:
    def test_disabled_by_default(self, tiny_geometry):
        device = DRAMDevice(tiny_geometry, {SLOW: ddr3_1600_slow()},
                            homogeneous_classifier(SLOW))
        system = MemorySystem(device, ControllerConfig())
        for i in range(50):
            system.submit(i * 1000.0, i * 4096, False)
        system.flush()
        assert system.refreshes == 0

    def test_refresh_fires_each_trefi(self, tiny_geometry):
        system = make_system(tiny_geometry)
        slow = ddr3_1600_slow()
        horizon = 10 * slow.tREFI
        for i in range(100):
            system.submit(i * horizon / 100, i * 4096, False)
        system.flush()
        # One rank in the tiny geometry -> ~10 refreshes over the window.
        assert 8 <= system.refreshes <= 12

    def test_refresh_closes_open_rows(self, tiny_geometry):
        system = make_system(tiny_geometry)
        slow = ddr3_1600_slow()
        first = system.submit(0.0, 0x0, False)
        system.resolve(first)
        # Next access to the same row lands after a refresh deadline.
        later = system.submit(slow.tREFI + 100.0, 0x40, False)
        system.resolve(later)
        assert not later.op.row_hit

    def test_request_during_refresh_waits(self, tiny_geometry):
        slow = ddr3_1600_slow()
        with_refresh = make_system(tiny_geometry, refresh=True)
        without = make_system(tiny_geometry, refresh=False)
        arrival = slow.tREFI + 1.0
        blocked = with_refresh.submit(arrival, 0x0, False)
        free = without.submit(arrival, 0x0, False)
        with_refresh.resolve(blocked)
        without.resolve(free)
        assert (blocked.completion_ns
                >= free.completion_ns + slow.tRFC * 0.5)

    def test_refresh_slows_long_run(self, tiny_geometry):
        def total(refresh):
            system = make_system(tiny_geometry, refresh=refresh)
            slow = ddr3_1600_slow()
            now = 0.0
            last = 0.0
            for i in range(400):
                request = system.submit(now, (i * 8192) % (1 << 18),
                                        False)
                system.resolve(request)
                last = request.completion_ns
                now = last + slow.tREFI / 40
            return last

        assert total(True) > total(False)
