"""Validation: the event-driven engine matches closed-form latencies."""

import pytest

from repro.common.config import SystemConfig
from repro.core.variants import build_memory_system
from repro.dram.analytical import (
    ROW_CLOSED,
    ROW_CONFLICT,
    ROW_HIT,
    idle_read_latency_ns,
    idle_write_latency_ns,
    validate_device,
)
from repro.dram.channel import IO_DELAY_NS
from repro.dram.timing import ddr3_1600_fast, ddr3_1600_slow


class TestClosedForms:
    def test_hit_cheapest(self):
        slow = ddr3_1600_slow()
        assert (idle_read_latency_ns(slow, ROW_HIT)
                < idle_read_latency_ns(slow, ROW_CLOSED)
                < idle_read_latency_ns(slow, ROW_CONFLICT))

    def test_fast_class_cheaper_everywhere(self):
        slow, fast = ddr3_1600_slow(), ddr3_1600_fast()
        for state in (ROW_CLOSED, ROW_CONFLICT):
            assert (idle_read_latency_ns(fast, state)
                    < idle_read_latency_ns(slow, state))

    def test_hit_latency_class_independent(self):
        slow, fast = ddr3_1600_slow(), ddr3_1600_fast()
        assert idle_read_latency_ns(fast, ROW_HIT) == pytest.approx(
            idle_read_latency_ns(slow, ROW_HIT))

    def test_io_leg(self):
        slow = ddr3_1600_slow()
        assert (idle_read_latency_ns(slow, ROW_HIT)
                - idle_read_latency_ns(slow, ROW_HIT, include_io=False)
                == pytest.approx(IO_DELAY_NS))

    def test_write_form(self):
        slow = ddr3_1600_slow()
        assert idle_write_latency_ns(slow, ROW_CLOSED) == pytest.approx(
            slow.tRCD + slow.tCWL + slow.tBURST)

    def test_unknown_state(self):
        with pytest.raises(ValueError):
            idle_read_latency_ns(ddr3_1600_slow(), "ajar")


class TestDeviceValidation:
    @pytest.mark.parametrize("design", ["standard", "das", "fs"])
    def test_all_designs_validate(self, design):
        system = build_memory_system(SystemConfig(design=design))
        report = validate_device(system.device)
        assert report.passed, report.failures()

    def test_report_covers_every_class(self):
        system = build_memory_system(SystemConfig(design="das"))
        report = validate_device(system.device)
        classes = {name.split(":")[0] for name in report.checks}
        assert classes == set(system.device.timings)


class TestEndToEndAgainstClosedForm:
    def test_cold_read_matches(self, tiny_geometry):
        from repro.common.config import ControllerConfig
        from repro.controller.controller import MemorySystem
        from repro.dram.device import DRAMDevice
        from repro.dram.timing import SLOW

        slow = ddr3_1600_slow()
        device = DRAMDevice(tiny_geometry, {SLOW: slow})
        system = MemorySystem(device, ControllerConfig())
        request = system.submit(0.0, 0x1000, False)
        system.resolve(request)
        assert request.completion_ns == pytest.approx(
            idle_read_latency_ns(slow, ROW_CLOSED))
