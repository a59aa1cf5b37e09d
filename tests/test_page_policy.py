"""Tests for the closed-page policy and controller-config sweeps."""

from repro.common.config import ControllerConfig
from repro.controller.controller import MemorySystem
from repro.dram.device import DRAMDevice
from repro.dram.timing import SLOW, ddr3_1600_slow


def make_system(tiny_geometry, **controller_kwargs):
    device = DRAMDevice(tiny_geometry, {SLOW: ddr3_1600_slow()})
    return MemorySystem(device, ControllerConfig(**controller_kwargs))


class TestClosedPage:
    def test_no_row_hits(self, tiny_geometry):
        system = make_system(tiny_geometry, page_policy="closed")
        first = system.submit(0.0, 0x0, False)
        system.resolve(first)
        second = system.submit(first.completion_ns + 1000, 0x40, False)
        system.resolve(second)
        assert not second.op.row_hit
        assert system.row_buffer_hits == 0

    def test_open_page_hits_same_sequence(self, tiny_geometry):
        system = make_system(tiny_geometry, page_policy="open")
        first = system.submit(0.0, 0x0, False)
        system.resolve(first)
        second = system.submit(first.completion_ns + 1000, 0x40, False)
        system.resolve(second)
        assert second.op.row_hit

    def test_closed_page_conflict_free_reopen(self, tiny_geometry):
        """Closed-page pays ACT for every access but never a conflict
        precharge on the critical path."""
        system = make_system(tiny_geometry, page_policy="closed")
        first = system.submit(0.0, 0x0, False)
        system.resolve(first)
        # A different row, long after: precharge already done.
        other = system.submit(first.completion_ns + 10_000, 0x2000, False)
        system.resolve(other)
        assert not other.op.precharged

    def test_locality_stream_prefers_open_page(self, tiny_geometry):
        def total_time(policy):
            system = make_system(tiny_geometry, page_policy=policy)
            now = 0.0
            for i in range(64):
                request = system.submit(now, i * 64, False)
                system.resolve(request)
                now = request.completion_ns + 1.0
            return now

        assert total_time("open") < total_time("closed")


class TestFCFSEndToEnd:
    def test_fcfs_system_completes(self, tiny_geometry):
        system = make_system(tiny_geometry, scheduler="fcfs")
        requests = [system.submit(float(i), i * 4096, False)
                    for i in range(20)]
        system.flush()
        assert all(r.resolved for r in requests)


class TestRunnerControllerParam:
    def test_controller_changes_cache_key(self, tmp_path, monkeypatch):
        from repro import run_workload

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_workload("libquantum", "standard", references=2000)
        before = len(list(tmp_path.glob("*.json")))
        run_workload("libquantum", "standard", references=2000,
                     controller=ControllerConfig(page_policy="closed"))
        assert len(list(tmp_path.glob("*.json"))) > before

