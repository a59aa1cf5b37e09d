"""Tests for the trace-driven ROB core model."""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import ControllerConfig, CoreConfig
from repro.controller.controller import MemorySystem
from repro.cpu.core import Core
from repro.cpu.multicore import MultiCoreSimulator
from repro.dram.device import DRAMDevice
from repro.dram.timing import SLOW, ddr3_1600_slow


def make_memory(tiny_geometry):
    device = DRAMDevice(tiny_geometry, {SLOW: ddr3_1600_slow()})
    return MemorySystem(device, ControllerConfig())


def run_core(tiny_geometry, tiny_hierarchy, trace, max_refs=10_000):
    hierarchy = CacheHierarchy(tiny_hierarchy, 1)
    memory = make_memory(tiny_geometry)
    core = Core(0, CoreConfig(), iter(trace), hierarchy, memory,
                max_refs, direct_resolve=True)
    core.start_measurement()
    core.advance()
    memory.flush()
    return core, memory


class TestBasicExecution:
    def test_finishes_trace(self, tiny_geometry, tiny_hierarchy):
        trace = [(3, i * 64, False) for i in range(100)]
        core, _ = run_core(tiny_geometry, tiny_hierarchy, trace)
        assert core.finished
        assert core.references == 100
        assert core.instructions == 400

    def test_max_references_respected(self, tiny_geometry, tiny_hierarchy):
        trace = [(0, i * 64, False) for i in range(100)]
        core, _ = run_core(tiny_geometry, tiny_hierarchy, trace,
                           max_refs=10)
        assert core.references == 10

    def test_time_advances(self, tiny_geometry, tiny_hierarchy):
        trace = [(3, i * 64, False) for i in range(50)]
        core, _ = run_core(tiny_geometry, tiny_hierarchy, trace)
        assert core.finish_time_ns() > 0

    def test_ipc_bounded_by_width(self, tiny_geometry, tiny_hierarchy):
        trace = [(3, 0, False) for _ in range(200)]
        core, _ = run_core(tiny_geometry, tiny_hierarchy, trace)
        assert 0 < core.ipc() <= CoreConfig().issue_width

    def test_cache_hits_do_not_touch_memory(self, tiny_geometry,
                                            tiny_hierarchy):
        trace = [(1, 0, False) for _ in range(100)]
        _, memory = run_core(tiny_geometry, tiny_hierarchy, trace)
        assert memory.reads == 1  # just the cold miss


class TestMemoryBoundBehaviour:
    def test_misses_slow_the_core(self, tiny_geometry, tiny_hierarchy):
        hits = [(3, 0, False) for _ in range(400)]
        misses = [(3, i * 4096, False) for i in range(400)]
        fast_core, _ = run_core(tiny_geometry, tiny_hierarchy, hits)
        slow_core, _ = run_core(tiny_geometry, tiny_hierarchy, misses)
        assert slow_core.ipc() < fast_core.ipc()

    def test_rob_limits_outstanding_misses(self, tiny_geometry,
                                           tiny_hierarchy):
        # With gap 0, the ROB covers 192 instructions; far more misses are
        # issued than the ROB can hold, so the core must stall repeatedly
        # and total time must scale with the miss count.
        misses = [(0, i * 4096, False) for i in range(300)]
        core, memory = run_core(tiny_geometry, tiny_hierarchy, misses)
        assert core.finished
        assert memory.reads >= 250

    def test_writes_do_not_block(self, tiny_geometry, tiny_hierarchy):
        reads = [(3, i * 4096, False) for i in range(200)]
        writes = [(3, i * 4096, True) for i in range(200)]
        read_core, _ = run_core(tiny_geometry, tiny_hierarchy, reads)
        write_core, _ = run_core(tiny_geometry, tiny_hierarchy, writes)
        assert write_core.ipc() > read_core.ipc()


class TestMeasurementWindow:
    def test_measurement_excludes_warmup(self, tiny_geometry,
                                         tiny_hierarchy):
        hierarchy = CacheHierarchy(tiny_hierarchy, 1)
        memory = make_memory(tiny_geometry)
        trace = iter([(3, i * 64, False) for i in range(100)])
        core = Core(0, CoreConfig(), trace, hierarchy, memory, 100,
                    direct_resolve=True)
        core.advance(until_references=20)
        core.start_measurement()
        core.advance()
        memory.flush()
        assert core.measured_instructions() == 80 * 4
        assert core.measured_time_ns() < core.finish_time_ns()


class TestMultiCore:
    def test_multicore_runs_all_traces(self, tiny_geometry,
                                       tiny_hierarchy):
        hierarchy = CacheHierarchy(tiny_hierarchy, 2)
        memory = make_memory(tiny_geometry)
        traces = [iter([(3, i * 64, False) for i in range(200)]),
                  iter([(3, (1 << 18) + i * 64, False)
                        for i in range(200)])]
        simulator = MultiCoreSimulator(CoreConfig(), traces, hierarchy,
                                       memory, 200)
        simulator.run()
        assert all(core.finished for core in simulator.cores)
        assert len(simulator.per_core_time_ns()) == 2
        assert all(t > 0 for t in simulator.per_core_time_ns())

    def test_shared_memory_interference(self, tiny_geometry,
                                        tiny_hierarchy):
        def run(num_cores):
            hierarchy = CacheHierarchy(tiny_hierarchy, num_cores)
            memory = make_memory(tiny_geometry)
            traces = [
                iter([(0, (c << 17) + i * 4096, False)
                      for i in range(300)])
                for c in range(num_cores)
            ]
            sim = MultiCoreSimulator(CoreConfig(), traces, hierarchy,
                                     memory, 300)
            sim.run()
            return memory.mean_read_latency_ns

        # Saturating the shared memory system with more cores raises the
        # mean read latency (queueing + bus contention).
        assert run(4) > run(1)

    def test_rejects_empty_traces(self, tiny_geometry, tiny_hierarchy):
        hierarchy = CacheHierarchy(tiny_hierarchy, 1)
        memory = make_memory(tiny_geometry)
        with pytest.raises(ValueError):
            MultiCoreSimulator(CoreConfig(), [], hierarchy, memory, 10)
