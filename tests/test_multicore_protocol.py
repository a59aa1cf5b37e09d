"""Tests for the conservative multi-core co-simulation protocol."""

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import ControllerConfig, CoreConfig
from repro.controller.controller import MemorySystem
from repro.cpu.multicore import MultiCoreSimulator
from repro.dram.device import DRAMDevice, homogeneous_classifier
from repro.dram.timing import SLOW, ddr3_1600_slow


def build(tiny_geometry, tiny_hierarchy, traces, refs,
          warmup=0.0):
    hierarchy = CacheHierarchy(tiny_hierarchy, len(traces), seed=1)
    device = DRAMDevice(tiny_geometry, {SLOW: ddr3_1600_slow()},
                        homogeneous_classifier(SLOW))
    memory = MemorySystem(device, ControllerConfig())
    sim = MultiCoreSimulator(CoreConfig(), [iter(t) for t in traces],
                             hierarchy, memory, refs,
                             warmup_fraction=warmup)
    return sim, memory


def trace(base, count, stride=4096, gap=2):
    return [(gap, base + i * stride, False) for i in range(count)]


class TestProtocol:
    def test_two_core_determinism(self, tiny_geometry, tiny_hierarchy):
        def run():
            sim, _ = build(tiny_geometry, tiny_hierarchy,
                           [trace(0, 400), trace(1 << 17, 400)], 400)
            sim.run()
            return sim.per_core_time_ns()

        assert run() == run()

    def test_four_core_completion(self, tiny_geometry, tiny_hierarchy):
        traces = [trace(i << 16, 200) for i in range(4)]
        sim, memory = build(tiny_geometry, tiny_hierarchy, traces, 200)
        sim.run()
        assert all(core.finished for core in sim.cores)
        assert memory.pending_requests() == 0

    def test_asymmetric_trace_lengths(self, tiny_geometry,
                                      tiny_hierarchy):
        traces = [trace(0, 50), trace(1 << 17, 500)]
        sim, _ = build(tiny_geometry, tiny_hierarchy, traces, 500)
        sim.run()
        assert sim.cores[0].references == 50
        assert sim.cores[1].references == 500

    def test_completions_causal_under_sharing(self, tiny_geometry,
                                              tiny_hierarchy):
        traces = [trace(0, 300, gap=0), trace(1 << 17, 300, gap=0)]
        sim, memory = build(tiny_geometry, tiny_hierarchy, traces, 300)
        sim.run()
        # Each core's retirement clock never precedes its fetch clock.
        for core in sim.cores:
            assert core.finish_time_ns() >= 0
        assert memory.reads > 0

    def test_warmup_boundary_multicore(self, tiny_geometry,
                                       tiny_hierarchy):
        traces = [trace(0, 200), trace(1 << 17, 200)]
        sim, memory = build(tiny_geometry, tiny_hierarchy, traces, 200,
                            warmup=0.25)
        sim.run()
        for core in sim.cores:
            assert core.measure_start_references >= 50 or core.finished
            assert core.measured_instructions() > 0

    def test_idle_core_does_not_deadlock(self, tiny_geometry,
                                         tiny_hierarchy):
        # One core with huge gaps (sparse arrivals), one intense.
        sparse = [(5000, i * 4096, False) for i in range(20)]
        dense = trace(1 << 17, 400, gap=0)
        sim, _ = build(tiny_geometry, tiny_hierarchy, [sparse, dense],
                       400)
        sim.run()
        assert all(core.finished for core in sim.cores)

    def test_interference_visible_in_latency(self, tiny_geometry,
                                             tiny_hierarchy):
        solo_sim, solo_memory = build(
            tiny_geometry, tiny_hierarchy, [trace(0, 300, gap=0)], 300)
        solo_sim.run()
        duo_sim, duo_memory = build(
            tiny_geometry, tiny_hierarchy,
            [trace(0, 300, gap=0), trace(1 << 17, 300, gap=0)], 300)
        duo_sim.run()
        assert (duo_memory.mean_read_latency_ns
                >= solo_memory.mean_read_latency_ns - 1e-6)
