"""Tests for the three-level cache hierarchy."""

import pytest

from repro.cache.hierarchy import L1, L2, LLC, MEMORY, CacheHierarchy


@pytest.fixture
def hierarchy(tiny_hierarchy):
    return CacheHierarchy(tiny_hierarchy, num_cores=2)


class TestLevels:
    def test_cold_access_goes_to_memory(self, hierarchy):
        result = hierarchy.access(0, 0x1000, False)
        assert result.level == MEMORY
        assert result.demand_fill == 0x1000

    def test_demand_fill_is_line_aligned(self, hierarchy):
        result = hierarchy.access(0, 0x1234, False)
        assert result.demand_fill == 0x1200 // 64 * 64

    def test_second_access_hits_l1(self, hierarchy):
        hierarchy.access(0, 0x1000, False)
        result = hierarchy.access(0, 0x1000, False)
        assert result.level == L1
        assert result.latency_cycles == 4

    def test_latencies_match_config(self, hierarchy, tiny_hierarchy):
        hierarchy.access(0, 0x1000, False)
        assert (hierarchy.access(0, 0x1000, False).latency_cycles
                == tiny_hierarchy.l1.latency_cycles)

    def test_l1_eviction_falls_to_l2(self, hierarchy, tiny_hierarchy):
        # Fill one L1 set beyond its ways; evicted lines must hit L2.
        sets = tiny_hierarchy.l1.num_sets
        ways = tiny_hierarchy.l1.associativity
        stride = sets * 64
        for i in range(ways + 1):
            hierarchy.access(0, i * stride, False)
        result = hierarchy.access(0, 0, False)
        assert result.level in (L1, L2)

    def test_private_l1_per_core(self, hierarchy):
        hierarchy.access(0, 0x2000, False)
        result = hierarchy.access(1, 0x2000, False)
        # Core 1 misses its private L1/L2 but hits the shared LLC.
        assert result.level == LLC

    def test_llc_miss_counted_per_core(self, hierarchy):
        hierarchy.access(0, 0x3000, False)
        hierarchy.access(1, 0x4000, False)
        assert hierarchy.llc_demand_misses == [1, 1]
        assert hierarchy.total_llc_misses() == 2


class TestWritebacks:
    def test_dirty_data_eventually_written_back(self, hierarchy,
                                                tiny_hierarchy):
        # Write one line, then stream enough lines mapping everywhere to
        # force it out of all three levels.
        hierarchy.access(0, 0, True)
        writebacks = []
        llc_lines = tiny_hierarchy.llc.capacity_bytes // 64
        for i in range(1, llc_lines * 4):
            result = hierarchy.access(0, i * 64, False)
            writebacks.extend(result.writebacks)
        assert 0 in writebacks

    def test_clean_traffic_never_writes_back(self, hierarchy):
        for i in range(500):
            result = hierarchy.access(0, i * 64, False)
            assert result.writebacks == []


class TestResetStats:
    def test_reset_clears_counts_keeps_contents(self, hierarchy):
        hierarchy.access(0, 0x5000, False)
        hierarchy.reset_stats()
        assert hierarchy.total_llc_misses() == 0
        assert hierarchy.access(0, 0x5000, False).level == L1
