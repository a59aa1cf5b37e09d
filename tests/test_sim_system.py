"""Integration tests for system assembly, profiling and the runner."""

import itertools

import pytest

from repro.cache.hierarchy import MEMORY, CacheHierarchy
from repro.common.config import AsymmetricConfig
from repro.common.rng import derive_seed
from repro.dram.address import AddressMapping
from repro.sim.runner import make_config, run_workload
from repro.sim.system import profile_row_heat, simulate
from repro.trace.library import build_workload_traces
from repro.trace.spec2006 import build_trace


def small_trace(count, stride=64, base=0, gap=3):
    return iter([(gap, base + i * stride, False) for i in range(count)])


class TestSimulate:
    def test_returns_metrics(self, tiny_config):
        metrics = simulate(tiny_config, [small_trace(2000, stride=4096)],
                           2000, workload_name="unit")
        assert metrics.workload == "unit"
        assert metrics.design == "das"
        assert metrics.references > 0
        assert metrics.time_ns[0] > 0

    def test_core_count_checked(self, tiny_config):
        with pytest.raises(ValueError):
            simulate(tiny_config, [small_trace(10), small_trace(10)], 10)

    def test_sas_requires_profile(self, tiny_config):
        with pytest.raises(ValueError):
            simulate(tiny_config.replace(design="sas"),
                     [small_trace(100)], 100)

    def test_deterministic(self, tiny_config):
        a = simulate(tiny_config, [small_trace(3000, stride=4096)], 3000)
        b = simulate(tiny_config, [small_trace(3000, stride=4096)], 3000)
        assert a.time_ns == b.time_ns
        assert a.promotions == b.promotions

    def test_access_locations_sum_to_one(self, tiny_config):
        metrics = simulate(tiny_config, [small_trace(3000, stride=4096)],
                           3000)
        assert sum(metrics.access_locations.values()) == pytest.approx(1.0)

    def test_energy_collected(self, tiny_config):
        metrics = simulate(tiny_config, [small_trace(2000, stride=4096)],
                           2000)
        assert metrics.dynamic_energy_nj > 0


def reference_row_heat(config, traces, max_references):
    """The profiling pass written plainly, over ``CacheHierarchy.access``:
    the reference :func:`profile_row_heat` must equal, order included."""
    hierarchy = CacheHierarchy(config.hierarchy, len(traces), config.seed)
    mapping = AddressMapping(config.geometry)
    heat = {}
    for core_id, trace in enumerate(traces):
        seen = 0
        for _gap, address, is_write in trace:
            result = hierarchy.access(core_id, address, is_write)
            if result.level == MEMORY:
                row = mapping.global_row(address)
                heat[row] = heat.get(row, 0) + 1
            seen += 1
            if seen >= max_references:
                break
    return heat


class TestProfileRowHeat:
    @pytest.mark.parametrize("workload, num_cores, references", [
        ("mcf", 1, 6000),
        ("M1", 4, 2500),
    ])
    def test_equals_reference_loop_in_order(self, workload, num_cores,
                                            references):
        # Rows must come out in the same order: the static manager breaks
        # heat ties by insertion order.
        config = make_config("sas", num_cores=num_cores)

        def lifetime():
            return build_workload_traces(
                workload, derive_seed(1, "profile-run"),
                config.geometry.capacity_bytes, mode="lifetime")

        expected = reference_row_heat(config, lifetime(), references * 2)
        heat = profile_row_heat(config, lifetime(), references * 2)
        assert len(expected) > 100
        assert list(heat.items()) == list(expected.items())

    def test_counts_llc_miss_rows(self, tiny_config):
        heat = profile_row_heat(tiny_config,
                                [small_trace(3000, stride=4096)], 3000)
        assert heat
        assert all(count >= 1 for count in heat.values())
        total_rows = tiny_config.geometry.total_rows
        assert all(0 <= row < total_rows for row in heat)

    def test_cache_hits_not_counted(self, tiny_config):
        # A single repeatedly-hit line produces exactly one miss.
        trace = iter([(1, 0, False) for _ in range(500)])
        heat = profile_row_heat(tiny_config, [trace], 500)
        assert sum(heat.values()) == 1


class TestRunnerCache:
    def test_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = run_workload("libquantum", "standard", references=3000)
        assert list(tmp_path.glob("*.json"))
        second = run_workload("libquantum", "standard", references=3000)
        assert first == second

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            run_workload("nonexistent", "das", references=100)

    def test_asym_config_changes_cache_key(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_workload("libquantum", "das", references=2000)
        count_before = len(list(tmp_path.glob("*.json")))
        run_workload("libquantum", "das", references=2000,
                     asym=AsymmetricConfig(promotion_threshold=4))
        assert len(list(tmp_path.glob("*.json"))) > count_before


class TestMakeConfig:
    def test_mix_config_has_four_cores(self):
        assert make_config("das", num_cores=4).num_cores == 4

    def test_asym_override(self):
        asym = AsymmetricConfig(promotion_threshold=8)
        config = make_config("das", asym=asym)
        assert config.asym.promotion_threshold == 8
