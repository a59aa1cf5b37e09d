"""Tests for run metrics."""

import dataclasses
import json

import pytest

from repro.common.config import DESIGNS
from repro.sim.metrics import RunMetrics
from repro.sim.runner import run_workload


def metrics(**overrides):
    base = dict(
        workload="w", design="das", references=1000, instructions=10_000,
        time_ns=[1000.0], ipc=[1.0], llc_misses=100, promotions=10,
        dram_accesses=200, footprint_bytes=8192,
        access_locations={"row_buffer": 0.5, "fast": 0.4, "slow": 0.1},
    )
    base.update(overrides)
    return RunMetrics(**base)


class TestDerivedMetrics:
    def test_mpki(self):
        assert metrics().mpki == pytest.approx(10.0)

    def test_mpki_zero_instructions(self):
        assert metrics(instructions=0).mpki == 0.0

    def test_ppkm(self):
        assert metrics().ppkm == pytest.approx(100.0)

    def test_ppkm_zero_misses(self):
        assert metrics(llc_misses=0).ppkm == 0.0

    def test_promotions_per_access(self):
        assert metrics().promotions_per_access == pytest.approx(0.05)

    def test_total_time(self):
        assert metrics(time_ns=[10.0, 30.0, 20.0]).total_time_ns == 30.0

    def test_dynamic_energy(self):
        m = metrics(energy_nj={"activate_nj": 3.0, "column_nj": 2.0})
        assert m.dynamic_energy_nj == pytest.approx(5.0)


class TestSpeedup:
    def test_single_core_speedup(self):
        base = metrics(time_ns=[2000.0])
        fast = metrics(time_ns=[1000.0])
        assert fast.speedup_over(base) == pytest.approx(2.0)
        assert fast.improvement_percent(base) == pytest.approx(100.0)

    def test_multicore_mean_of_ratios(self):
        base = metrics(time_ns=[2000.0, 1000.0])
        fast = metrics(time_ns=[1000.0, 1000.0])
        assert fast.speedup_over(base) == pytest.approx(1.5)

    def test_rejects_core_count_mismatch(self):
        with pytest.raises(ValueError):
            metrics(time_ns=[1.0]).speedup_over(
                metrics(time_ns=[1.0, 2.0]))

    def test_rejects_zero_time(self):
        with pytest.raises(ValueError):
            metrics(time_ns=[0.0]).speedup_over(metrics(time_ns=[1.0]))


class TestSerialisation:
    def test_roundtrip(self):
        original = metrics()
        clone = RunMetrics.from_dict(original.to_dict())
        assert clone == original

    def test_dict_is_plain(self):
        import json

        assert json.loads(json.dumps(metrics().to_dict()))

    @pytest.mark.parametrize("workload, design",
                             [("mcf", design) for design in DESIGNS]
                             + [("M1", "das")])
    def test_field_dict_equals_asdict_of_a_full_run(self, workload, design):
        # to_dict shares the nested fields instead of deep-copying them;
        # the dicts and their JSON must still equal asdict's.
        run = run_workload(workload, design, references=800,
                           use_cache=False)
        assert run.stats and run.timeline
        assert run.to_dict() == dataclasses.asdict(run)
        assert (json.dumps(run.to_dict(), sort_keys=True)
                == json.dumps(dataclasses.asdict(run), sort_keys=True))
