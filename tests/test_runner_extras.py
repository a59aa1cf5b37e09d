"""Extra runner-level tests: gap calibration, seeds, metric shapes."""

import itertools

import pytest

from repro.sim.runner import run_workload
from repro.trace.spec2006 import PROFILES, build_trace


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestSeeds:
    def test_seed_changes_results(self):
        a = run_workload("omnetpp", "standard", references=4000, seed=1)
        b = run_workload("omnetpp", "standard", references=4000, seed=2)
        assert a.time_ns != b.time_ns

    def test_same_seed_same_results(self):
        a = run_workload("omnetpp", "standard", references=4000, seed=3,
                         use_cache=False)
        b = run_workload("omnetpp", "standard", references=4000, seed=3,
                         use_cache=False)
        assert a.time_ns == b.time_ns
        assert a.llc_misses == b.llc_misses


class TestGapCalibration:
    @pytest.mark.parametrize("name", ["libquantum", "mcf", "omnetpp",
                                      "cactusADM"])
    def test_mean_gap_matches_profile(self, name):
        profile = PROFILES[name]
        trace = build_trace(name, seed=9)
        gaps = [gap for gap, _a, _w in itertools.islice(trace, 20_000)]
        measured = sum(gaps) / len(gaps)
        assert measured == pytest.approx(profile.mean_gap, rel=0.1)

    @pytest.mark.parametrize("name", ["lbm", "soplex"])
    def test_write_fraction_plausible(self, name):
        profile = PROFILES[name]
        trace = build_trace(name, seed=9)
        writes = sum(1 for _g, _a, w in itertools.islice(trace, 20_000)
                     if w)
        assert writes / 20_000 == pytest.approx(profile.write_fraction,
                                                abs=0.15)


class TestMetricsShape:
    def test_percentiles_ordered(self):
        metrics = run_workload("mcf", "standard", references=4000)
        p = metrics.read_latency_percentiles_ns
        assert p["p50"] <= p["p95"] <= p["p99"]

    def test_mix_has_four_ipc_entries(self):
        metrics = run_workload("M5", "standard", references=1500)
        assert len(metrics.ipc) == 4
        assert len(metrics.time_ns) == 4
