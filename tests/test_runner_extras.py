"""Extra runner-level tests: gap calibration, seeds, metric shapes, the
oracle-profile memo and the post-cache stream memo."""

import dataclasses
import itertools

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import AsymmetricConfig, ControllerConfig
from repro.common.rng import derive_seed
from repro.sim import runner
from repro.sim.runner import fresh_run, make_config, run_workload
from repro.sim.system import profile_row_heat
from repro.trace.library import (
    build_workload_traces,
    import_trace,
    resolve_workload,
)
from repro.trace.spec2006 import PROFILES, build_trace


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))


def _import_strided(tmp_path, stride):
    """Import 500 reads ``stride`` bytes apart as ``trace:t``."""
    path = tmp_path / "t.trace"
    path.write_text("".join(f"3 {i * stride:#x} R\n" for i in range(500)))
    import_trace(path)


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


@pytest.fixture
def profile_passes(monkeypatch):
    """The heat of every oracle profiling pass, from an empty memo."""
    monkeypatch.setattr(runner, "_PROFILE_MEMO", {})
    passes = []
    real = runner.profile_row_heat

    def counted(config, traces, max_references):
        heat = real(config, traces, max_references)
        passes.append(heat)
        return heat

    monkeypatch.setattr(runner, "profile_row_heat", counted)
    return passes


def _smaller_llc(config):
    hierarchy = config.hierarchy
    llc = dataclasses.replace(hierarchy.llc,
                              capacity_bytes=hierarchy.llc.capacity_bytes // 2)
    return config.replace(hierarchy=dataclasses.replace(hierarchy, llc=llc))


class TestOracleProfileMemo:
    """``sas`` and ``charm`` runs with the same profiling inputs share one
    pass; any input the pass reads makes a new one."""

    REFS = 500

    def test_charm_reuses_the_sas_profile(self, profile_passes):
        for design in ("sas", "charm"):
            run_workload("libquantum", design, references=self.REFS,
                         use_cache=False)
        assert len(profile_passes) == 1

    @pytest.mark.parametrize("change", [
        lambda config, refs, seed: (config, refs, seed + 1),
        lambda config, refs, seed: (config, refs + 100, seed),
        lambda config, refs, seed: (_smaller_llc(config), refs, seed),
    ], ids=["seed", "length", "hierarchy"])
    def test_a_changed_input_profiles_again(self, profile_passes, change):
        args = (make_config("sas"), self.REFS, 1)
        fresh_run("libquantum", *args)
        fresh_run("libquantum", *change(*args))
        assert len(profile_passes) == 2

    def test_a_changed_config_seed_reuses_the_profile(self, profile_passes):
        # config.seed seeds only DAS's fast-level replacement, which the
        # profiling pass never builds.
        workload, config = resolve_workload("libquantum"), make_config("sas")
        changed = config.replace(seed=config.seed + 1)
        heat = runner._oracle_profile(workload, config, self.REFS, 1)
        assert runner._oracle_profile(workload, changed, self.REFS,
                                      1) is heat
        assert len(profile_passes) == 1
        traces = build_workload_traces(
            workload, derive_seed(1, "profile-run"),
            changed.geometry.capacity_bytes, mode="lifetime")
        assert profile_row_heat(changed, traces, 2 * self.REFS) == heat

    @pytest.mark.parametrize("override", [
        {"asym": AsymmetricConfig(promotion_threshold=4)},
        {"controller": ControllerConfig(scheduler="fcfs")},
    ], ids=["asym", "controller"])
    def test_asym_or_controller_reuses_the_profile(self, profile_passes,
                                                   override):
        run_workload("libquantum", "sas", references=self.REFS,
                     use_cache=False)
        run_workload("libquantum", "sas", references=self.REFS,
                     use_cache=False, **override)
        assert len(profile_passes) == 1

    def test_rewritten_trace_file_profiles_again(self, profile_passes,
                                                 tmp_path):
        # A trace re-imported under the same name with other records has
        # another content hash, which the profile's key holds.
        for stride in (4096, 8192 + 64):
            _import_strided(tmp_path, stride)
            for design in ("sas", "charm"):
                run_workload("trace:t", design, use_cache=False)
        config = make_config("sas")
        expected = profile_row_heat(config, build_workload_traces(
            "trace:t", 1, config.geometry.capacity_bytes), 1000)
        assert len(profile_passes) == 2
        assert profile_passes[1] == expected != profile_passes[0]

    def test_shared_profile_is_read_only(self, profile_passes):
        heat = runner._oracle_profile(resolve_workload("libquantum"),
                                      make_config("sas"), self.REFS, 1)
        row = next(iter(heat))
        with pytest.raises(TypeError):
            heat[row] = 0
        with pytest.raises(TypeError):
            del heat[row]

    def test_memo_is_bounded_fifo(self, profile_passes):
        capacity = runner._PROFILE_MEMO_CAPACITY
        workload, config = resolve_workload("libquantum"), make_config("sas")
        for seed in range(1, capacity + 3):
            runner._oracle_profile(workload, config, self.REFS, seed)
            assert len(runner._PROFILE_MEMO) <= capacity
        assert len(profile_passes) == capacity + 2
        runner._oracle_profile(workload, config, self.REFS, capacity + 2)
        assert len(profile_passes) == capacity + 2
        runner._oracle_profile(workload, config, self.REFS, 1)
        assert len(profile_passes) == capacity + 3


@pytest.fixture
def stream_work(monkeypatch):
    """Counts of the stream memo's work from empty memo structures:
    recordings, trace builds and live ``access_tuple`` calls."""
    monkeypatch.setattr(runner, "_STREAM_MEMO", {})
    monkeypatch.setattr(runner, "_STREAM_NOTED", {})
    work = {"recordings": 0, "builds": 0, "accesses": 0}
    record = runner.record_cache_stream
    build = runner.build_workload_traces
    access = CacheHierarchy.access_tuple

    def counted_record(*args):
        work["recordings"] += 1
        return record(*args)

    def counted_build(*args, **kwargs):
        work["builds"] += 1
        return build(*args, **kwargs)

    def counted_access(self, *args):
        work["accesses"] += 1
        return access(self, *args)

    monkeypatch.setattr(runner, "record_cache_stream", counted_record)
    monkeypatch.setattr(runner, "build_workload_traces", counted_build)
    monkeypatch.setattr(CacheHierarchy, "access_tuple", counted_access)
    return work


def _larger_device(config):
    geometry = dataclasses.replace(
        config.geometry, rows_per_bank=config.geometry.rows_per_bank * 2)
    return config.replace(geometry=geometry)


class TestCacheStreamMemo:
    """One-core runs with the same trace and cache inputs share one
    recorded post-cache stream, recorded on its second request."""

    REFS = 500

    def _run(self, design="das", **overrides):
        return run_workload("libquantum", design, references=self.REFS,
                            use_cache=False, **overrides)

    def test_recorded_on_the_second_request(self, stream_work):
        self._run()
        assert stream_work == {"recordings": 0, "builds": 1,
                               "accesses": self.REFS}
        self._run()
        assert stream_work == {"recordings": 1, "builds": 2,
                               "accesses": 2 * self.REFS}
        self._run()
        assert stream_work == {"recordings": 1, "builds": 2,
                               "accesses": 2 * self.REFS}

    @pytest.mark.parametrize("change", [
        lambda config, refs, seed: (config, refs, seed + 1),
        lambda config, refs, seed: (config, refs + 100, seed),
        lambda config, refs, seed: (_smaller_llc(config), refs, seed),
        lambda config, refs, seed: (_larger_device(config), refs, seed),
    ], ids=["seed", "length", "hierarchy", "capacity"])
    def test_a_changed_input_is_a_new_stream(self, stream_work, change):
        args = (make_config("das"), self.REFS, 1)
        for _ in range(2):
            fresh_run("libquantum", *args)
        builds = stream_work["builds"]
        fresh_run("libquantum", *change(*args))
        assert stream_work["builds"] == builds + 1
        assert stream_work["recordings"] == 1
        assert len(runner._STREAM_NOTED) == 2

    def test_a_changed_config_seed_replays_the_stream(self, stream_work):
        # The caches are LRU and hold no RNG, so config.seed is not an
        # input of the recording.
        config = make_config("das")
        changed = config.replace(seed=config.seed + 1)
        for _ in range(2):
            fresh_run("libquantum", config, self.REFS, 1)
        before = dict(stream_work)
        replayed = fresh_run("libquantum", changed, self.REFS, 1)
        assert stream_work == before
        assert len(runner._STREAM_NOTED) == 1
        runner._STREAM_MEMO.clear()
        runner._STREAM_NOTED.clear()
        live = fresh_run("libquantum", changed, self.REFS, 1)
        assert stream_work["accesses"] == before["accesses"] + self.REFS
        assert replayed.to_dict() == live.to_dict()

    @pytest.mark.parametrize("override", [
        {"design": "standard"},
        {"asym": AsymmetricConfig(promotion_threshold=4)},
        {"controller": ControllerConfig(scheduler="fcfs")},
    ], ids=["design", "asym", "controller"])
    def test_design_asym_or_controller_reuses_the_stream(self, stream_work,
                                                         override):
        for _ in range(2):
            self._run()
        before = dict(stream_work)
        self._run(**override)
        assert stream_work == before

    def test_four_core_mix_never_reaches_the_memo(self, stream_work):
        for _ in range(2):
            run_workload("M1", "das", references=200, use_cache=False)
        assert runner._STREAM_NOTED == {} and runner._STREAM_MEMO == {}
        assert stream_work["recordings"] == 0

    def test_rewritten_trace_file_is_never_memoised(self, stream_work,
                                                    tmp_path):
        # A re-import under the same name is a new stream: its first run
        # is live, its second records it, and the old recording never
        # answers for it.
        results = []
        for stride in (4096, 8192 + 64):
            _import_strided(tmp_path, stride)
            accesses = stream_work["accesses"]
            runs = [run_workload("trace:t", "das", use_cache=False).to_dict()
                    for _ in range(3)]
            assert stream_work["accesses"] == accesses + 2 * 500
            assert runs[0] == runs[1] == runs[2]
            results.append(runs[0])
        assert stream_work["recordings"] == 2
        assert len(runner._STREAM_NOTED) == 2
        assert results[0] != results[1]

    def test_both_structures_stay_within_bounds(self, stream_work):
        workload, config = resolve_workload("libquantum"), make_config("das")
        noted = runner._STREAM_NOTED_CAPACITY
        for seed in range(noted + 2):
            assert runner._cache_stream(workload, config, 50, seed) is None
            assert len(runner._STREAM_NOTED) <= noted
        # Seeds 0 and 1 were evicted, so seed 0 is only noted again;
        # the two newest keys record on their second request.
        assert runner._cache_stream(workload, config, 50, 0) is None
        for seed in (noted + 1, noted):
            assert runner._cache_stream(workload, config, 50,
                                        seed) is not None
            assert len(runner._STREAM_MEMO) <= runner._STREAM_MEMO_CAPACITY
        assert stream_work["recordings"] == 2
        assert len(runner._STREAM_NOTED) == noted
