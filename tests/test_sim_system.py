"""Integration tests for system assembly, profiling and the runner."""

import random

import pytest

from repro.cache.hierarchy import MEMORY, CacheHierarchy
from repro.cache.recording import record_cache_stream
from repro.common.config import AsymmetricConfig, CacheConfig, HierarchyConfig
from repro.common.rng import derive_seed
from repro.core.variants import DESIGNS
from repro.dram.address import AddressMapping
from repro.obs.timeline import default_timeline_interval
from repro.sim import runner
from repro.sim.runner import fresh_run, make_config, run_workload
from repro.sim.system import profile_row_heat, simulate
from repro.trace.library import build_workload_traces, import_trace
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
    hierarchy = CacheHierarchy(config.hierarchy, len(traces))
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


@pytest.fixture
def replay_library(tmp_path, monkeypatch):
    """A trace library holding one 2000-record k6 trace: every third
    request a write, and a stride that folds the lines into few LLC
    sets, so dirty lines spill to DRAM."""
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
    source = tmp_path / "k6_replay.trc"
    source.write_text("".join(
        f"{(i * 0x11000) % (1 << 26):x} "
        f"{'P_MEM_WR' if i % 3 == 0 else 'P_MEM_RD'} {i * 5}\n"
        for i in range(2000)))
    import_trace(source)
    return "trace:k6_replay"


def _outcome(result):
    """An ``access_tuple`` result with its writebacks as a tuple."""
    level, latency, demand_fill, writebacks = result
    return (level, latency, demand_fill, tuple(writebacks))


class TestCacheRecording:
    """A run over a recorded post-cache stream equals the live run it
    stands in for; the live :class:`CacheHierarchy` is the reference.
    The runs use the 16 KB LLC of ``tiny_hierarchy``, so that within
    3000 references every workload spills dirty lines to DRAM, also on
    L2 and LLC hits (lbm fills the default 1 MB LLC after 16k)."""

    REFS = 3000

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("workload", ["lbm", "mcf", "refreshstorm",
                                          "imported"])
    def test_replay_equals_live_run(self, workload, design, monkeypatch,
                                    request, tiny_hierarchy):
        # The first request runs live and notes the stream; the second
        # records it and replays.  The warmup reset and every window
        # boundary fall inside the stream.
        if workload == "imported":
            workload = request.getfixturevalue("replay_library")
        monkeypatch.setattr(runner, "_STREAM_MEMO", {})
        monkeypatch.setattr(runner, "_STREAM_NOTED", {})
        config = make_config(design).replace(hierarchy=tiny_hierarchy)
        live, replay = (fresh_run(workload, config, self.REFS).to_dict()
                        for _ in range(2))
        assert len(runner._STREAM_MEMO) == 1
        assert live["timeline"]["interval_refs"] == \
            default_timeline_interval(self.REFS)
        assert live["timeline"]["windows"]
        assert replay == live

    def test_streams_hold_writebacks_and_end_with_the_file(
            self, replay_library, tiny_hierarchy):
        capacity = make_config("das").geometry.capacity_bytes
        lengths = {}
        for workload in ("lbm", "mcf", "refreshstorm", replay_library):
            trace, = build_workload_traces(workload, 1, capacity)
            recording = record_cache_stream(tiny_hierarchy, trace, self.REFS)
            assert len(recording.writebacks) > 0
            lengths[workload] = len(recording)
        assert lengths.pop(replay_library) == 2000 < self.REFS
        assert set(lengths.values()) == {self.REFS}

    def test_stand_in_answers_as_the_live_hierarchy(self):
        # An L1 larger than the LLC, and random reuse with half the
        # references writes: the stream holds every outcome there is,
        # including L2 and LLC hits that spill dirty lines to DRAM.
        hierarchy = HierarchyConfig(
            l1=CacheConfig(4096, 4, latency_cycles=4),
            l2=CacheConfig(2048, 4, latency_cycles=12),
            llc=CacheConfig(1024, 4, latency_cycles=20))
        rng = random.Random(5)
        accesses = [(rng.randrange(4), rng.randrange(100) * 64 + 8,
                     rng.random() < 0.5) for _ in range(self.REFS)]
        recording = record_cache_stream(hierarchy, iter(accesses),
                                        self.REFS)
        assert set(recording.codes) == {0, 1, 2, 3, 5, 6, 7, 10, 11, 15}
        live = CacheHierarchy(hierarchy, 1)
        stand_in = recording.hierarchy()
        assert list(recording.references()) == accesses
        for index, (_gap, address, is_write) in enumerate(accesses):
            assert (_outcome(stand_in.access_tuple(0, address, is_write))
                    == _outcome(live.access_tuple(0, address, is_write)))
            if index % 700 == 0:
                live.reset_stats()
                stand_in.reset_stats()
            if index % 97 == 0:
                assert stand_in.stats_group() == live.stats_group()
                assert stand_in.total_llc_misses() == live.total_llc_misses()

    def test_recording_rejects_writes(self):
        config = make_config("das")
        recording = record_cache_stream(config.hierarchy,
                                        build_trace("lbm", 1), 500)
        for column in ("gaps", "addresses", "writes", "codes", "writebacks"):
            with pytest.raises(TypeError):
                getattr(recording, column)[0] = 1

    @pytest.mark.parametrize("access", [
        (-1, 0, False), (1 << 64, 0, False), (0, 1 << 64, True),
    ], ids=["negative-gap", "wide-gap", "wide-address"])
    def test_a_value_outside_its_column_raises(self, access):
        config = make_config("das")
        with pytest.raises(OverflowError):
            record_cache_stream(config.hierarchy, iter([access]), 1)


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
