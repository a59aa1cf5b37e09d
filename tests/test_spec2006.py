"""Tests for the SPEC CPU2006 benchmark profiles and trace builders."""

import itertools

import pytest

from repro.trace.spec2006 import (
    PROFILES,
    SINGLE_PROGRAM_ORDER,
    _episode_pattern,
    benchmark_names,
    build_pattern,
    build_trace,
    lifetime_episodes,
)

TABLE2_BENCHMARKS = {
    "astar", "cactusADM", "GemsFDTD", "lbm", "leslie3d",
    "libquantum", "mcf", "milc", "omnetpp", "soplex",
}


class TestRoster:
    def test_matches_table2(self):
        assert set(PROFILES) == TABLE2_BENCHMARKS

    def test_order_covers_all(self):
        assert set(SINGLE_PROGRAM_ORDER) == TABLE2_BENCHMARKS

    def test_benchmark_names_copy(self):
        names = benchmark_names()
        names.append("bogus")
        assert "bogus" not in benchmark_names()

    @pytest.mark.parametrize("name", sorted(TABLE2_BENCHMARKS))
    def test_profile_sanity(self, name):
        profile = PROFILES[name]
        assert profile.footprint_bytes > 0
        assert profile.mean_gap > 0
        assert 0.0 <= profile.write_fraction <= 1.0
        assert profile.lifetime_spread >= 1.0

    def test_mcf_has_largest_footprint(self):
        assert max(PROFILES.values(),
                   key=lambda p: p.footprint_bytes).name == "mcf"

    def test_lifetime_episodes_scale_with_spread(self):
        assert lifetime_episodes(PROFILES["libquantum"]) >= 24
        assert lifetime_episodes(PROFILES["mcf"]) >= 5


class TestBuildTrace:
    @pytest.mark.parametrize("name", sorted(TABLE2_BENCHMARKS))
    def test_produces_access_tuples(self, name):
        trace = build_trace(name, seed=3)
        for gap, address, is_write in itertools.islice(trace, 100):
            assert gap >= 0
            assert address >= 0
            assert isinstance(is_write, bool)

    def test_deterministic(self):
        a = list(itertools.islice(build_trace("mcf", seed=3), 200))
        b = list(itertools.islice(build_trace("mcf", seed=3), 200))
        assert a == b

    def test_seed_changes_stream(self):
        a = list(itertools.islice(build_trace("mcf", seed=3), 200))
        b = list(itertools.islice(build_trace("mcf", seed=4), 200))
        assert a != b

    def test_episode_stays_within_lifetime(self):
        profile = PROFILES["libquantum"]
        lifetime = profile.footprint_bytes * profile.lifetime_spread
        trace = build_trace("libquantum", seed=1)
        for _gap, address, _w in itertools.islice(trace, 2000):
            assert address <= lifetime + profile.footprint_bytes

    def test_episode_footprint_near_profile(self):
        profile = PROFILES["libquantum"]
        trace = build_trace("libquantum", seed=1)
        lines = {address // 64
                 for _g, address, _w in itertools.islice(trace, 60_000)}
        touched = len(lines) * 64
        assert touched == pytest.approx(profile.footprint_bytes, rel=0.2)

    def test_episodes_differ(self):
        # Each episode draws from its own RNG stream.
        profile = PROFILES["libquantum"]
        a = _episode_pattern(profile, seed=1, episode=0).take(50)
        b = _episode_pattern(profile, seed=1, episode=1).take(50)
        assert a != b

    def test_lifetime_mode_covers_more_than_episode(self):
        episode_lines = {
            a // 4096 for a, _ in
            build_pattern("omnetpp", 1, mode="episode").take(20_000)}
        lifetime_lines = {
            a // 4096 for a, _ in
            build_pattern("omnetpp", 1, mode="lifetime").take(20_000)}
        assert len(lifetime_lines) > len(episode_lines)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            build_pattern("mcf", 1, mode="sideways")

    def test_write_fractions_present(self):
        trace = build_trace("lbm", seed=2)
        writes = sum(1 for _g, _a, w in itertools.islice(trace, 5000) if w)
        assert 0.3 < writes / 5000 < 0.7
