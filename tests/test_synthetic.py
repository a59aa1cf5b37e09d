"""Unit and property tests for the synthetic address-pattern generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import make_rng
from repro.trace.synthetic import (
    GapModel,
    HotspotPattern,
    MixturePattern,
    OffsetPattern,
    PhasedPattern,
    PointerChase,
    SequentialStream,
    StridedPattern,
    UniformRandom,
    ZipfPattern,
    compose,
)


def rng(label="gen"):
    return make_rng(99, label)


class TestGapModel:
    def test_constant_mean(self):
        model = GapModel(5.0, 0.0, rng())
        gaps = model.next_gaps(100)
        assert all(g == 5 for g in gaps)

    def test_fractional_mean_long_run_average(self):
        model = GapModel(2.5, 0.0, rng())
        gaps = model.next_gaps(1000)
        assert sum(gaps) / len(gaps) == pytest.approx(2.5, abs=0.05)

    def test_jitter_respects_non_negativity(self):
        model = GapModel(1.0, 5.0, rng())
        assert all(gap >= 0 for gap in model.next_gaps(500))

    def test_rejects_negative_mean(self):
        with pytest.raises(ValueError):
            GapModel(-1.0, 0.0, rng())

    @given(st.floats(min_value=0.5, max_value=50.0),
           st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=25)
    def test_mean_property(self, mean, jitter):
        model = GapModel(mean, jitter, rng())
        gaps = model.next_gaps(2000)
        assert sum(gaps) / len(gaps) == pytest.approx(mean, rel=0.15,
                                                      abs=0.6)


class TestSequentialStream:
    def test_addresses_advance_by_line(self):
        stream = SequentialStream(0, 1024, rng(), line_bytes=64)
        addresses = [a for a, _ in stream.take(4)]
        assert addresses == [0, 64, 128, 192]

    def test_wraps_inside_region(self):
        stream = SequentialStream(0, 256, rng(), line_bytes=64)
        addresses = [a for a, _ in stream.take(10)]
        assert max(addresses) < 256
        assert addresses[4] == 0

    def test_base_offsets(self):
        stream = SequentialStream(4096, 512, rng())
        assert stream.take(1)[0][0] == 4096

    def test_write_fraction(self):
        stream = SequentialStream(0, 65536, rng(), write_fraction=1.0)
        assert all(w for _, w in stream.take(50))

    def test_rejects_tiny_region(self):
        with pytest.raises(ValueError):
            SequentialStream(0, 32, rng(), line_bytes=64)


class TestStridedPattern:
    def test_stride_spacing(self):
        pattern = StridedPattern(0, 8192, 1024, rng())
        addresses = [a for a, _ in pattern.take(4)]
        assert addresses == [0, 1024, 2048, 3072]

    def test_stays_in_region(self):
        pattern = StridedPattern(0, 4096, 512, rng())
        assert all(0 <= a < 4096 for a, _ in pattern.take(100))

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            StridedPattern(0, 4096, 0, rng())


class TestUniformRandom:
    def test_alignment_and_bounds(self):
        pattern = UniformRandom(1024, 8192, rng(), granularity=64)
        for address, _ in pattern.take(200):
            assert 1024 <= address < 1024 + 8192
            assert (address - 1024) % 64 == 0

    def test_covers_region(self):
        pattern = UniformRandom(0, 64 * 16, rng(), granularity=64)
        seen = {a for a, _ in pattern.take(1000)}
        assert len(seen) == 16


class TestHotspotPattern:
    def test_hot_fraction(self):
        hot = SequentialStream(0, 1024, rng("h"))
        cold = SequentialStream(1 << 20, 1024, rng("c"))
        pattern = HotspotPattern(hot, cold, 0.8, rng("sel"))
        sample = pattern.take(2000)
        hot_count = sum(1 for a, _ in sample if a < 1 << 20)
        assert hot_count / len(sample) == pytest.approx(0.8, abs=0.05)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            HotspotPattern(SequentialStream(0, 1024, rng()),
                           SequentialStream(0, 1024, rng()), 1.5, rng())


class TestZipfPattern:
    def test_skewed_popularity(self):
        pattern = ZipfPattern(0, 64 * 4096, rng(), alpha=1.2)
        counts = {}
        for address, _ in pattern.take(5000):
            block = address // 4096
            counts[block] = counts.get(block, 0) + 1
        top = max(counts.values())
        assert top > 5000 / 64 * 4  # far above uniform share

    def test_bounds(self):
        pattern = ZipfPattern(4096, 16 * 4096, rng())
        assert all(4096 <= a < 4096 + 16 * 4096
                   for a, _ in pattern.take(500))

    def test_rejects_small_region(self):
        with pytest.raises(ValueError):
            ZipfPattern(0, 1024, rng(), block_bytes=4096)


class TestPointerChase:
    def test_visits_every_node_once_per_cycle(self):
        nodes = 32
        pattern = PointerChase(0, nodes * 64, rng(), granularity=64)
        addresses = [a for a, _ in pattern.take(nodes)]
        assert len(set(addresses)) == nodes

    def test_cycle_repeats(self):
        nodes = 16
        pattern = PointerChase(0, nodes * 64, rng(), granularity=64)
        walk = [a for a, _ in pattern.take(nodes * 2)]
        assert walk[:nodes] == walk[nodes:]

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            PointerChase(0, 64, rng())


class TestPhasedPattern:
    def test_switches_each_phase(self):
        a = SequentialStream(0, 1024, rng("a"))
        b = SequentialStream(1 << 20, 1024, rng("b"))
        pattern = PhasedPattern([a, b], phase_length=3)
        sample = [addr for addr, _ in pattern.take(6)]
        assert all(addr < 1 << 20 for addr in sample[:3])
        assert all(addr >= 1 << 20 for addr in sample[3:])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PhasedPattern([], 10)


class TestMixturePattern:
    def test_weights_respected(self):
        a = SequentialStream(0, 1024, rng("a"))
        b = SequentialStream(1 << 20, 1024, rng("b"))
        pattern = MixturePattern([(0.25, a), (0.75, b)], rng("mix"))
        sample = pattern.take(4000)
        b_share = sum(1 for addr, _ in sample if addr >= 1 << 20) / 4000
        assert b_share == pytest.approx(0.75, abs=0.05)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            MixturePattern([(-1.0, SequentialStream(0, 1024, rng()))],
                           rng())


class TestOffsetPattern:
    def test_offsets_addresses(self):
        inner = SequentialStream(0, 1024, rng())
        pattern = OffsetPattern(inner, 1 << 16)
        assert pattern.take(1)[0][0] == 1 << 16

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            OffsetPattern(SequentialStream(0, 1024, rng()), -1)


class TestCompose:
    def test_produces_access_tuples(self):
        pattern = SequentialStream(0, 1024, rng())
        gaps = GapModel(3.0, 0.0, rng("g"))
        first = next(compose(pattern, gaps))
        assert first == (3, 0, False)


class TestDeterminism:
    @pytest.mark.parametrize("factory", [
        lambda r: SequentialStream(0, 4096, r),
        lambda r: UniformRandom(0, 4096, r),
        lambda r: ZipfPattern(0, 16 * 4096, r),
        lambda r: PointerChase(0, 4096, r),
    ])
    def test_same_rng_same_stream(self, factory):
        a = factory(make_rng(5, "d")).take(50)
        b = factory(make_rng(5, "d")).take(50)
        assert a == b
