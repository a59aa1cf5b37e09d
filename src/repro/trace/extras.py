"""Extra synthetic workloads beyond the paper's SPEC roster.

These model common datacenter/irregular patterns and are handy for
studying DAS-DRAM outside the paper's evaluation.  They use the same
profile machinery as :mod:`repro.trace.spec2006` and are runnable by
name through ``run_workload`` and the CLI.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator

from ..common.rng import make_rng
from .record import AccessTuple
from .spec2006 import BenchmarkProfile, _profile
from .synthetic import (
    AddressPattern,
    GapModel,
    HotspotPattern,
    MixturePattern,
    PhasedPattern,
    PointerChase,
    SequentialStream,
    StridedPattern,
    UniformRandom,
    ZipfPattern,
    compose,
)


def _kvstore(footprint: int, rng: random.Random) -> AddressPattern:
    """In-memory key-value store: Zipf-hot values plus index walks."""
    hot = ZipfPattern(0, footprint // 4, rng, alpha=1.1,
                      write_fraction=0.3)
    index = PointerChase(footprint // 4, footprint - footprint // 4, rng,
                         write_fraction=0.05)
    return HotspotPattern(hot, index, hot_fraction=0.75, rng=rng)


def _graphwalk(footprint: int, rng: random.Random) -> AddressPattern:
    """BFS-like graph traversal: frontier reuse over random neighbours."""
    frontier = UniformRandom(0, footprint // 8, rng, write_fraction=0.2)
    neighbours = UniformRandom(footprint // 8,
                               footprint - footprint // 8, rng,
                               write_fraction=0.05)
    return HotspotPattern(frontier, neighbours, hot_fraction=0.4, rng=rng)


def _streamcopy(footprint: int, rng: random.Random) -> AddressPattern:
    """STREAM-copy: read one array, write another, relentlessly."""
    half = footprint // 2
    src = SequentialStream(0, half, rng, write_fraction=0.0)
    dst = SequentialStream(half, half, rng, write_fraction=1.0)
    return MixturePattern([(1.0, src), (1.0, dst)], rng)


def _refreshstorm(footprint: int, rng: random.Random) -> AddressPattern:
    """Refresh-dominated idling: sparse random touches over a huge set.

    The long mean gap (set in the profile) leaves banks idle most of the
    time, so refresh overhead — which asymmetric designs restructure —
    becomes a first-order term in the latency account.
    """
    return UniformRandom(0, footprint, rng, write_fraction=0.1)


def _writeburst(footprint: int, rng: random.Random) -> AddressPattern:
    """Alternating read-mostly and write-flood phases (log flushing).

    The write phases stress write-queue drain and dirty-line migration;
    the phase flip is exactly the dynamic-vs-static discriminator the
    paper's DAS design targets.
    """
    half = footprint // 2
    reads = SequentialStream(0, half, rng, write_fraction=0.05)
    writes = SequentialStream(half, half, rng, write_fraction=0.9)
    return PhasedPattern([reads, writes], phase_length=6_000)


def _channelhop(footprint: int, rng: random.Random) -> AddressPattern:
    """Rotating single-channel hot phases (channel-interleaving stress).

    With the default geometry's [line | column | channel | ...] bit
    layout, consecutive 8 KiB blocks alternate channels, so a 16 KiB
    stride pins a stream to one channel and the 8 KiB base offset
    selects which.  Each phase hammers one channel while the other
    idles — the worst case for designs that size fast capacity
    per-channel.
    """
    stride = 16 * 1024
    phases = [
        StridedPattern(channel * 8 * 1024, footprint - 16 * 1024, stride,
                       rng, write_fraction=0.25)
        for channel in (0, 1)
    ]
    return PhasedPattern(phases, phase_length=6_000)


def _footprint(footprint: int, rng: random.Random) -> AddressPattern:
    """Uniform random over exactly the profile footprint (knee sweep)."""
    return UniformRandom(0, footprint, rng, write_fraction=0.2)


def _matrixsweep(footprint: int, rng: random.Random) -> AddressPattern:
    """Blocked matrix traversal: phase-alternating row/column sweeps."""
    half = footprint // 2
    row_major = SequentialStream(0, half, rng, write_fraction=0.25)
    col_major = StridedPattern(half, half, stride=8192, rng=rng,
                               write_fraction=0.25)
    return PhasedPattern([row_major, col_major], phase_length=30_000)


#: Extra workloads, keyed by name.
EXTRA_PROFILES: Dict[str, BenchmarkProfile] = {
    p.name: p
    for p in (
        _profile("kvstore", "synthetic", 16.0, 0, 25.0, 0.25,
                 "zipf+pointer-chase", _kvstore),
        _profile("graphwalk", "synthetic", 24.0, 0, 30.0, 0.1,
                 "frontier+random", _graphwalk),
        _profile("streamcopy", "synthetic", 8.0, 0, 28.0, 0.5,
                 "dual-stream", _streamcopy),
        _profile("matrixsweep", "synthetic", 12.0, 0, 45.0, 0.25,
                 "phased-row/col", _matrixsweep),
        _profile("refreshstorm", "synthetic", 96.0, 0, 220.0, 0.1,
                 "sparse-random", _refreshstorm),
        _profile("writeburst", "synthetic", 8.0, 0, 22.0, 0.45,
                 "phased-read/write", _writeburst),
        _profile("channelhop", "synthetic", 16.0, 0, 24.0, 0.25,
                 "phased-per-channel", _channelhop),
        *(
            _profile(f"fp{mib}m", "synthetic", float(mib), 0, 30.0, 0.2,
                     "uniform-random", _footprint)
            for mib in (8, 16, 32, 64, 128)
        ),
    )
}

#: The stress axes the scenario experiments sweep.
STRESS_NAMES = ["refreshstorm", "writeburst", "channelhop"]

#: Footprint-ladder workloads crossing the fast-level capacity knee
#: (default geometry: 256 MiB device, 32 MiB fast level).
FOOTPRINT_LADDER = ["fp8m", "fp16m", "fp32m", "fp64m", "fp128m"]


def extra_names():
    """The extra workload names."""
    return list(EXTRA_PROFILES)


def build_extra_trace(name: str, seed: int) -> Iterator[AccessTuple]:
    """Build the access stream for an extra workload (episode-free:
    these run their full pattern directly)."""
    profile = EXTRA_PROFILES[name]
    rng = make_rng(seed, f"extra:{name}")
    pattern = profile.builder(profile.footprint_bytes, rng)
    gaps = GapModel(profile.mean_gap, profile.gap_jitter,
                    make_rng(seed, f"extra-gaps:{name}"))
    return compose(pattern, gaps)
