"""Synthetic stand-ins for the paper's SPEC CPU2006 workloads (Table 2).

The paper drives Marss86 with ten memory-bound SPEC CPU2006 benchmarks.
Real SPEC traces are proprietary, so each benchmark is replaced by a
synthetic generator whose *memory character* matches the published
behaviour of the benchmark (access-pattern class, footprint, memory
intensity, read/write balance, phase behaviour).  Footprints are the
paper's footprints scaled by the repo's 1/32 scaling contract (DESIGN.md).

The generator classes composed here are in :mod:`repro.trace.synthetic`.
The per-benchmark mean instruction gap is calibrated so that the measured
LLC MPKI lands near the bars of Figure 7b.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List

from ..common.rng import make_rng
from ..common.units import MiB
from .record import AccessTuple
from .synthetic import (
    AddressPattern,
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

#: Minimum number of program episodes making up one benchmark lifetime.
#: A simulated run measures ONE episode (the paper samples execution
#: windows); the oracle profile of the static designs (SAS / CHARM) is
#: gathered over the whole lifetime, which is what makes static
#: assignment capture lifetime-hot rather than phase-hot data.  Episodes
#: tile the lifetime footprint, so their count grows with the
#: benchmark's ``lifetime_spread``.
MIN_LIFETIME_EPISODES = 5


def lifetime_episodes(profile: "BenchmarkProfile") -> int:
    """Episode count for a benchmark: windows tile the lifetime range."""
    import math

    return max(MIN_LIFETIME_EPISODES, math.ceil(profile.lifetime_spread))

PatternBuilder = Callable[[int, random.Random], AddressPattern]


@dataclass(frozen=True)
class BenchmarkProfile:
    """Memory character of one SPEC CPU2006 benchmark.

    ``footprint_bytes`` is at the repo's default 1/32 scale;
    ``paper_footprint_mb`` records the unscaled figure for documentation.
    ``mean_gap`` is the average number of non-memory instructions between
    trace references and sets memory intensity (hence MPKI).
    """

    name: str
    input_name: str
    footprint_bytes: int
    paper_footprint_mb: int
    mean_gap: float
    gap_jitter: float
    write_fraction: float
    pattern_class: str
    builder: PatternBuilder
    #: Lifetime footprint as a multiple of the episode footprint.  Drives
    #: how much a whole-program profile dilutes an episode's hot set.
    lifetime_spread: float = 3.0


def _astar(footprint: int, rng: random.Random) -> AddressPattern:
    """Graph path-finding: pointer chasing with a reused frontier region."""
    hot = PointerChase(0, footprint // 8, rng, write_fraction=0.2)
    cold = PointerChase(0, footprint, rng, write_fraction=0.2)
    return HotspotPattern(hot, cold, hot_fraction=0.6, rng=rng)


def _cactusadm(footprint: int, rng: random.Random) -> AddressPattern:
    """3-D stencil: several long strided sweeps through a big grid."""
    third = footprint // 3
    lanes = [
        StridedPattern(i * third, third, stride=4096, rng=rng,
                       write_fraction=0.3)
        for i in range(3)
    ]
    return MixturePattern([(1.0, lane) for lane in lanes], rng)


def _gemsfdtd(footprint: int, rng: random.Random) -> AddressPattern:
    """FDTD solver: phase-alternating streams over large field arrays."""
    third = footprint // 3
    fields = [
        SequentialStream(i * third, third, rng, write_fraction=0.33)
        for i in range(3)
    ]
    return PhasedPattern(fields, phase_length=60_000)


def _lbm(footprint: int, rng: random.Random) -> AddressPattern:
    """Lattice-Boltzmann: two-grid streaming with heavy writes."""
    half = footprint // 2
    src = SequentialStream(0, half, rng, write_fraction=0.1)
    dst = SequentialStream(half, half, rng, write_fraction=0.9)
    return MixturePattern([(1.0, src), (1.0, dst)], rng)


def _leslie3d(footprint: int, rng: random.Random) -> AddressPattern:
    """Eddy simulation: strided stencil over a compact grid."""
    half = footprint // 2
    lanes = [
        StridedPattern(0, half, stride=2048, rng=rng, write_fraction=0.3),
        SequentialStream(half, half, rng, write_fraction=0.3),
    ]
    return MixturePattern([(1.0, lane) for lane in lanes], rng)


def _libquantum(footprint: int, rng: random.Random) -> AddressPattern:
    """Quantum simulation: a single relentless sequential vector sweep."""
    return SequentialStream(0, footprint, rng, write_fraction=0.25)


def _mcf(footprint: int, rng: random.Random) -> AddressPattern:
    """Network simplex: pointer chasing over a huge arc array, with hot
    tree levels absorbing most references (the miss stream is strongly
    concentrated even though the touched footprint is huge)."""
    hot_bytes = footprint // 2
    hot = ZipfPattern(0, hot_bytes, rng, alpha=1.2, write_fraction=0.15)
    cold = PointerChase(hot_bytes, footprint - hot_bytes, rng,
                        write_fraction=0.15)
    return HotspotPattern(hot, cold, hot_fraction=0.85, rng=rng)


def _milc(footprint: int, rng: random.Random) -> AddressPattern:
    """Lattice QCD: sweeps over lattice sub-volumes phase by phase, with a
    scattered gather/scatter component on neighbour links."""
    quarter = footprint // 4
    phases = [
        MixturePattern(
            [
                (0.7, SequentialStream(i * quarter, quarter, rng,
                                       write_fraction=0.3)),
                (0.3, UniformRandom(i * quarter, quarter, rng,
                                    write_fraction=0.3)),
            ],
            rng,
        )
        for i in range(4)
    ]
    return PhasedPattern(phases, phase_length=50_000)


def _omnetpp(footprint: int, rng: random.Random) -> AddressPattern:
    """Discrete-event simulation: Zipf-popular event/message heap."""
    return ZipfPattern(0, footprint, rng, alpha=1.1, write_fraction=0.3)


def _soplex(footprint: int, rng: random.Random) -> AddressPattern:
    """Simplex LP: sparse-matrix sweeps plus hot pivot columns."""
    sweep = SequentialStream(0, footprint, rng, write_fraction=0.1)
    pivots = ZipfPattern(0, footprint // 8, rng, alpha=1.0,
                         write_fraction=0.1)
    return MixturePattern([(0.55, sweep), (0.45, pivots)], rng)


def _profile(
    name: str,
    input_name: str,
    footprint_mib: float,
    paper_footprint_mb: int,
    mean_gap: float,
    write_fraction: float,
    pattern_class: str,
    builder: PatternBuilder,
    gap_jitter: float = 2.0,
    lifetime_spread: float = 3.0,
) -> BenchmarkProfile:
    return BenchmarkProfile(
        name=name,
        input_name=input_name,
        footprint_bytes=int(footprint_mib * MiB),
        paper_footprint_mb=paper_footprint_mb,
        mean_gap=mean_gap,
        gap_jitter=gap_jitter,
        write_fraction=write_fraction,
        pattern_class=pattern_class,
        builder=builder,
        lifetime_spread=lifetime_spread,
    )


#: The ten single-programming workloads of Table 2, keyed by benchmark name.
PROFILES: Dict[str, BenchmarkProfile] = {
    p.name: p
    for p in (
        _profile("astar", "BigLakes2048", 6.0, 200, 55.0, 0.2,
                 "pointer-chase+hotspot", _astar, lifetime_spread=8.0),
        _profile("cactusADM", "benchADM", 19.0, 620, 160.0, 0.3,
                 "strided-stencil", _cactusadm, lifetime_spread=3.0),
        _profile("GemsFDTD", "ref", 26.0, 840, 62.0, 0.33,
                 "phased-streams", _gemsfdtd, lifetime_spread=2.5),
        _profile("lbm", "lbm", 13.0, 410, 30.0, 0.5,
                 "two-grid-stream", _lbm, lifetime_spread=4.0),
        _profile("leslie3d", "leslie3d", 3.0, 80, 78.0, 0.3,
                 "strided-stencil", _leslie3d, lifetime_spread=16.0),
        _profile("libquantum", "ref", 2.0, 64, 33.0, 0.25,
                 "sequential-stream", _libquantum, lifetime_spread=24.0),
        _profile("mcf", "ref", 40.0, 1700, 24.0, 0.15,
                 "pointer-chase+zipf", _mcf, lifetime_spread=1.6),
        _profile("milc", "su3imp", 21.0, 680, 50.0, 0.3,
                 "phased-random", _milc, lifetime_spread=3.0),
        _profile("omnetpp", "omnetpp", 5.0, 160, 40.0, 0.3,
                 "zipf-heap", _omnetpp, lifetime_spread=10.0),
        _profile("soplex", "pds-50", 8.0, 250, 21.0, 0.1,
                 "stream+zipf", _soplex, lifetime_spread=6.0),
    )
}

#: Table 2 order for reporting.
SINGLE_PROGRAM_ORDER: List[str] = [
    "omnetpp", "astar", "cactusADM", "leslie3d", "mcf",
    "milc", "GemsFDTD", "soplex", "lbm", "libquantum",
]


def benchmark_names() -> List[str]:
    """The single-programming workload names in reporting order."""
    return list(SINGLE_PROGRAM_ORDER)


def _episode_pattern(profile: BenchmarkProfile, seed: int,
                     episode: int) -> AddressPattern:
    """One episode: the benchmark pattern placed at its lifetime offset.

    Each episode gets its own RNG stream, so structurally random layouts
    (pointer-chase permutations, Zipf block shuffles) differ per episode
    the way allocation layouts differ across program phases.
    """
    footprint = profile.footprint_bytes
    episodes = lifetime_episodes(profile)
    lifetime = int(footprint * profile.lifetime_spread)
    if episodes > 1:
        stride = max(0, (lifetime - footprint) // (episodes - 1))
    else:
        stride = 0
    rng = make_rng(seed, f"pattern:{profile.name}:ep{episode}")
    inner = profile.builder(footprint, rng)
    return OffsetPattern(inner, episode * stride)


def build_pattern(name: str, seed: int,
                  mode: str = "episode") -> AddressPattern:
    """Construct the address pattern for one benchmark.

    ``mode='episode'`` (the default) builds the middle program episode —
    the sampled execution window a run measures.  ``mode='lifetime'``
    builds the whole-program pattern (all episodes, finely interleaved),
    which is what the static designs' oracle profile observes.
    """
    profile = PROFILES[name]
    episodes = lifetime_episodes(profile)
    if mode == "episode":
        return _episode_pattern(profile, seed, episodes // 2)
    if mode == "lifetime":
        parts = [_episode_pattern(profile, seed, index)
                 for index in range(episodes)]
        mix_rng = make_rng(seed, f"lifetime:{name}")
        return MixturePattern([(1.0, part) for part in parts], mix_rng)
    raise ValueError(f"unknown mode {mode!r}")


def build_trace(name: str, seed: int,
                mode: str = "episode") -> Iterator[AccessTuple]:
    """Construct the full access-tuple stream for one benchmark."""
    profile = PROFILES[name]
    pattern = build_pattern(name, seed, mode)
    gaps = GapModel(profile.mean_gap, profile.gap_jitter,
                    make_rng(seed, f"gaps:{name}"))
    return compose(pattern, gaps)
