"""Cached experiment runner.

Runs are pure functions of (workload, design, config, seed, length), so
results are memoised in the content-addressed result store under
``.repro_cache/`` (override with ``REPRO_CACHE_DIR``; see
:mod:`repro.store`).  A figure regenerated again, or a run several
figures share (every improvement table needs the standard baseline), is
recalled rather than simulated.  Workload names resolve in one place,
:func:`repro.trace.library.resolve_workload`, before any key exists.
"""

from __future__ import annotations

import time
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

from ..cache.recording import CacheRecording, record_cache_stream
from ..common.config import AsymmetricConfig, ControllerConfig, SystemConfig
from ..common.rng import derive_seed
from ..core.variants import PROFILED_DESIGNS
from ..cpu.multicore import WARMUP_FRACTION
from ..trace.library import (
    Workload,
    build_workload_traces,
    resolve_workload,
    workload_cache_token,
    workload_shape,
)
from .metrics import RunMetrics
from .system import profile_row_heat, simulate

#: Bump to invalidate every cached result after a model change.
CODE_VERSION = 10


def make_config(
    design: str,
    num_cores: int = 1,
    seed: int = 1,
    asym: Optional[AsymmetricConfig] = None,
    controller: Optional[ControllerConfig] = None,
) -> SystemConfig:
    """Standard experiment configuration for one design variant."""
    base = SystemConfig(num_cores=num_cores, design=design, seed=seed)
    if asym is not None:
        base = base.replace(asym=asym)
    if controller is not None:
        base = base.replace(controller=controller)
    return base


class TraceTooShort(ValueError):
    """A run whose every core replays an imported trace that its warm-up
    covers: it would measure nothing."""


def _check_measurable(workload: Workload, references: int) -> None:
    """Refuse a run in which every member is an imported trace whose
    warm-up reads every record (:class:`TraceTooShort`).  A short
    member beside a longer one only finishes its core early, as
    documented."""
    warmup = int(references * WARMUP_FRACTION)
    members = workload.members
    if any(member.replay is None or member.records > warmup
           for member in members):
        return
    holds = "holds" if len(members) == 1 else "has members of"
    records = ", ".join(str(member.records) for member in members)
    raise TraceTooShort(
        f"{workload.name} {holds} {records} records, not more than the "
        f"{warmup}-reference warm-up ({WARMUP_FRACTION:.0%}) of a "
        f"{references}-reference run, which would measure nothing")


def _resolve_run(
    workload: str,
    design: str,
    references: Optional[int],
    seed: int,
    asym: Optional[AsymmetricConfig],
    controller: Optional[ControllerConfig],
) -> Tuple[Workload, int, SystemConfig, str]:
    """(resolved workload, references, config, store key) of one run;
    a bad name raises :class:`~repro.trace.library.UnknownWorkload`, and
    a file too short to measure :class:`TraceTooShort`."""
    resolved = resolve_workload(workload)
    num_cores, references = workload_shape(resolved, references)
    _check_measurable(resolved, references)
    config = make_config(design, num_cores=num_cores, seed=seed, asym=asym,
                         controller=controller)
    key = (f"v{CODE_VERSION}-{workload}{workload_cache_token(resolved)}-"
           f"{references}-{config.cache_key()}")
    return resolved, references, config, key


def run_cache_key(
    workload: str,
    design: str = "das",
    references: Optional[int] = None,
    seed: int = 1,
    asym: Optional[AsymmetricConfig] = None,
    controller: Optional[ControllerConfig] = None,
) -> str:
    """The disk-cache key :func:`run_workload` would use for these args."""
    return _resolve_run(workload, design, references, seed, asym,
                        controller)[3]


#: Oracle profiles by every input of the pass (:func:`_oracle_profile`):
#: a bounded FIFO of read-only mappings of at most ``total_rows`` items.
#: Plans are workload-major and each ``charm`` spec follows its ``sas``
#: spec, so one entry catches every repeat; the second absorbs small
#: reorderings.
_PROFILE_MEMO: dict = {}
_PROFILE_MEMO_CAPACITY = 2

#: Recorded post-cache streams of one-core runs by every input of the
#: recording (:func:`_cache_stream`), and, apart from them, the keys of
#: streams requested so far.  Both are bounded FIFOs.  A second entry
#: replays no more runs of the workload-major plans, so one recording
#: is kept; noted keys are small and outlive evicted recordings.
_STREAM_MEMO: dict = {}
_STREAM_MEMO_CAPACITY = 1
_STREAM_NOTED: dict = {}
_STREAM_NOTED_CAPACITY = 256


def _make_room(memo: dict, capacity: int) -> None:
    """Evict the oldest entries of a FIFO memo until one more fits."""
    while len(memo) >= capacity:
        del memo[next(iter(memo))]


def _pinned_members(workload: Workload) -> tuple:
    """Each member's ``(name, content_hash)``: a synthetic member is
    pinned by its name, an imported trace by its content hash too, so a
    trace re-imported under the same name with other records is a new
    input."""
    return tuple((member.name, member.content_hash)
                 for member in workload.members)


def _oracle_profile(workload: Workload, config: SystemConfig,
                    references: int, seed: int) -> Mapping[int, int]:
    """The static designs' row heat, shared read-only by every run with
    the same profiling inputs.

    The key holds every input the pass reads: the workload (its name
    seeds a mix's members) and each member's name and content hash, the
    profile seed, the length, ``config.hierarchy`` and
    ``config.geometry``.  The design, ``config.seed``, ``asym``,
    ``controller`` and ``core`` are not read.
    """
    profile_seed = derive_seed(seed, "profile-run")
    length = references * 2
    key = (workload.name, _pinned_members(workload), profile_seed, length,
           config.hierarchy, config.geometry)
    cached = _PROFILE_MEMO.get(key)
    if cached is not None:
        return cached
    # The profile observes the whole program lifetime (all episodes) of a
    # *different execution* of the program: allocation layout and phase
    # interleaving differ between the profiling run and the measured run,
    # as they would for any ahead-of-time profile.  This is what separates
    # static (lifetime-hot) from dynamic (phase-hot) capture in the paper.
    heat = MappingProxyType(profile_row_heat(
        config,
        build_workload_traces(workload, profile_seed,
                              config.geometry.capacity_bytes,
                              mode="lifetime"),
        length))
    _make_room(_PROFILE_MEMO, _PROFILE_MEMO_CAPACITY)
    _PROFILE_MEMO[key] = heat
    return heat


def _cache_stream(workload: Workload, config: SystemConfig,
                  references: int, seed: int) -> Optional[CacheRecording]:
    """The recorded post-cache stream a run replays, or None to run it
    on the live hierarchy.

    Only one-core runs qualify: a shared LLC interleaves its cores by
    DRAM timing.  The key holds every input the recording reads: the
    workload and each member's name and content hash, the trace seed
    and length, ``config.hierarchy`` and the capacity a file folds at.
    The design, ``config.seed``, ``asym``, ``controller`` and ``core``
    are not read, so a replay equals a live run.  A stream is recorded
    on its second request: the first only notes its key, so a lone run
    pays no recording pass before its first step.
    """
    if config.num_cores != 1:
        return None
    key = (workload.name, _pinned_members(workload), seed, references,
           config.hierarchy, config.geometry.capacity_bytes)
    recording = _STREAM_MEMO.get(key)
    if recording is not None:
        return recording
    if key not in _STREAM_NOTED:
        _make_room(_STREAM_NOTED, _STREAM_NOTED_CAPACITY)
        _STREAM_NOTED[key] = None
        return None
    _make_room(_STREAM_MEMO, _STREAM_MEMO_CAPACITY)
    trace, = build_workload_traces(workload, seed,
                                   config.geometry.capacity_bytes)
    recording = record_cache_stream(config.hierarchy, trace, references)
    _STREAM_MEMO[key] = recording
    return recording


def fresh_run(
    workload: "str | Workload",
    config: SystemConfig,
    references: int,
    seed: int = 1,
    tracer=None,
) -> RunMetrics:
    """Simulate one run from scratch (no store involvement).

    ``workload`` is a name or a resolved
    :class:`~repro.trace.library.Workload`.  The static designs first
    get the oracle profile of the workload's lifetime, computed once per
    distinct profiling input in this process (:func:`_oracle_profile`).
    A one-core run whose post-cache stream this process recorded
    replays it (:func:`_cache_stream`); any other run builds fresh
    trace iterators and walks the live hierarchy.  ``tracer`` is
    forwarded to :func:`repro.sim.system.simulate` for event capture.
    """
    workload = resolve_workload(workload)
    row_heat: Optional[Mapping[int, int]] = None
    if config.design in PROFILED_DESIGNS:
        row_heat = _oracle_profile(workload, config, references, seed)
    recording = _cache_stream(workload, config, references, seed)
    if recording is None:
        traces = build_workload_traces(workload, seed,
                                       config.geometry.capacity_bytes)
        hierarchy = None
    else:
        traces, hierarchy = [recording.references()], recording.hierarchy()
    return simulate(config, traces, references,
                    workload_name=workload.name, row_heat=row_heat,
                    tracer=tracer, hierarchy=hierarchy)


def run_workload(
    workload: str,
    design: str = "das",
    references: Optional[int] = None,
    seed: int = 1,
    asym: Optional[AsymmetricConfig] = None,
    controller: Optional[ControllerConfig] = None,
    use_cache: bool = True,
) -> RunMetrics:
    """Run (or recall) one (workload, design) simulation.

    ``workload`` is a SPEC benchmark name (single-programming), a mix
    name ``M1``..``M8`` (multi-programming, four cores), an extra
    synthetic profile, or a file-backed workload from the trace library
    (``trace:<name>`` / ``tracemix:<a>+<b>+...``; see
    :mod:`repro.trace.library` and docs/TRACES.md).  Any other name
    raises :class:`~repro.trace.library.UnknownWorkload`, and a run
    whose every member is an imported trace that the warm-up covers
    :class:`TraceTooShort`, before the store is touched.

    Every completed call — cache hit or fresh — lands one row in the
    run ledger (:mod:`repro.obs.ledger`), so the pool's worker
    subprocesses and direct library calls build history with no wiring
    of their own.  ``REPRO_NO_LEDGER=1`` reduces that to a single
    environment lookup (``sqlite3`` is never imported).
    """
    from ..obs import ledger

    resolved, references, config, key = _resolve_run(
        workload, design, references, seed, asym, controller)
    record = ledger.ledger_enabled()
    started = time.monotonic() if record else 0.0
    if use_cache:
        from ..store import ResultStore

        store = ResultStore()
        cached = store.load(key)
        if cached is not None:
            if record:
                ledger.record_run(cached, key, cache_hit=True,
                                  wall_s=time.monotonic() - started,
                                  seed=seed)
            return cached
    metrics = fresh_run(resolved, config, references, seed)
    if use_cache:
        store.store(key, metrics)
    if record:
        ledger.record_run(metrics, key, cache_hit=False,
                          wall_s=time.monotonic() - started, seed=seed)
    return metrics
