"""Cached experiment runner.

Runs are pure functions of (workload, design, config, seed, length), so
results are memoised in the content-addressed result store under
``.repro_cache/`` (override with ``REPRO_CACHE_DIR``; disable with
``REPRO_NO_CACHE=1``; see :mod:`repro.store`).  A figure regenerated
again, or a run several figures share (every improvement table needs
the standard baseline), is recalled rather than simulated.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..common.config import AsymmetricConfig, ControllerConfig, SystemConfig
from ..common.rng import derive_seed
from ..core.variants import PROFILED_DESIGNS
from ..trace.multiprog import MIXES, build_mix_traces
from ..trace.record import AccessTuple
from ..trace.spec2006 import PROFILES, build_trace
from .metrics import RunMetrics
from .system import profile_row_heat, simulate

#: Bump to invalidate every cached result after a model change.
CODE_VERSION = 10

#: Default trace lengths (memory references per core).
DEFAULT_SINGLE_REFS = 300_000
DEFAULT_MIX_REFS = 150_000

#: Target number of timeline windows per run (see repro.obs.timeline).
TIMELINE_WINDOWS = 24


def default_timeline_interval(references: int, num_cores: int = 1) -> int:
    """References-per-window giving ~:data:`TIMELINE_WINDOWS` windows.

    The sampler counts references summed over cores, so mixes scale the
    interval by the core count to keep the window count stable.
    """
    return max(1, (references * num_cores) // TIMELINE_WINDOWS)


def cache_dir() -> Path:
    """Directory holding memoised run results."""
    from ..store import store_root

    return store_root()


def _cache_enabled() -> bool:
    return os.environ.get("REPRO_NO_CACHE", "0") != "1"


def _load_cached(key: str) -> Optional[RunMetrics]:
    """Recall one result from the store (``None`` off-cache or on miss)."""
    if not _cache_enabled():
        return None
    from ..store import get_store

    return get_store().load(key)


def _store_cached(key: str, metrics: RunMetrics) -> None:
    """Persist one result through the store (no-op with caching off)."""
    if not _cache_enabled():
        return
    from ..store import get_store

    get_store().store(key, metrics)


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


def _workload_traces(
    workload: str, config: SystemConfig, seed: int, mode: str = "episode"
) -> List[Iterator[AccessTuple]]:
    """Fresh trace iterators for a named workload (benchmark or mix).

    ``mode='lifetime'`` yields the whole-program behaviour used by the
    static designs' oracle profiling pass; runs measure an episode.
    """
    if workload in PROFILES:
        return [build_trace(workload, seed, mode=mode)]
    if workload in MIXES:
        return build_mix_traces(workload, seed,
                                config.geometry.capacity_bytes, mode=mode)
    from ..trace.extras import EXTRA_PROFILES, build_extra_trace

    if workload in EXTRA_PROFILES:
        # Extra workloads have no episode structure; profiling passes
        # simply observe a longer window of the same behaviour.
        return [build_extra_trace(workload, seed)]
    from ..trace import library

    if library.is_trace_workload(workload):
        return library.build_workload_traces(
            workload, seed, config.geometry.capacity_bytes, mode=mode)
    raise KeyError(f"unknown workload {workload!r}")


def resolve_run_shape(workload: str,
                      references: Optional[int]) -> Tuple[int, int]:
    """(num_cores, references) a run of ``workload`` will actually use.

    Mixes run four cores at the mix default length; imported-trace
    workloads resolve through the trace library (``trace:`` defaults to
    the record count, ``tracemix:`` to one core per member); everything
    else runs one core at the single-programming default.  The
    executor's planner relies on this so pre-planned specs and
    :func:`run_workload` agree on cache keys.
    """
    from ..trace import library

    if library.is_trace_workload(workload):
        return library.resolve_trace_shape(workload, references,
                                           DEFAULT_SINGLE_REFS,
                                           DEFAULT_MIX_REFS)
    is_mix = workload in MIXES
    num_cores = 4 if is_mix else 1
    if references is None:
        references = DEFAULT_MIX_REFS if is_mix else DEFAULT_SINGLE_REFS
    return num_cores, references


def _workload_key_token(workload: str) -> str:
    """Content-addressing token for file-backed workloads.

    Synthetic workloads are pure functions of (name, seed, code
    version), so their key needs nothing extra.  ``trace:``/``tracemix:``
    workloads replay files on disk; the library folds each file member's
    sha256 content hash in (``@<hash12>...``) so a replaced trace file
    can never alias a stale cached result.
    """
    from ..trace import library

    return library.workload_cache_token(workload)


def _run_key(workload: str, references: int, config: SystemConfig) -> str:
    """The store key of one resolved run (shape and config fixed)."""
    return (f"v{CODE_VERSION}-{workload}{_workload_key_token(workload)}-"
            f"{references}-{config.cache_key()}")


def run_cache_key(
    workload: str,
    design: str = "das",
    references: Optional[int] = None,
    seed: int = 1,
    asym: Optional[AsymmetricConfig] = None,
    controller: Optional[ControllerConfig] = None,
) -> str:
    """The disk-cache key :func:`run_workload` would use for these args."""
    num_cores, references = resolve_run_shape(workload, references)
    config = make_config(design, num_cores=num_cores, seed=seed, asym=asym,
                         controller=controller)
    return _run_key(workload, references, config)


def fresh_run(
    workload: str,
    config: SystemConfig,
    references: int,
    seed: int = 1,
    tracer=None,
    timeline_interval: Optional[int] = None,
) -> RunMetrics:
    """Simulate one run from scratch (no cache involvement).

    Performs the oracle profiling pass the static designs need, builds
    fresh trace iterators and simulates.  ``tracer`` is forwarded to
    :func:`repro.sim.system.simulate` for event capture;
    ``timeline_interval`` (references per window) enables phase-resolved
    timeline sampling.
    """
    row_heat: Optional[Dict[int, int]] = None
    if config.design in PROFILED_DESIGNS:
        # The profile observes the whole program lifetime (all episodes)
        # of a *different execution* of the program: allocation layout and
        # phase interleaving differ between the profiling run and the
        # measured run, as they would for any ahead-of-time profile.  This
        # is what separates static (lifetime-hot) from dynamic (phase-hot)
        # capture in the paper.
        profile_refs = references * 2
        profile_seed = derive_seed(seed, "profile-run")
        row_heat = profile_row_heat(
            config,
            _workload_traces(workload, config, profile_seed,
                             mode="lifetime"),
            profile_refs)
    traces = _workload_traces(workload, config, seed)
    return simulate(config, traces, references,
                    workload_name=workload, row_heat=row_heat,
                    tracer=tracer, timeline_interval_refs=timeline_interval)


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
    :mod:`repro.trace.library` and docs/TRACES.md).

    Every run samples the phase-resolved timeline, so stored results
    carry their series.

    Every completed call — cache hit or fresh — lands one row in the
    run ledger (:mod:`repro.obs.ledger`), so the pool's worker
    subprocesses and direct library calls build history with no wiring
    of their own.  ``REPRO_NO_LEDGER=1`` reduces that to a single
    environment lookup (``sqlite3`` is never imported).
    """
    from ..obs import ledger

    num_cores, references = resolve_run_shape(workload, references)
    config = make_config(design, num_cores=num_cores, seed=seed, asym=asym,
                         controller=controller)
    key = _run_key(workload, references, config)
    record = ledger.ledger_enabled()
    started = time.monotonic() if record else 0.0
    if use_cache:
        cached = _load_cached(key)
        if cached is not None:
            if record:
                ledger.record_run(cached, key, cache_hit=True,
                                  wall_s=time.monotonic() - started,
                                  seed=seed)
            return cached
    metrics = fresh_run(workload, config, references, seed,
                        timeline_interval=default_timeline_interval(
                            references, num_cores))
    if use_cache:
        _store_cached(key, metrics)
    if record:
        ledger.record_run(metrics, key, cache_hit=False,
                          wall_s=time.monotonic() - started, seed=seed)
    return metrics


def run_trace_file(
    path: str,
    design: str = "das",
    references: Optional[int] = None,
    seed: int = 1,
    asym: Optional[AsymmetricConfig] = None,
    controller: Optional[ControllerConfig] = None,
) -> RunMetrics:
    """Run a workload directly from a trace file on disk.

    Accepts the plain-text format (``gap address R|W`` per line, from
    :func:`repro.trace.record.write_trace` / ``repro trace dump``) and
    the columnar ``.rtrc`` format (from ``repro trace import|convert``),
    distinguished by magic bytes.  Results are not cached (files may
    change independently of their path); for cached, content-addressed
    replays import the file and run ``trace:<name>`` instead.
    """
    from ..trace.record import read_trace
    from ..trace.rtrc import MAGIC, RtrcReader, records_to_accesses

    config = make_config(design, num_cores=1, seed=seed, asym=asym,
                         controller=controller)
    with open(path, "rb") as probe:
        is_rtrc = probe.read(len(MAGIC)) == MAGIC
    if is_rtrc:
        reader = RtrcReader(path)
        records = list(records_to_accesses(
            reader, wrap_bytes=config.geometry.capacity_bytes))
    else:
        with open(path) as stream:
            records = list(read_trace(stream))
    if not records:
        raise ValueError(f"trace file {path!r} is empty")
    if references is None:
        references = len(records)
    return simulate(config, [iter(records)], references,
                    workload_name=f"trace:{path}",
                    timeline_interval_refs=default_timeline_interval(
                        references))


def run_design_suite(
    workload: str,
    designs: Sequence[str],
    references: Optional[int] = None,
    seed: int = 1,
    asym: Optional[AsymmetricConfig] = None,
) -> Dict[str, RunMetrics]:
    """Run one workload across several designs (baseline included)."""
    results: Dict[str, RunMetrics] = {}
    for design in ("standard", *designs):
        if design not in results:
            results[design] = run_workload(
                workload, design, references, seed, asym)
    return results
