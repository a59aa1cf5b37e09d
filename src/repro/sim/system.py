"""Full-system assembly: traces + cores + caches + memory system.

``simulate`` builds everything from a :class:`SystemConfig` and a list of
per-core traces, runs the co-simulation, and returns :class:`RunMetrics`.
``profile_row_heat`` is the oracle profiling pass the static designs
(SAS / CHARM) require.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, Mapping, Optional, Sequence

from ..cache.hierarchy import MEMORY, CacheHierarchy
from ..common.config import SystemConfig
from ..controller.controller import MemorySystem
from ..core.manager import DASManager
from ..core.variants import build_memory_system
from ..cpu.multicore import MultiCoreSimulator
from ..dram.address import AddressMapping
from ..obs.stats import build_stats_tree
from ..obs.timeline import TimelineSampler
from ..trace.record import AccessTuple
from .metrics import RunMetrics


def profile_row_heat(
    config: SystemConfig,
    traces: Sequence[Iterator[AccessTuple]],
    max_references: int,
) -> Dict[int, int]:
    """Oracle profiling pass for the static designs.

    Replays the traces through a fresh cache hierarchy (timing-free) and
    counts demand LLC misses per global logical DRAM row — the
    "most-frequently-used portion of its footprint" the paper pre-assigns
    to the fast level.  Rows appear in first-miss order, which
    :class:`~repro.core.manager.StaticAsymmetricManager` uses to break
    heat ties.
    """
    access = CacheHierarchy(config.hierarchy, len(traces),
                            config.seed).access_tuple
    global_row = AddressMapping(config.geometry).global_row
    heat: Dict[int, int] = {}
    get = heat.get
    for core_id, trace in enumerate(traces):
        for _gap, address, is_write in islice(trace, max_references):
            if access(core_id, address, is_write)[0] == MEMORY:
                row = global_row(address)
                heat[row] = get(row, 0) + 1
    return heat


def simulate(
    config: SystemConfig,
    traces: Sequence[Iterator[AccessTuple]],
    max_references: int,
    workload_name: str = "workload",
    row_heat: Optional[Mapping[int, int]] = None,
    warmup_fraction: float = 0.2,
    tracer=None,
    timeline_interval_refs: Optional[int] = None,
    hierarchy=None,
) -> RunMetrics:
    """Build and run one system; return its measured metrics.

    ``tracer`` (an :class:`repro.obs.EventTracer`) is attached to the
    memory system, its management policy and every core; leaving it None
    keeps every emission site on its zero-cost guard path.
    ``timeline_interval_refs`` enables phase-resolved timeline sampling
    (one window per that many retired references, summed over cores);
    None leaves every sampling site on the same zero-cost guard path.
    ``hierarchy`` replaces the live cache hierarchy, e.g. with the
    :class:`~repro.cache.recording.RecordedHierarchy` of the recording
    the one trace replays; None builds a live one.
    """
    if len(traces) != config.num_cores:
        raise ValueError(
            f"config expects {config.num_cores} cores, got {len(traces)} traces")
    if hierarchy is None:
        hierarchy = CacheHierarchy(config.hierarchy, config.num_cores,
                                   config.seed)
    memory = build_memory_system(config, row_heat=row_heat)
    sampler = None
    if timeline_interval_refs is not None:
        sampler = TimelineSampler(timeline_interval_refs)
    simulator = MultiCoreSimulator(
        config.core, traces, hierarchy, memory, max_references,
        warmup_fraction=warmup_fraction, sampler=sampler)
    if tracer is not None:
        memory.tracer = tracer
        memory.manager.tracer = tracer
        for core in simulator.cores:
            core.tracer = tracer
    simulator.run()
    return collect_metrics(workload_name, config, simulator, hierarchy,
                           memory, sampler=sampler)


def collect_metrics(
    workload_name: str,
    config: SystemConfig,
    simulator: MultiCoreSimulator,
    hierarchy: CacheHierarchy,
    memory: MemorySystem,
    sampler: Optional[TimelineSampler] = None,
) -> RunMetrics:
    """Assemble a :class:`RunMetrics` from the finished simulation."""
    manager = memory.manager
    promotions = getattr(manager, "promotions", 0)
    table_fetches = getattr(manager, "table_fetches", 0)
    tc_hit_rate = 0.0
    if isinstance(manager, DASManager):
        tc_hit_rate = manager.translation_cache.hit_rate
    energy: Dict[str, float] = {}
    if memory.energy is not None:
        energy = memory.energy.breakdown()
    extra: Dict[str, float] = {}
    for stat in ("clean_fills", "dirty_swaps"):
        value = getattr(manager, stat, None)
        if value is not None:
            extra[stat] = value
    engine = getattr(manager, "engine", None)
    if engine is not None:
        extra["promotions_dropped"] = engine.dropped
    metrics = RunMetrics(
        workload=workload_name,
        design=config.design,
        references=sum(
            core.references - core.measure_start_references
            for core in simulator.cores),
        instructions=simulator.total_instructions(),
        time_ns=simulator.per_core_time_ns(),
        ipc=simulator.per_core_ipc(),
        llc_misses=hierarchy.total_llc_misses(),
        promotions=promotions,
        dram_accesses=memory.demand_accesses,
        table_fetches=table_fetches,
        footprint_bytes=memory.footprint_bytes(),
        access_locations=memory.access_location_fractions(),
        mean_read_latency_ns=memory.mean_read_latency_ns,
        read_latency_percentiles_ns={
            "p50": memory.read_latency_percentile(0.50),
            "p95": memory.read_latency_percentile(0.95),
            "p99": memory.read_latency_percentile(0.99),
        },
        translation_cache_hit_rate=tc_hit_rate,
        energy_nj=energy,
        extra=extra,
        stats=build_stats_tree(simulator.cores, hierarchy, memory),
        timeline=sampler.export() if sampler is not None else {},
    )
    return metrics
