"""Multi-core co-simulation driver.

Implements the conservative protocol between trace-driven cores and the
event-driven memory system: the controller only makes scheduling decisions
up to the minimum over all active cores of their next-arrival lower bound,
so FR-FCFS never reorders around an arrival it has not seen yet.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from ..cache.hierarchy import CacheHierarchy
from ..common.config import CoreConfig
from ..controller.controller import MemorySystem
from ..obs.timeline import TimelineSampler, default_timeline_interval
from ..trace.record import AccessTuple
from .core import Core


#: Share of each core's references run before statistics reset (paper:
#: the first 20% of the simulation is warm-up).
WARMUP_FRACTION = 0.2


class MultiCoreSimulator:
    """Runs N cores against one shared memory system until completion.

    Every run is measured one way: the first :data:`WARMUP_FRACTION` of
    each core's ``max_references`` warms the caches and the memory
    system up, and the rest is measured and sampled into a timeline.
    """

    def __init__(
        self,
        core_config: CoreConfig,
        traces: Sequence[Iterator[AccessTuple]],
        hierarchy: CacheHierarchy,
        memory: MemorySystem,
        max_references: int,
    ) -> None:
        if not traces:
            raise ValueError("need at least one trace")
        self.memory = memory
        self.hierarchy = hierarchy
        direct = len(traces) == 1
        self.cores: List[Core] = [
            Core(index, core_config, trace, hierarchy, memory,
                 max_references, direct_resolve=direct)
            for index, trace in enumerate(traces)
        ]
        #: The run's phase-resolved timeline (repro.obs.timeline).
        self.sampler = TimelineSampler(
            default_timeline_interval(max_references, len(traces)),
            self.cores, hierarchy, memory)
        self._warmup_refs = int(max_references * WARMUP_FRACTION)
        self._warmup_done = self._warmup_refs == 0
        if self._warmup_done:
            self._begin_measurement()

    def run(self) -> None:
        """Run all cores to completion."""
        cores = self.cores
        memory = self.memory
        sampler = self.sampler
        if len(cores) == 1:
            self._run_single(cores[0])
            return
        drain = memory.drain
        active = list(cores)
        inf = float("inf")
        while True:
            any_finished = False
            for core in active:
                blocked = core.blocked_on
                if blocked is not None and blocked.completion_ns is None:
                    # Still waiting on DRAM: only the drain can unblock it.
                    continue
                core.advance()
                if core.finished:
                    any_finished = True
            if not self._warmup_done and all(
                core.references >= self._warmup_refs or core.finished
                for core in cores
            ):
                self._begin_measurement()
            if any_finished:
                active = [core for core in active if not core.finished]
                if not active:
                    break
            t_safe = inf
            for core in active:
                bound = core.bound()
                if bound < t_safe:
                    t_safe = bound
            drain(t_safe)
            sampler.maybe_sample()
        memory.flush()
        sampler.finish()

    def _run_single(self, core) -> None:
        """Single-core fast path: blocked loads resolve synchronously."""
        if not self._warmup_done:
            core.advance(until_references=self._warmup_refs)
            self._begin_measurement()
        sampler = self.sampler
        # Chunked advance: pause at each sample boundary.  The pause only
        # reads counters, so the schedule does not depend on the interval.
        while not core.finished:
            core.advance(until_references=sampler.next_boundary())
            sampler.maybe_sample()
        self.memory.flush()
        sampler.finish()

    def _begin_measurement(self) -> None:
        """Reset statistics at the warmup boundary (paper: first 20% of the
        simulation is warmup)."""
        self._warmup_done = True
        self.hierarchy.reset_stats()
        self.memory.reset_stats()
        for core in self.cores:
            core.start_measurement()
        # Realign against the freshly reset counters so the first
        # measurement window carries no warmup counts.
        self.sampler.realign()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def per_core_time_ns(self) -> List[float]:
        """Measured execution time of each core's instruction window."""
        return [core.measured_time_ns() for core in self.cores]

    def per_core_ipc(self) -> List[float]:
        """Measured IPC of each core."""
        return [core.ipc() for core in self.cores]

    def total_instructions(self) -> int:
        """Instructions retired across all cores."""
        return sum(core.measured_instructions() for core in self.cores)
