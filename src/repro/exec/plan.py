"""Phase 1 of the execution engine: planning.

A :class:`RunSpec` is the declarative form of one ``run_workload`` call —
the ``(workload, design, references, seed, asym, controller)`` tuple that
fully determines a simulation.  Each experiment declares the specs its
table reads once, as the ``runs`` of its
:class:`~repro.experiments.study.Study`; a :class:`JobGraph` collects
those declarations and deduplicates them on the runner's disk-cache key,
so a run shared by several figures (notably the ``standard`` baseline
every improvement table divides by) appears exactly once no matter how
many experiments demand it.

The graph's specs go to :func:`repro.exec.pool.execute`, and each table
is built from the batch's results
(:func:`repro.experiments.registry.run_experiments`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..common.config import AsymmetricConfig, ControllerConfig
from ..sim.metrics import RunMetrics
from ..sim.runner import run_cache_key, run_workload


@dataclass(frozen=True)
class RunSpec:
    """One plannable simulation: the arguments of ``run_workload``.

    Specs are value objects: hashable, picklable (they cross process
    boundaries on their way to pool workers) and cheap to compare.
    ``references=None`` means "the runner's default length for this
    workload kind", exactly as it does for ``run_workload``.
    """

    workload: str
    design: str = "das"
    references: Optional[int] = None
    seed: int = 1
    asym: Optional[AsymmetricConfig] = None
    controller: Optional[ControllerConfig] = None

    def cache_key(self) -> str:
        """The runner's disk-cache key for this spec."""
        return run_cache_key(self.workload, self.design, self.references,
                             self.seed, self.asym, self.controller)

    def run(self, use_cache: bool = True) -> RunMetrics:
        """Execute (or recall) this spec through the cached runner."""
        return run_workload(self.workload, self.design, self.references,
                            self.seed, self.asym, self.controller,
                            use_cache=use_cache)

    def describe(self) -> str:
        """Short human label for progress lines and error messages."""
        parts = [self.workload, self.design]
        if self.seed != 1:
            parts.append(f"seed={self.seed}")
        return "/".join(parts)


class JobGraph:
    """A deduplicated batch of :class:`RunSpec` jobs.

    ``demanded`` counts every spec added; ``specs`` holds one spec per
    unique cache key, in first-demanded order.  The difference is work
    the planner saved before a single simulation ran.
    """

    def __init__(self) -> None:
        self._by_key: Dict[str, RunSpec] = {}
        self.demanded = 0

    def add(self, spec: RunSpec) -> bool:
        """Add one spec; returns True if it was new to the graph."""
        self.demanded += 1
        key = spec.cache_key()
        if key in self._by_key:
            return False
        self._by_key[key] = spec
        return True

    def add_all(self, specs: Iterable[RunSpec]) -> None:
        """Add many specs, deduplicating against existing keys."""
        for spec in specs:
            self.add(spec)

    @property
    def specs(self) -> List[RunSpec]:
        """Unique specs in first-demanded order."""
        return list(self._by_key.values())

    @property
    def keys(self) -> List[str]:
        """The unique run keys, in insertion order."""
        return list(self._by_key)

    def __len__(self) -> int:
        return len(self._by_key)

    @property
    def deduplicated(self) -> int:
        """Demands satisfied by an earlier identical spec."""
        return self.demanded - len(self._by_key)


def plan_experiments(
    experiment_ids: Sequence[str],
    references: Optional[int] = None,
    workloads: Optional[List[str]] = None,
) -> JobGraph:
    """Enumerate every simulation the given experiments will demand.

    The static tables declare no runs.  ``references``/``workloads``
    override the per-experiment defaults as they do for ``repro run``.
    """
    from ..experiments.registry import study

    graph = JobGraph()
    for experiment_id in experiment_ids:
        graph.add_all(study(experiment_id, references, workloads)
                      .runs.values())
    return graph
