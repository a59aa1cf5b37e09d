"""Experiment registry: every paper table/figure plus repo ablations.

``EXPERIMENTS`` maps an experiment id to (study, description); the CLI,
``repro validate`` and the docs all resolve through it, so the set of
runnable experiments and the DESIGN.md experiment index stay in one
place.  :func:`run_experiments` is the one way studies become tables.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from ..exec.plan import JobGraph
from ..exec.pool import execute
from .ablation import (
    controller_policy_ablation,
    inclusive_vs_exclusive,
    migration_latency_sweep,
    replacement_policy_ablation,
    seed_stability,
)
from .fairness import fairness_study
from .fig7 import fig7a, fig7b, fig7c, fig7d, fig7e, fig7f
from .fig8 import fig8a, fig8b, fig8c
from .fig9 import fig9a, fig9b, fig9c, fig9d
from .power import power_study
from .report import ExperimentResult
from .scenarios import footprint_sweep, stress_study
from .study import Study
from .tables import table1, table2


class Experiment(NamedTuple):
    """One runnable experiment.

    ``study(references=None, workloads=None)`` declares the experiment's
    runs and its table; ``None`` means the experiment's own default.
    """

    study: Callable[..., Study]
    description: str


def _static(build: Callable[[], ExperimentResult]) -> Callable[..., Study]:
    """A table that simulates nothing (Tables 1 and 2)."""
    return lambda **_: Study({}, lambda results: build())


EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(_static(table1), "System configuration"),
    "table2": Experiment(_static(table2), "Target workloads"),
    "fig7a": Experiment(fig7a, "Single-programming performance improvement"),
    "fig7b": Experiment(fig7b, "MPKI / PPKM / footprint per benchmark"),
    "fig7c": Experiment(fig7c, "Access locations (single-programming)"),
    "fig7d": Experiment(fig7d, "Multi-programming performance improvement"),
    "fig7e": Experiment(fig7e, "MPKI / PPKM / footprint per mix"),
    "fig7f": Experiment(fig7f, "Access locations (multi-programming)"),
    "fig8a": Experiment(fig8a, "Performance vs promotion threshold"),
    "fig8b": Experiment(fig8b, "Access locations vs promotion threshold"),
    "fig8c": Experiment(fig8c, "Promotions per access vs threshold"),
    "fig9a": Experiment(fig9a, "Translation-cache capacity sensitivity"),
    "fig9b": Experiment(fig9b, "Migration-group size sensitivity"),
    "fig9c": Experiment(fig9c, "Fast-level ratio (random replacement)"),
    "fig9d": Experiment(fig9d, "Fast-level ratio (LRU replacement)"),
    "power": Experiment(power_study, "Section 7.7 power implications"),
    "ablation-migration": Experiment(
        migration_latency_sweep,
        "Migration-latency sensitivity (repo extra)"),
    "ablation-replacement": Experiment(
        replacement_policy_ablation,
        "All four replacement policies (repo extra)"),
    "ablation-inclusive": Experiment(
        inclusive_vs_exclusive,
        "Exclusive vs inclusive management (repo extra)"),
    "ablation-controller": Experiment(
        controller_policy_ablation,
        "DAS gain across controller policies (repo extra)"),
    "ablation-seeds": Experiment(
        seed_stability,
        "DAS improvement stability across seeds (repo extra)"),
    "fairness": Experiment(
        fairness_study,
        "Mix fairness: per-core slowdown spread (repo extra)"),
    "stress": Experiment(
        stress_study,
        "Stress generators: refresh/write-burst/channel-hop (repo extra)"),
    "footprint": Experiment(
        footprint_sweep,
        "Working-set ladder across the fast-capacity knee (repo extra)"),
}


def experiment_ids() -> List[str]:
    """All experiment ids in registry order."""
    return list(EXPERIMENTS)


def study(experiment_id: str, references: Optional[int] = None,
          workloads: Optional[List[str]] = None) -> Study:
    """One experiment's runs and table at the given overrides."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(EXPERIMENTS)}")
    return EXPERIMENTS[experiment_id].study(references=references,
                                            workloads=workloads)


def run_experiments(studies: Sequence[Study], jobs: int = 1,
                    use_cache: bool = True,
                    echo: Optional[Callable[[str], None]] = None,
                    **options) -> List[ExperimentResult]:
    """Plan, execute and tabulate a batch of studies, in three steps.

    1. Plan one :class:`~repro.exec.plan.JobGraph` over every study's
       runs, deduplicated on the store key.
    2. Execute it (:func:`repro.exec.pool.execute`: inline for
       ``jobs=1``, on a process pool otherwise; ``options`` are its
       retries, progress and log).  Without ``use_cache`` the
       results come back in memory only.
    3. Tabulate each study from the batch's results, by the keys it
       declared.

    ``echo`` receives the one-line plan and execution summaries.
    """
    graph = JobGraph()
    for each in studies:
        graph.add_all(each.runs.values())
    if echo is not None:
        echo(f"planned {graph.demanded} runs -> {len(graph)} unique "
             f"({graph.deduplicated} deduplicated)")
    report = execute(graph.specs, jobs=jobs, use_cache=use_cache, **options)
    if echo is not None:
        echo(report.summary())
    return [each.table({key: report.get(spec)
                        for key, spec in each.runs.items()})
            for each in studies]


def run_experiment(experiment_id: str, references: Optional[int] = None,
                   workloads: Optional[List[str]] = None,
                   use_cache: bool = True) -> ExperimentResult:
    """Run one experiment by id."""
    return run_experiments([study(experiment_id, references, workloads)],
                           use_cache=use_cache)[0]
