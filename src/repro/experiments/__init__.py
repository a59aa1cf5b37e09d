"""Experiment harnesses: one per paper table/figure plus repo ablations.

Each harness returns a :class:`~repro.experiments.study.Study` (its runs
and its table); :func:`run_experiment` and :func:`run_experiments` turn
studies into tables.
"""

from .ablation import (
    controller_policy_ablation,
    seed_stability,
    inclusive_vs_exclusive,
    migration_latency_sweep,
    replacement_policy_ablation,
)
from .fairness import fairness_study
from .fig7 import fig7a, fig7b, fig7c, fig7d, fig7e, fig7f
from .fig8 import fig8a, fig8b, fig8c
from .fig9 import fig9a, fig9b, fig9c, fig9d
from .power import power_study
from .plotting import bar_chart, series_sparkline
from .registry import (
    EXPERIMENTS,
    Experiment,
    experiment_ids,
    run_experiment,
    run_experiments,
)
from .report import ExperimentResult, render_bar
from .study import Study, improvement_grid
from .tables import table1, table2

__all__ = [
    "controller_policy_ablation",
    "seed_stability",
    "fairness_study",
    "inclusive_vs_exclusive",
    "migration_latency_sweep",
    "replacement_policy_ablation",
    "fig7a",
    "fig7b",
    "fig7c",
    "fig7d",
    "fig7e",
    "fig7f",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig9d",
    "power_study",
    "EXPERIMENTS",
    "Experiment",
    "experiment_ids",
    "run_experiment",
    "run_experiments",
    "ExperimentResult",
    "Study",
    "improvement_grid",
    "render_bar",
    "bar_chart",
    "series_sparkline",
    "table1",
    "table2",
]
