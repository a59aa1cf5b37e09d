"""One experiment = the runs it declares + the table it builds from them.

Every harness returns a :class:`Study`.  ``runs`` maps a key the table
chooses to the :class:`~repro.exec.plan.RunSpec` it needs;
``table(results)`` builds the :class:`ExperimentResult` from
``results[key]``.  The planner, the worker pool and the table all read
the same ``runs`` (see :func:`repro.experiments.registry.run_experiments`),
so what is executed is exactly what is tabulated: a table that reads a
run it did not declare fails with ``KeyError``.

:func:`improvement_grid` is the shape most of the evaluation shares:
% improvement of a measured run over its baseline per (workload,
column), plus a gmean row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple,
)

from ..common.config import AsymmetricConfig, ControllerConfig
from ..common.statistics import gmean_improvement
from ..exec.plan import RunSpec
from ..sim.metrics import RunMetrics
from .report import ExperimentResult

#: What a table reads: the metrics of each declared run, by its key.
Results = Mapping[Hashable, RunMetrics]

#: One grid column: workload -> (baseline spec, measured spec).
Cell = Callable[[str], Tuple[RunSpec, RunSpec]]


@dataclass(frozen=True)
class Study:
    """The runs one table needs, and how to build the table from them."""

    runs: Dict[Hashable, RunSpec]
    table: Callable[[Results], ExperimentResult]


def over_standard(references: Optional[int], design: str = "das",
                  seed: int = 1, asym: Optional[AsymmetricConfig] = None,
                  controller: Optional[ControllerConfig] = None) -> Cell:
    """Grid cell: ``design`` (with ``asym``) over standard DRAM, both
    runs at the same length, seed and ``controller``."""
    return lambda workload: (
        RunSpec(workload, "standard", references, seed,
                controller=controller),
        RunSpec(workload, design, references, seed, asym=asym,
                controller=controller))


def improvement_grid(experiment_id: str, title: str,
                     workloads: Sequence[str], cells: Mapping[str, Cell],
                     notes: Iterable[str] = (),
                     gmean: bool = True) -> Study:
    """% improvement of each cell's measured run over its baseline.

    Rows are ``workloads``, columns the ``cells`` labels, and ``gmean``
    appends the per-column geometric-mean row.  Runs are keyed by the
    spec itself, so a baseline several columns share (the ``standard``
    run most grids divide by) is declared once per workload.
    """
    pairs = {(workload, label): cell(workload)
             for workload in workloads for label, cell in cells.items()}
    runs = {spec: spec for pair in pairs.values() for spec in pair}

    def table(results: Results) -> ExperimentResult:
        result = ExperimentResult(experiment_id, title,
                                  ["workload", *cells])
        columns: Dict[str, list] = {label: [] for label in cells}
        for workload in workloads:
            row: Dict[str, object] = {"workload": workload}
            for label in cells:
                base, measured = pairs[(workload, label)]
                row[label] = results[measured].improvement_percent(
                    results[base])
                columns[label].append(row[label])
            result.add_row(**row)
        if gmean:
            result.add_row(workload="gmean", **{
                label: gmean_improvement(values)
                for label, values in columns.items()})
        result.notes.extend(notes)
        return result

    return Study(runs, table)
