"""Figure 8: promotion-filtering policy study.

The paper sweeps the row-promotion threshold over {8, 4, 2, 1} and finds
that filtering rarely helps: the promotion rate is already small, while
higher thresholds visibly reduce fast-level utilisation, so performance
trends *down* as the threshold grows.  DAS-DRAM therefore ships with
threshold 1 (no filtering).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common.config import AsymmetricConfig
from ..exec.plan import RunSpec
from ..trace.spec2006 import benchmark_names
from .fig7 import SINGLE_REFS
from .report import ExperimentResult
from .study import Study, improvement_grid, over_standard

#: Thresholds in the paper's presentation order.
THRESHOLDS = (8, 4, 2, 1)


def _threshold_asym(threshold: int) -> AsymmetricConfig:
    return AsymmetricConfig(promotion_threshold=threshold)


def _threshold_runs(workloads: List[str],
                    references: int) -> Dict[tuple, RunSpec]:
    return {(workload, threshold):
            RunSpec(workload, "das", references,
                    asym=_threshold_asym(threshold))
            for workload in workloads for threshold in THRESHOLDS}


def fig8a(references: Optional[int] = None,
          workloads: Optional[List[str]] = None) -> Study:
    """Figure 8a: performance improvement per threshold."""
    refs = references or SINGLE_REFS
    return improvement_grid(
        "fig8a", "Performance improvement vs promotion threshold",
        workloads or benchmark_names(),
        {f"t{threshold}":
         over_standard(refs, asym=_threshold_asym(threshold))
         for threshold in THRESHOLDS},
        ["paper: performance generally degrades as the threshold rises; "
         "DAS-DRAM adopts threshold 1"])


def fig8b(references: Optional[int] = None,
          workloads: Optional[List[str]] = None) -> Study:
    """Figure 8b: access locations per threshold (fast-level utilisation)."""
    runs = _threshold_runs(workloads or benchmark_names(),
                           references or SINGLE_REFS)

    def table(results) -> ExperimentResult:
        result = ExperimentResult(
            "fig8b", "Access locations vs promotion threshold",
            ["workload", "threshold", "rowbuf", "fast", "slow"])
        for workload, threshold in runs:
            locations = results[(workload, threshold)].access_locations
            result.add_row(
                workload=workload,
                threshold=threshold,
                rowbuf=locations["row_buffer"] * 100,
                fast=locations["fast"] * 100,
                slow=locations["slow"] * 100,
            )
        result.notes.append(
            "paper: filtering decreases fast-level utilisation "
            "significantly")
        return result

    return Study(runs, table)


def fig8c(references: Optional[int] = None,
          workloads: Optional[List[str]] = None) -> Study:
    """Figure 8c: row promotions per memory access, per threshold."""
    workloads = workloads or benchmark_names()
    runs = _threshold_runs(workloads, references or SINGLE_REFS)

    def table(results) -> ExperimentResult:
        result = ExperimentResult(
            "fig8c", "Promotions per memory access (%) vs threshold",
            ["workload"] + [f"t{t}" for t in THRESHOLDS])
        for workload in workloads:
            result.add_row(workload=workload, **{
                f"t{threshold}":
                    results[(workload, threshold)].promotions_per_access
                    * 100
                for threshold in THRESHOLDS})
        result.notes.append(
            "paper: the promotion-to-access ratio is already small "
            "(<~1-3%), so filtering has little to save")
        return result

    return Study(runs, table)
