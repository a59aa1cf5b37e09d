"""Scenario-axis experiments beyond the paper's SPEC roster.

Two repo extras widen the evaluated behaviour space along axes the
paper's workloads barely exercise (ROADMAP: "a much wider workload
universe"):

* ``stress`` — three targeted stress generators: ``refreshstorm``
  (refresh-dominated idling, run with auto-refresh enabled),
  ``writeburst`` (alternating read/write-flood phases) and
  ``channelhop`` (a rotating single-channel hotspot that defeats
  channel interleaving).
* ``footprint`` — a working-set ladder (8..128 MiB uniform random)
  crossing the fast-level capacity knee: the default geometry gives the
  fast level 32 MiB, so DAS's gain should hold up to ``fp32m`` and fall
  away beyond it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common.config import ControllerConfig
from ..common.statistics import gmean_improvement
from ..exec.plan import RunSpec
from ..trace.extras import FOOTPRINT_LADDER, STRESS_NAMES
from .fig7 import SINGLE_REFS
from .report import ExperimentResult
from .study import Study

#: The stress study measures refresh restructuring, so it runs with
#: auto-refresh on (the roster experiments keep the paper's abstraction
#: of leaving it off; enabling it shifts all designs equally).
STRESS_CONTROLLER = ControllerConfig(refresh_enabled=True)


def _das_and_standard(workloads: List[str], references: int,
                      controller: Optional[ControllerConfig] = None,
                      ) -> Dict[tuple, RunSpec]:
    return {(workload, design): RunSpec(workload, design, references,
                                        controller=controller)
            for workload in workloads for design in ("standard", "das")}


def stress_study(references: Optional[int] = None,
                 workloads: Optional[List[str]] = None) -> Study:
    """Stress axes: DAS gain under refresh / write-burst / channel stress."""
    workloads = workloads or STRESS_NAMES
    runs = _das_and_standard(workloads, references or SINGLE_REFS,
                             STRESS_CONTROLLER)

    def table(results) -> ExperimentResult:
        result = ExperimentResult(
            "stress", "DAS under stress generators (refresh enabled)",
            ["workload", "improve", "mpki", "fast", "refreshes"])
        improvements: List[float] = []
        for workload in workloads:
            das = results[(workload, "das")]
            improvement = das.improvement_percent(
                results[(workload, "standard")])
            improvements.append(improvement)
            result.add_row(
                workload=workload,
                improve=improvement,
                mpki=das.mpki,
                fast=das.access_locations.get("fast", 0.0) * 100,
                refreshes=das.stats["controller"]["refreshes"],
            )
        result.add_row(workload="gmean",
                       improve=gmean_improvement(improvements),
                       mpki=0.0, fast=0.0, refreshes=0)
        result.notes.append(
            "repo extra: stress generators run with auto-refresh enabled "
            "(ControllerConfig(refresh_enabled=True)), unlike the roster "
            "experiments which keep the paper's refresh abstraction")
        return result

    return Study(runs, table)


def footprint_sweep(references: Optional[int] = None,
                    workloads: Optional[List[str]] = None) -> Study:
    """Footprint ladder across the fast-level capacity knee.

    Columns are the ladder workloads so the ``knee`` validation check
    can read one metric row across footprints; rows are the metrics.
    """
    ladder = workloads or FOOTPRINT_LADDER
    runs = _das_and_standard(ladder, references or SINGLE_REFS)

    def table(results) -> ExperimentResult:
        result = ExperimentResult(
            "footprint",
            "DAS gain vs working-set size (fast level holds 32 MiB)",
            ["metric"] + list(ladder))
        rows: Dict[str, Dict[str, object]] = {
            metric: {"metric": metric}
            for metric in ("improve", "fast", "slow", "read_latency")}
        for workload in ladder:
            das = results[(workload, "das")]
            rows["improve"][workload] = das.improvement_percent(
                results[(workload, "standard")])
            rows["fast"][workload] = das.access_locations.get(
                "fast", 0.0) * 100
            rows["slow"][workload] = das.access_locations.get(
                "slow", 0.0) * 100
            rows["read_latency"][workload] = das.mean_read_latency_ns
        for row in rows.values():
            result.add_row(**row)
        result.notes.append(
            "repo extra: uniform-random ladder; the fast level holds 1/8 "
            "of 256 MiB = 32 MiB, so fast-service fraction and DAS gain "
            "fall away once the footprint exceeds fp32m")
        return result

    return Study(runs, table)
