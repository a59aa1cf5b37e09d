"""Section 7.7: power implications, made quantitative.

The paper argues DAS-DRAM consumes less array energy than the static
asymmetric design because (1) a larger share of its activations land on
short-bitline fast subarrays and (2) the migration rate is low.  This
harness reports per-design dynamic energy per access and the activation
breakdown that drives it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..exec.plan import RunSpec
from ..trace.spec2006 import benchmark_names
from .fig7 import SINGLE_REFS
from .report import ExperimentResult
from .study import Study

#: Designs compared in the power study.
POWER_DESIGNS = ("standard", "charm", "das", "fs")


def power_study(references: Optional[int] = None,
                workloads: Optional[List[str]] = None) -> Study:
    """Dynamic energy per access per design (nJ), plus DAS migration share."""
    refs = references or SINGLE_REFS
    workloads = list(workloads) if workloads else benchmark_names()
    runs = {(workload, design): RunSpec(workload, design, refs)
            for workload in workloads for design in POWER_DESIGNS}

    def table(results) -> ExperimentResult:
        columns = ["workload"] + [f"{d}_nj" for d in POWER_DESIGNS] + [
            "das_migration_share"]
        result = ExperimentResult(
            "power", "Dynamic DRAM energy per access (Section 7.7)", columns)
        sums: Dict[str, float] = {d: 0.0 for d in POWER_DESIGNS}
        migration_share_sum = 0.0
        for workload in workloads:
            row: Dict[str, object] = {"workload": workload}
            for design in POWER_DESIGNS:
                metrics = results[(workload, design)]
                per_access = (metrics.dynamic_energy_nj
                              / metrics.dram_accesses
                              if metrics.dram_accesses else 0.0)
                row[f"{design}_nj"] = per_access
                sums[design] += per_access
            das = results[(workload, "das")]
            share = (das.energy_nj.get("migration_nj", 0.0)
                     / das.dynamic_energy_nj * 100
                     if das.dynamic_energy_nj else 0.0)
            row["das_migration_share"] = share
            migration_share_sum += share
            result.add_row(**row)
        count = len(workloads)
        result.add_row(workload="mean", **{
            f"{d}_nj": sums[d] / count for d in POWER_DESIGNS},
            das_migration_share=migration_share_sum / count)
        result.notes.append(
            "paper's claim: DAS < static asymmetric because fast-level "
            "activations dominate and migrations are rare")
        return result

    return Study(runs, table)
