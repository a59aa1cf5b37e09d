"""Ablations beyond the paper's figures (DESIGN.md Section 5).

* Migration-latency sensitivity — validates the 1.5 tRC row-move /
  3 tRC swap design point by sweeping the swap latency.
* Replacement-policy ablation — all four policies of Section 5.3
  (LRU / random / sequential / global-counter), not just the two in
  Figure 9c-d.
* Scheduler ablation — FR-FCFS vs FCFS, quantifying how much of the
  gain depends on the paper's assumed controller.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.config import AsymmetricConfig, ControllerConfig
from ..common.statistics import gmean_improvement
from ..exec.plan import RunSpec
from ..trace.spec2006 import benchmark_names
from .fig7 import SINGLE_REFS
from .report import ExperimentResult
from .study import Study, improvement_grid, over_standard

#: Swap latencies in multiples of slow tRC (48.75 ns); paper uses 3.0
#: (two 1.5-tRC row moves).
MIGRATION_TRC_MULTIPLES = (0.0, 1.5, 3.0, 6.0, 12.0)

#: A subset of benchmarks with meaningful promotion traffic.
MIGRATION_SENSITIVE = ("mcf", "GemsFDTD", "soplex", "lbm", "milc")

TRC_SLOW_NS = 48.75

#: Default controller-ablation policies (label, config).
CONTROLLER_POLICIES = (
    ("open-frfcfs", ControllerConfig()),
    ("open-fcfs", ControllerConfig(scheduler="fcfs")),
    ("closed-frfcfs", ControllerConfig(page_policy="closed")),
)

#: Default workload subsets of the narrower ablations.
SEED_STABILITY_WORKLOADS = ("libquantum", "mcf", "omnetpp")
CONTROLLER_WORKLOADS = ("mcf", "lbm", "omnetpp", "libquantum")

#: Replacement policies of Section 5.3.
REPLACEMENT_POLICIES = ("lru", "random", "sequential", "counter")


def _migration_asym(multiple: float) -> AsymmetricConfig:
    return AsymmetricConfig(
        migration_latency_ns=multiple * TRC_SLOW_NS if multiple else 0.0)


def migration_latency_sweep(references: Optional[int] = None,
                            workloads: Optional[List[str]] = None,
                            ) -> Study:
    """Performance vs swap latency (in multiples of slow tRC)."""
    refs = references or SINGLE_REFS
    return improvement_grid(
        "ablation-migration", "DAS performance vs migration swap latency",
        workloads or MIGRATION_SENSITIVE,
        {f"{multiple:g}tRC":
         over_standard(refs, asym=_migration_asym(multiple))
         for multiple in MIGRATION_TRC_MULTIPLES},
        ["0 tRC is DAS-DRAM (FM); 3 tRC is the paper's 146.25 ns design "
         "point; larger multiples show when migration cost would bite"])


def seed_stability(references: Optional[int] = None,
                   workloads: Optional[List[str]] = None,
                   seeds: int = 4) -> Study:
    """Run-to-run stability of the headline result across seeds.

    Every stochastic element (generators, random replacement, layout
    scatter labels) reseeds per run; the DAS improvement should be stable
    within a few points, giving the reproduction error bars the paper's
    single-sample bars lack.
    """
    refs = references or SINGLE_REFS
    workloads = workloads or SEED_STABILITY_WORKLOADS
    runs = {(workload, seed, design): RunSpec(workload, design, refs,
                                              seed=seed)
            for workload in workloads
            for seed in range(1, seeds + 1)
            for design in ("standard", "das")}

    def table(results) -> ExperimentResult:
        result = ExperimentResult(
            "ablation-seeds", "DAS improvement across seeds",
            ["workload", "mean", "min", "max", "spread"])
        for workload in workloads:
            improvements = [
                results[(workload, seed, "das")].improvement_percent(
                    results[(workload, seed, "standard")])
                for seed in range(1, seeds + 1)]
            result.add_row(
                workload=workload,
                mean=sum(improvements) / len(improvements),
                min=min(improvements),
                max=max(improvements),
                spread=max(improvements) - min(improvements),
            )
        result.notes.append(
            f"{seeds} independent seeds per workload; spread = max - min")
        return result

    return Study(runs, table)


def controller_policy_ablation(references: Optional[int] = None,
                               workloads: Optional[List[str]] = None,
                               ) -> Study:
    """How much of DAS-DRAM's gain depends on the assumed controller.

    Sweeps the paper's open-page FR-FCFS controller (Table 1) against
    closed-page and plain-FCFS variants, for both standard DRAM and DAS.
    DAS-DRAM's benefit should persist across controller policies — its
    latency advantage is in the array, not the scheduler.
    """
    refs = references or SINGLE_REFS
    return improvement_grid(
        "ablation-controller",
        "DAS improvement under different controller policies",
        workloads or CONTROLLER_WORKLOADS,
        {f"das@{label}": over_standard(refs, controller=controller)
         for label, controller in CONTROLLER_POLICIES},
        ["each column compares DAS against standard DRAM under the SAME "
         "controller policy"])


def inclusive_vs_exclusive(references: Optional[int] = None,
                           workloads: Optional[List[str]] = None,
                           ) -> Study:
    """Exclusive (the paper's choice) vs inclusive fast-level management.

    Section 5 argues for the exclusive scheme on capacity grounds: the
    inclusive scheme duplicates fast-level data (losing >= 1/8 of
    capacity) in exchange for cheaper clean fills (one row move instead
    of a swap) and simpler translation.  This ablation measures both.
    """
    refs = references or SINGLE_REFS
    workloads = workloads or benchmark_names()
    runs = {(workload, design): RunSpec(workload, design, refs)
            for workload in workloads
            for design in ("standard", "das", "das_incl")}

    def table(results) -> ExperimentResult:
        result = ExperimentResult(
            "ablation-inclusive",
            "Exclusive vs inclusive fast-level management",
            ["workload", "exclusive", "inclusive", "incl_clean_fill_pct"])
        exclusive_all: List[float] = []
        inclusive_all: List[float] = []
        for workload in workloads:
            base = results[(workload, "standard")]
            inclusive = results[(workload, "das_incl")]
            clean_share = 0.0
            if inclusive.promotions:
                # promotions == fills; dirty victims pay the full swap
                # price.
                clean_share = 100.0 * (inclusive.extra.get("clean_fills", 0)
                                       / inclusive.promotions)
            exclusive_imp = results[(workload, "das")].improvement_percent(
                base)
            inclusive_imp = inclusive.improvement_percent(base)
            exclusive_all.append(exclusive_imp)
            inclusive_all.append(inclusive_imp)
            result.add_row(workload=workload, exclusive=exclusive_imp,
                           inclusive=inclusive_imp,
                           incl_clean_fill_pct=clean_share)
        result.add_row(workload="gmean",
                       exclusive=gmean_improvement(exclusive_all),
                       inclusive=gmean_improvement(inclusive_all),
                       incl_clean_fill_pct=None)
        result.notes.append(
            "inclusive loses 1/8 of addressable capacity (not visible at "
            "these footprints) but fills clean victims with one 1.5-tRC "
            "move")
        return result

    return Study(runs, table)


def replacement_policy_ablation(references: Optional[int] = None,
                                workloads: Optional[List[str]] = None,
                                ) -> Study:
    """All four fast-level replacement policies of Section 5.3."""
    refs = references or SINGLE_REFS
    return improvement_grid(
        "ablation-replacement",
        "DAS performance by fast-level replacement policy",
        workloads or benchmark_names(),
        {policy: over_standard(
            refs, asym=AsymmetricConfig(replacement=policy))
         for policy in REPLACEMENT_POLICIES},
        ["paper: differences are negligible because the fast level is "
         "large"])
