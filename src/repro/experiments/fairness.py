"""Multi-programming fairness study (repo extra).

The paper reports mix-level performance; this harness asks the
complementary QoS question: how *evenly* is the memory system shared?
For one mix it runs every member standalone (same trace, same length),
then computes each core's slowdown inside the mix::

    slowdown_i = T_mix_i / T_solo_i

and reports, per design, the weighted speedup over standard DRAM
alongside the worst-core slowdown and the fairness index
(min slowdown / max slowdown; 1.0 = perfectly even).

DAS-DRAM should not buy its average gain by starving one program: the
fast level is shared by demand, so all four members benefit.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.rng import derive_seed
from ..exec.plan import RunSpec
from ..trace.multiprog import MIXES
from .fig7 import MIX_REFS
from .report import ExperimentResult
from .study import Study

#: Designs compared in the fairness study.
FAIRNESS_DESIGNS = ("standard", "das", "fs")

#: Default mixes studied.
FAIRNESS_MIXES = ("M1", "M5", "M8")


def fairness_study(references: Optional[int] = None,
                   workloads: Optional[List[str]] = None,
                   seed: int = 1) -> Study:
    """Per-design fairness metrics for the mixes.

    Each mix member also runs standalone on standard DRAM, reusing the
    mix's per-slot sub-seed so the solo trace is the same program
    behaviour the mix runs (modulo the address offset).
    """
    refs = references or MIX_REFS
    mixes = workloads or FAIRNESS_MIXES
    runs = {}
    for mix in mixes:
        for index, bench in enumerate(MIXES[mix]):
            sub_seed = derive_seed(seed, f"{mix}:{index}:{bench}")
            runs[(mix, index)] = RunSpec(bench, "standard", refs,
                                         seed=sub_seed)
        for design in FAIRNESS_DESIGNS:
            runs[(mix, design)] = RunSpec(mix, design, refs, seed=seed)

    def table(results) -> ExperimentResult:
        result = ExperimentResult(
            "fairness", "Mix fairness: slowdown spread per design",
            ["mix", "design", "improvement", "worst_slowdown", "fairness"])
        for mix in mixes:
            solo = [results[(mix, index)].time_ns[0]
                    for index in range(len(MIXES[mix]))]
            base = results[(mix, "standard")]
            for design in FAIRNESS_DESIGNS:
                metrics = results[(mix, design)]
                slowdowns = [mix_time / solo_time
                             for mix_time, solo_time
                             in zip(metrics.time_ns, solo)]
                result.add_row(
                    mix=mix,
                    design=design,
                    improvement=metrics.improvement_percent(base),
                    worst_slowdown=max(slowdowns),
                    fairness=min(slowdowns) / max(slowdowns),
                )
        result.notes.append(
            "slowdown_i = mix time / standalone time (standard-DRAM solo "
            "baseline); fairness = min/max slowdown, 1.0 = even sharing")
        return result

    return Study(runs, table)
