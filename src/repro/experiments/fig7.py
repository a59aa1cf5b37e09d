"""Figure 7: the paper's headline evaluation.

* 7a — single-programming performance improvement of SAS / CHARM / DAS /
  DAS(FM) / FS over standard DRAM (paper gmeans: 2.66 / 4.23 / 7.25 /
  ~7.7 / 8.71 %).
* 7b — MPKI, PPKM and footprint per benchmark.
* 7c — access-location distribution (row buffer / fast / slow), static
  (CHARM) vs dynamic (DAS).
* 7d/7e/7f — the same three views for multi-programming mixes M1-M8
  (paper gmeans for 7d: 3.72 / 4.87 / 11.77 / — / 13.79 %).
"""

from __future__ import annotations

from typing import List, Optional

from ..exec.plan import RunSpec
from ..trace.multiprog import mix_names
from ..trace.spec2006 import benchmark_names
from .report import ExperimentResult
from .study import Study, improvement_grid, over_standard

#: Designs compared against the standard-DRAM baseline, in paper order.
DESIGNS = ("sas", "charm", "das", "das_fm", "fs")

#: Default run lengths (references per core) for full regeneration.
SINGLE_REFS = 150_000
MIX_REFS = 60_000


def _design_grid(experiment_id: str, title: str, workloads: List[str],
                 references: int, note: str) -> Study:
    """Every design's % improvement over standard DRAM."""
    return improvement_grid(
        experiment_id, title, workloads,
        {design: over_standard(references, design) for design in DESIGNS},
        ["values are % performance improvement over standard DRAM", note])


def fig7a(references: Optional[int] = None,
          workloads: Optional[List[str]] = None) -> Study:
    """Figure 7a: single-programming performance improvements."""
    return _design_grid(
        "fig7a", "Single-programming performance improvement",
        workloads or benchmark_names(), references or SINGLE_REFS,
        "paper gmeans: sas=2.66 charm=4.23 das=7.25 fs=8.71 "
        "(absolute magnitudes differ on the scaled substrate; "
        "ordering and ratios are the reproduction target)")


def _characterisation(experiment_id: str, title: str, workloads: List[str],
                      references: int, notes: List[str]) -> Study:
    """MPKI, PPKM and footprint of each workload's DAS run."""
    runs = {workload: RunSpec(workload, "das", references)
            for workload in workloads}

    def table(results) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id, title,
            ["workload", "mpki", "ppkm", "footprint_mb"])
        for workload in workloads:
            metrics = results[workload]
            result.add_row(
                workload=workload,
                mpki=metrics.mpki,
                ppkm=metrics.ppkm,
                footprint_mb=metrics.footprint_bytes / 1e6,
            )
        result.notes.extend(notes)
        return result

    return Study(runs, table)


def fig7b(references: Optional[int] = None,
          workloads: Optional[List[str]] = None) -> Study:
    """Figure 7b: MPKI, PPKM and footprint per benchmark (DAS runs)."""
    return _characterisation(
        "fig7b", "MPKI / PPKM / footprint per benchmark",
        workloads or benchmark_names(), references or SINGLE_REFS,
        ["footprints follow the repo's 1/32 scaling of the paper's values"])


def _locations_table(experiment_id: str, title: str, workloads: List[str],
                     references: int) -> Study:
    """Access locations of static (CHARM) vs dynamic (DAS) placement."""
    runs = {(workload, design): RunSpec(workload, design, references)
            for workload in workloads for design in ("charm", "das")}

    def table(results) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id, title,
            ["workload", "static_rowbuf", "static_fast", "static_slow",
             "dynamic_rowbuf", "dynamic_fast", "dynamic_slow"])
        for workload in workloads:
            static = results[(workload, "charm")].access_locations
            dynamic = results[(workload, "das")].access_locations
            result.add_row(
                workload=workload,
                static_rowbuf=static["row_buffer"] * 100,
                static_fast=static["fast"] * 100,
                static_slow=static["slow"] * 100,
                dynamic_rowbuf=dynamic["row_buffer"] * 100,
                dynamic_fast=dynamic["fast"] * 100,
                dynamic_slow=dynamic["slow"] * 100,
            )
        result.notes.append("percent of memory accesses by serving "
                            "location; static = profiled CHARM, dynamic "
                            "= DAS")
        return result

    return Study(runs, table)


def fig7c(references: Optional[int] = None,
          workloads: Optional[List[str]] = None) -> Study:
    """Figure 7c: access locations, static vs dynamic (single prog)."""
    return _locations_table(
        "fig7c", "Access locations (single-programming)",
        workloads or benchmark_names(), references or SINGLE_REFS)


def fig7d(references: Optional[int] = None,
          workloads: Optional[List[str]] = None) -> Study:
    """Figure 7d: multi-programming performance improvements (M1-M8)."""
    return _design_grid(
        "fig7d", "Multi-programming performance improvement",
        workloads or mix_names(), references or MIX_REFS,
        "paper gmeans: sas=3.72 charm=4.87 das=11.77 fs=13.79")


def fig7e(references: Optional[int] = None,
          workloads: Optional[List[str]] = None) -> Study:
    """Figure 7e: MPKI / PPKM / footprint for the mixes."""
    return _characterisation(
        "fig7e", "MPKI / PPKM / footprint per mix",
        workloads or mix_names(), references or MIX_REFS, [])


def fig7f(references: Optional[int] = None,
          workloads: Optional[List[str]] = None) -> Study:
    """Figure 7f: access locations for the mixes, static vs dynamic."""
    return _locations_table(
        "fig7f", "Access locations (multi-programming)",
        workloads or mix_names(), references or MIX_REFS)
