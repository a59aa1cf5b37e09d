"""Generic parameter-sweep utility over the cached runner.

Figures 7a/7d, 8a and 9 and the grid ablations are instances of one
shape (:func:`repro.experiments.study.improvement_grid`): run a workload
set across variants of :class:`AsymmetricConfig` (or designs, or
controller configs) and tabulate improvement over the standard
baseline.  This module exposes that shape as a public API so downstream
users can study their own design points without writing a harness.

>>> from repro.sim.sweep import sweep_asym
>>> result = sweep_asym("my-study", {"tiny": dict(fast_ratio=1/16)},
...                     workloads=["libquantum"], references=3000)
>>> result.columns
['workload', 'tiny']
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..common.config import AsymmetricConfig, ControllerConfig
from ..experiments.report import ExperimentResult


def sweep_asym(
    study_id: str,
    variants: Mapping[str, Mapping[str, object]],
    workloads: Sequence[str],
    design: str = "das",
    references: Optional[int] = None,
    seed: int = 1,
    use_cache: bool = True,
    jobs: int = 1,
) -> ExperimentResult:
    """Sweep :class:`AsymmetricConfig` field overrides.

    ``variants`` maps a column label to the field overrides of one design
    point (e.g. ``{"1/16": {"fast_ratio": 1/16}}``).  Each cell is the %
    performance improvement of ``design`` over standard DRAM.
    ``jobs > 1`` fans the deduplicated runs out over a process pool
    before tabulating.
    """
    if not variants:
        raise ValueError("need at least one variant")
    columns = {
        label: dict(design=design,
                    asym=AsymmetricConfig(**overrides))  # type: ignore[arg-type]
        for label, overrides in variants.items()
    }
    return _sweep(study_id, "asym", columns, workloads, references, seed,
                  use_cache, jobs)


def sweep_designs(
    study_id: str,
    designs: Sequence[str],
    workloads: Sequence[str],
    references: Optional[int] = None,
    seed: int = 1,
    use_cache: bool = True,
    jobs: int = 1,
) -> ExperimentResult:
    """Sweep design variants (each column one design name)."""
    if not designs:
        raise ValueError("need at least one design")
    columns = {design: dict(design=design) for design in designs}
    return _sweep(study_id, "design", columns, workloads, references, seed,
                  use_cache, jobs)


def sweep_controller(
    study_id: str,
    variants: Mapping[str, Mapping[str, object]],
    workloads: Sequence[str],
    design: str = "das",
    references: Optional[int] = None,
    seed: int = 1,
    use_cache: bool = True,
    jobs: int = 1,
) -> ExperimentResult:
    """Sweep :class:`ControllerConfig` field overrides.

    The baseline for each cell uses the SAME controller variant, so the
    columns isolate the design's benefit under each controller.
    """
    if not variants:
        raise ValueError("need at least one variant")
    columns = {
        label: dict(design=design,
                    controller=ControllerConfig(**overrides))  # type: ignore[arg-type]
        for label, overrides in variants.items()
    }
    return _sweep(study_id, "controller", columns, workloads, references,
                  seed, use_cache, jobs)


def _sweep(study_id, kind, columns, workloads, references, seed,
           use_cache, jobs) -> ExperimentResult:
    """Plan, execute and tabulate one sweep: each column is the
    :func:`~repro.experiments.study.over_standard` arguments of its cells
    (see :func:`repro.experiments.registry.run_experiments`)."""
    from ..experiments.registry import run_experiments
    from ..experiments.study import improvement_grid, over_standard

    study = improvement_grid(
        study_id, f"{kind} sweep", workloads,
        {label: over_standard(references, seed=seed, **column)
         for label, column in columns.items()},
        ["values are % performance improvement over standard DRAM"],
        gmean=len(workloads) > 1)
    return run_experiments([study], jobs=jobs, use_cache=use_cache)[0]
