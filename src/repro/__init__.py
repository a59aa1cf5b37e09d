"""DAS-DRAM: Dynamic Asymmetric-Subarray DRAM — a full reproduction of
Lu, Lin and Yang, "Improving DRAM Latency with Dynamic Asymmetric
Subarray" (MICRO 2015).

Public API overview
-------------------

* :mod:`repro.common` — configuration, units, statistics.
* :mod:`repro.trace` — workload generators (SPEC2006 profiles, mixes).
* :mod:`repro.cache` — cache hierarchy substrate.
* :mod:`repro.cpu` — trace-driven out-of-order core model.
* :mod:`repro.dram` — DRAM device timing substrate.
* :mod:`repro.controller` — FR-FCFS memory controller engine.
* :mod:`repro.core` — the paper's contribution: asymmetric organisation,
  translation, migration, management policies, design variants.
* :mod:`repro.energy` — event-based energy model.
* :mod:`repro.sim` — system assembly, metrics, cached runner.
* :mod:`repro.exec` — execution engine (job-graph planning, inline or
  worker-pool execution, progress telemetry).
* :mod:`repro.experiments` — one study (declared runs + table) per paper
  table/figure, run as plan -> execute -> tabulate.

Quickstart::

    from repro import run_workload
    das = run_workload("mcf", "das")
    std = run_workload("mcf", "standard")
    print(f"improvement: {das.improvement_percent(std):.2f}%")
"""

from .common.config import (
    AsymmetricConfig,
    CacheConfig,
    ControllerConfig,
    CoreConfig,
    DRAMGeometry,
    HierarchyConfig,
    SystemConfig,
)
from .core.variants import DESIGN_ORDER, DESIGNS, build_memory_system
from .sim.metrics import RunMetrics
from .sim.runner import make_config, run_workload
from .sim.system import profile_row_heat, simulate

# Imported after .sim: the execution engine's planner sits above the
# simulation layer (and the experiment registry reaches back into it).
from .exec import ExecutionReport, RunSpec, execute, plan_experiments
from .trace.multiprog import mix_names
from .trace.spec2006 import benchmark_names, build_trace

__version__ = "1.0.0"

__all__ = [
    "AsymmetricConfig",
    "CacheConfig",
    "ControllerConfig",
    "CoreConfig",
    "DRAMGeometry",
    "HierarchyConfig",
    "SystemConfig",
    "DESIGN_ORDER",
    "DESIGNS",
    "build_memory_system",
    "ExecutionReport",
    "RunSpec",
    "execute",
    "plan_experiments",
    "RunMetrics",
    "make_config",
    "run_workload",
    "profile_row_heat",
    "simulate",
    "mix_names",
    "benchmark_names",
    "build_trace",
    "__version__",
]
