"""Simulation assembly: metrics, system builder, cached runner."""

from ..trace.library import DEFAULT_MIX_REFS, DEFAULT_SINGLE_REFS
from .metrics import RunMetrics
from .runner import make_config, run_workload
from .system import collect_metrics, profile_row_heat, simulate

__all__ = [
    "RunMetrics",
    "DEFAULT_MIX_REFS",
    "DEFAULT_SINGLE_REFS",
    "make_config",
    "run_workload",
    "collect_metrics",
    "profile_row_heat",
    "simulate",
]
