"""Experiment-execution engine (plan / execute).

The middle of the one experiment pipeline (plan -> execute -> tabulate,
:func:`repro.experiments.registry.run_experiments`):

1. **plan** — collect every ``(workload, design, config, seed, refs)``
   simulation a batch of experiments declares and deduplicate on the
   runner's store key (:mod:`repro.exec.plan`);
2. **execute** — bring every result into existence, from the store
   where possible, inline for one job and across a process pool
   otherwise, with bounded retries and live progress
   (:mod:`repro.exec.pool`).

The tables are then built from the batch's results, so inline and
parallel regeneration produce identical tables.
"""

from .plan import JobGraph, RunSpec, plan_experiments
from .pool import ExecutionError, ExecutionReport, execute
from .progress import NullProgress, ProgressLine
from .telemetry import JsonlLog

__all__ = [
    "JobGraph",
    "RunSpec",
    "plan_experiments",
    "ExecutionError",
    "ExecutionReport",
    "execute",
    "NullProgress",
    "ProgressLine",
    "JsonlLog",
]
