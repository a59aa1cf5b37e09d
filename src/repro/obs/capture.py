"""Traced simulation runs (the ``repro events`` path).

Traced runs are never cached: a disk-cache hit would recall metrics but
no events, and baking the tracer configuration into the cache key would
fragment the cache for every capacity choice.  ``trace_workload`` simply
re-simulates with a tracer attached — the run is deterministic, so its
metrics equal what ``run_workload`` returns for the same arguments.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .tracer import EventTracer


def trace_workload(
    workload: str,
    design: str = "das",
    references: Optional[int] = None,
    seed: int = 1,
    capacity: int = 65536,
) -> Tuple[object, EventTracer]:
    """Simulate one (workload, design) run with event tracing enabled.

    Returns ``(RunMetrics, EventTracer)``.  Imports lazily to keep
    ``repro.obs`` importable from the simulator layers without cycles.
    """
    from ..sim.runner import _resolve_run, fresh_run

    resolved, references, config, _key = _resolve_run(
        workload, design, references, seed, None, None)
    tracer = EventTracer(capacity)
    metrics = fresh_run(resolved, config, references, seed, tracer=tracer)
    return metrics, tracer
