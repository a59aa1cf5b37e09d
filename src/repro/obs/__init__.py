"""Unified observability: stats tree, timelines, tracing, comparison.

* :mod:`repro.obs.stats` — composes every component's ``stats_group()``
  dictionary into one nested tree and renders it (``repro stats``);
* :mod:`repro.obs.timeline` — phase-resolved windowed counter series
  sampled from the main loop (``repro stats --timeline``);
* :mod:`repro.obs.tracer` — the ring-buffered event tracer with
  Chrome-trace/Perfetto and plain-text exports (``repro events``);
* :mod:`repro.obs.capture` — traced, uncached simulation runs;
* :mod:`repro.obs.compare` — recursive cross-run stats/timeline diffing
  (``repro compare``);
* :mod:`repro.obs.render` — shared aligned-table/number formatting used
  by the compare and validation reports;
* :mod:`repro.obs.ledger` — the durable SQLite run ledger recording one
  row per completed simulation and one per validation (``repro
  ledger``).

Executor telemetry (structured JSON-lines run logs) lives next to the
worker pool in :mod:`repro.exec.telemetry`.
"""

from .capture import trace_workload
from .compare import (
    compare_runs,
    diff_stats,
    render_stat_diff,
    render_timeline_diff,
)
from .render import aligned_table, format_number, sparkline
from .stats import build_stats_tree, render_stats
from .timeline import (
    TimelineSampler,
    render_timeline,
    timeline_to_csv,
)
from .tracer import (
    MIGRATION_TID,
    TRANSLATION_TID,
    EventTracer,
    TraceEvent,
)

__all__ = [
    "EventTracer",
    "TraceEvent",
    "TRANSLATION_TID",
    "MIGRATION_TID",
    "TimelineSampler",
    "aligned_table",
    "build_stats_tree",
    "format_number",
    "compare_runs",
    "diff_stats",
    "render_stat_diff",
    "render_stats",
    "render_timeline",
    "render_timeline_diff",
    "sparkline",
    "timeline_to_csv",
    "trace_workload",
]
