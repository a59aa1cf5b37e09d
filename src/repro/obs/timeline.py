"""Phase-resolved timeline telemetry (the ``RunMetrics.timeline`` field).

End-of-run aggregates hide exactly the behaviour the paper argues from:
migration bursts at phase changes, translation-cache warmup, fast-level
hit rates that drift as the working set rotates.  A
:class:`TimelineSampler` plugs into the main simulation loop
(:class:`repro.cpu.multicore.MultiCoreSimulator`), snapshots the
cumulative run counters every ``interval_refs`` retired memory
references, and turns consecutive snapshots into **windowed deltas**:
per-window IPC, row-buffer hit rate, fast/slow service fractions,
promotions (and drops), translation-cache hit rate and migration-engine
occupancy.

Design constraints, in order:

* **Zero overhead when off.**  The simulator holds ``sampler = None``
  and guards every call site with ``is not None`` — exactly the event
  tracer's contract (``tests/test_obs.py::TestDetachedObservability``
  checks that a detached run calls no sampler code).
* **No behavioural feedback.**  Sampling only *reads* counters; the
  simulated schedule is identical with sampling on or off, so cached
  results stay comparable and the series is deterministic per seed.
* **Exact reconciliation.**  The sampler realigns at the warmup
  boundary (immediately after the recursive ``reset_stats``), and takes
  a closing snapshot after the final memory flush, so the sum of every
  windowed counter equals the end-of-run value in the stats tree.

The exported series is a plain JSON document (it rides the disk cache
next to ``RunMetrics.stats``); ``render_timeline`` draws terminal
sparklines from it and ``timeline_to_csv`` flattens it for spreadsheets.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from .render import sparkline

__all__ = ["TimelineSampler", "TIMELINE_SERIES", "sparkline",
           "render_timeline", "timeline_to_csv"]

#: Cumulative counters snapshotted per sample; window values are deltas.
COUNTER_KEYS = (
    "references",
    "instructions",
    "llc_misses",
    "reads",
    "writes",
    "translation_reads",
    "row_buffer_hits",
    "row_conflicts",
    "row_closed",
    "fast_accesses",
    "slow_accesses",
    "promotions",
    "promotions_dropped",
    "table_fetches",
    "tc_hits",
    "tc_misses",
)

#: Cumulative float quantities (windowed like counters, kept as floats).
FLOAT_KEYS = ("time_ns", "migration_busy_ns")


class TimelineSampler:
    """Samples the run counters every ``interval_refs`` retired references.

    Lifecycle (driven by the simulator): ``attach`` once the components
    exist, ``realign`` at the warmup boundary (drops any warmup-polluted
    windows and re-baselines against the freshly reset counters),
    ``maybe_sample`` from the main loop, ``finish`` after the final
    memory flush.  ``export`` returns the JSON-serialisable series.
    """

    def __init__(self, interval_refs: int) -> None:
        if interval_refs <= 0:
            raise ValueError("interval_refs must be positive")
        self.interval_refs = interval_refs
        self._cores: Sequence = ()
        self._hierarchy = None
        self._memory = None
        self._cycle_ns = 1.0
        self._active = False
        self._finished = False
        self._baseline: Optional[Dict[str, float]] = None
        self._prev: Optional[Dict[str, float]] = None
        self._next_boundary = 0
        self._windows: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # Simulator-facing lifecycle
    # ------------------------------------------------------------------

    def attach(self, cores, hierarchy, memory) -> None:
        """Bind the components whose counters the sampler reads."""
        if not cores:
            raise ValueError("need at least one core")
        self._cores = cores
        self._hierarchy = hierarchy
        self._memory = memory
        self._cycle_ns = 1.0 / cores[0].config.frequency_ghz

    def realign(self) -> None:
        """(Re)baseline at the measurement boundary.

        Called right after the warmup-boundary ``reset_stats`` so the
        first measurement window starts from the zeroed counters: any
        window sampled during warmup is discarded, and the reference
        origin moves to the current consumption point.
        """
        snapshot = self._cumulative()
        self._baseline = snapshot
        self._prev = snapshot
        self._windows = []
        self._active = True
        self._finished = False
        self._next_boundary = int(snapshot["references"]) + self.interval_refs

    def next_boundary(self) -> int:
        """Absolute consumed-reference count of the next sample point
        (the single-core fast path advances in chunks up to this)."""
        return self._next_boundary

    def maybe_sample(self) -> None:
        """Emit a window if consumption crossed the next boundary."""
        if not self._active:
            return
        refs = 0
        for core in self._cores:
            refs += core.references
        if refs < self._next_boundary:
            return
        self._emit_window(self._cumulative())
        while self._next_boundary <= refs:
            self._next_boundary += self.interval_refs

    def finish(self) -> None:
        """Take the closing snapshot (after the final memory flush).

        The closing window captures whatever the flush still serviced
        (drained writes, straggler reads), which is what makes the
        windowed sums reconcile exactly with the end-of-run stats tree.
        """
        if not self._active or self._finished:
            return
        snapshot = self._cumulative()
        if snapshot != self._prev:
            self._emit_window(snapshot)
        self._finished = True

    # ------------------------------------------------------------------
    # Snapshots and windows
    # ------------------------------------------------------------------

    def _cumulative(self) -> Dict[str, float]:
        """One snapshot of the cumulative run counters (cheap reads)."""
        cores = self._cores
        memory = self._memory
        manager = memory.manager
        engine = getattr(manager, "engine", None)
        tcache = getattr(manager, "translation_cache", None)
        references = instructions = 0
        time_ns = 0.0
        for core in cores:
            references += core.references
            instructions += core.instructions
            front = core.fetch_ns if core.fetch_ns > core.retire_floor_ns \
                else core.retire_floor_ns
            if front > time_ns:
                time_ns = front
        return {
            "references": float(references),
            "instructions": float(instructions),
            "time_ns": time_ns,
            "llc_misses": float(self._hierarchy.total_llc_misses()),
            "reads": float(memory.reads),
            "writes": float(memory.writes),
            "translation_reads": float(memory.xlat_reads),
            "row_buffer_hits": float(memory.row_buffer_hits),
            "row_conflicts": float(memory.row_conflicts),
            "row_closed": float(memory.row_closed),
            "fast_accesses": float(memory.fast_accesses),
            "slow_accesses": float(memory.slow_accesses),
            "promotions": float(getattr(manager, "promotions", 0)),
            "promotions_dropped": float(engine.dropped)
            if engine is not None else 0.0,
            "migration_busy_ns": float(engine.busy_time_ns)
            if engine is not None else 0.0,
            "table_fetches": float(getattr(manager, "table_fetches", 0)),
            "tc_hits": float(tcache.hits) if tcache is not None else 0.0,
            "tc_misses": float(tcache.misses) if tcache is not None else 0.0,
        }

    def _emit_window(self, snapshot: Dict[str, float]) -> None:
        prev = self._prev
        base = self._baseline
        assert prev is not None and base is not None
        window: Dict[str, object] = {
            "index": len(self._windows),
            # Reference offsets are measurement-relative; times absolute.
            "start_refs": int(prev["references"] - base["references"]),
            "end_refs": int(snapshot["references"] - base["references"]),
            "start_ns": prev["time_ns"],
            "end_ns": snapshot["time_ns"],
        }
        for key in COUNTER_KEYS:
            if key in ("references",):
                continue
            window[key] = int(snapshot[key] - prev[key])
        window["migration_busy_ns"] = (snapshot["migration_busy_ns"]
                                       - prev["migration_busy_ns"])
        self._derive(window)
        self._windows.append(window)
        self._prev = snapshot

    def _derive(self, window: Dict[str, object]) -> None:
        """Attach the per-window rates the paper's figures are drawn in."""
        dt = window["end_ns"] - window["start_ns"]  # type: ignore[operator]
        instructions = window["instructions"]
        window["ipc"] = \
            instructions * self._cycle_ns / dt if dt > 0 else 0.0
        hits = window["row_buffer_hits"]
        row_ops = hits + window["row_conflicts"] + window["row_closed"]
        window["row_buffer_hit_rate"] = hits / row_ops if row_ops else 0.0
        served = hits + window["fast_accesses"] + window["slow_accesses"]
        window["row_buffer_fraction"] = hits / served if served else 0.0
        window["fast_fraction"] = \
            window["fast_accesses"] / served if served else 0.0
        window["slow_fraction"] = \
            window["slow_accesses"] / served if served else 0.0
        tc_total = window["tc_hits"] + window["tc_misses"]
        window["translation_cache_hit_rate"] = \
            window["tc_hits"] / tc_total if tc_total else 0.0
        window["migration_occupancy"] = \
            window["migration_busy_ns"] / dt if dt > 0 else 0.0

    def export(self) -> Dict[str, object]:
        """The sampled series as a plain JSON-serialisable document."""
        return {
            "interval_refs": self.interval_refs,
            "cycle_ns": self._cycle_ns,
            "num_windows": len(self._windows),
            "windows": [dict(window) for window in self._windows],
        }


# ----------------------------------------------------------------------
# Rendering and export
# ----------------------------------------------------------------------

#: (window key, display label) pairs rendered by :func:`render_timeline`.
TIMELINE_SERIES = (
    ("ipc", "ipc"),
    ("row_buffer_hit_rate", "row_buffer_hit_rate"),
    ("fast_fraction", "fast_fraction"),
    ("slow_fraction", "slow_fraction"),
    ("translation_cache_hit_rate", "tc_hit_rate"),
    ("promotions", "promotions"),
    ("promotions_dropped", "promotions_dropped"),
    ("migration_occupancy", "migration_occupancy"),
    ("reads", "reads"),
    ("writes", "writes"),
)


def render_timeline(timeline: Mapping[str, object]) -> str:
    """Terminal report: one sparkline + min/mean/max per tracked series."""
    windows = timeline.get("windows") if timeline else None
    if not windows:
        return ("(no timeline recorded -- re-run with --no-cache to "
                "sample one; this result predates CODE_VERSION 10 or "
                "was produced with sampling disabled)")
    header = (f"timeline: {len(windows)} windows, "
              f"{timeline['interval_refs']} references per window")
    lines = [header]
    label_width = max(len(label) for _key, label in TIMELINE_SERIES)
    for key, label in TIMELINE_SERIES:
        values = [float(w.get(key, 0.0)) for w in windows]  # type: ignore
        mean = sum(values) / len(values)
        lines.append(
            f"  {label.ljust(label_width)}  {sparkline(values)}  "
            f"min={min(values):.4g} mean={mean:.4g} max={max(values):.4g}")
    return "\n".join(lines)


def timeline_to_csv(timeline: Mapping[str, object]) -> str:
    """Flatten the window series into CSV (one row per window)."""
    windows = timeline.get("windows") if timeline else None
    if not windows:
        return ""
    columns = list(windows[0].keys())  # type: ignore[union-attr]
    rows = [",".join(columns)]
    for window in windows:  # type: ignore[union-attr]
        cells = []
        for column in columns:
            value = window.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:.6g}")
            else:
                cells.append(str(value))
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"
