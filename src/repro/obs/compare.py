"""Cross-run comparison: recursive stats-tree and timeline diffing.

``repro compare A B`` answers "what changed between these two cached
runs" in one command: it recalls (or runs) both results, walks their
nested ``RunMetrics.stats`` trees in lockstep, ranks every numeric leaf
by relative delta, and reports the divergences above a threshold —
followed by a window-by-window divergence summary of the two timelines.

The diff itself is pure data-to-data (no simulator imports), so it can
be unit-tested against hand-built trees and reused on any pair of
``as_dict`` exports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from .render import aligned_table, format_number as _fmt


@dataclass
class StatDelta:
    """One diverging numeric leaf of two stats trees."""

    path: str
    a: float
    b: float

    @property
    def abs_delta(self) -> float:
        """Magnitude of the relative delta."""
        return self.b - self.a

    @property
    def rel_delta(self) -> Optional[float]:
        """Relative delta (B-A)/|A|, or None when A is zero."""
        if self.a == 0.0:
            return None
        return (self.b - self.a) / abs(self.a)

    @property
    def severity(self) -> float:
        """Ranking key: |relative delta|; appearing/vanishing ranks top."""
        rel = self.rel_delta
        if rel is None:
            return math.inf if self.b != 0.0 else 0.0
        return abs(rel)


def diff_stats(a: Mapping[str, object], b: Mapping[str, object],
               prefix: str = "") -> List[StatDelta]:
    """Recursively diff two ``RunMetrics.stats`` trees.

    Returns one :class:`StatDelta` per numeric leaf present in either
    tree (a leaf missing on one side counts as 0.0 there).  Leaves whose
    types disagree (dict vs number) are skipped — that indicates a
    structural change better seen in the full reports.
    """
    deltas: List[StatDelta] = []
    keys = list(a)
    keys.extend(k for k in b if k not in a)
    for key in keys:
        path = f"{prefix}.{key}" if prefix else key
        left = a.get(key)
        right = b.get(key)
        left_is_map = isinstance(left, Mapping)
        right_is_map = isinstance(right, Mapping)
        if left_is_map or right_is_map:
            if left_is_map and right_is_map:
                deltas.extend(diff_stats(left, right, path))
            elif left is None and right_is_map:
                deltas.extend(diff_stats({}, right, path))
            elif right is None and left_is_map:
                deltas.extend(diff_stats(left, {}, path))
            # dict-vs-number mismatch: structural change, skipped.
            continue
        left_num = _as_number(left)
        right_num = _as_number(right)
        if left_num is None and right_num is None:
            continue
        deltas.append(StatDelta(path, left_num or 0.0, right_num or 0.0))
    return deltas


def _as_number(value: object) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def render_stat_diff(deltas: Sequence[StatDelta],
                     threshold_percent: float = 1.0,
                     limit: int = 30,
                     label_a: str = "A", label_b: str = "B") -> str:
    """Ranked table of the diverging stats (largest relative delta first).

    ``threshold_percent`` filters out noise-level divergence; leaves that
    appear on only one side always clear the threshold.
    """
    compared = len(deltas)
    diverging = [d for d in deltas
                 if d.severity * 100.0 >= threshold_percent
                 and d.abs_delta != 0.0]
    diverging.sort(key=lambda d: (-d.severity, d.path))
    shown = diverging[:limit]
    header = (f"ranked stat deltas (|Δ| >= {threshold_percent:g}%, "
              f"{len(diverging)} of {compared} leaves diverge, "
              f"showing {len(shown)})")
    if not shown:
        return header + "\n  (no stats diverge beyond the threshold)"
    path_width = max(len(d.path) for d in shown)
    lines = [header,
             f"  {'path'.ljust(path_width)}  "
             f"{label_a:>14}  {label_b:>14}  {'Δ%':>9}"]
    for delta in shown:
        rel = delta.rel_delta
        if rel is None:
            rel_text = "new" if delta.b != 0.0 else "0"
        else:
            rel_text = f"{rel * 100.0:+.1f}%"
        lines.append(
            f"  {delta.path.ljust(path_width)}  "
            f"{_fmt(delta.a):>14}  {_fmt(delta.b):>14}  {rel_text:>9}")
    return "\n".join(lines)


#: Timeline series compared by :func:`render_timeline_diff`.
_TIMELINE_DIFF_SERIES = (
    "ipc",
    "row_buffer_hit_rate",
    "fast_fraction",
    "translation_cache_hit_rate",
    "promotions",
    "migration_occupancy",
)


def render_timeline_diff(timeline_a: Mapping[str, object],
                         timeline_b: Mapping[str, object],
                         label_a: str = "A", label_b: str = "B") -> str:
    """Window-by-window divergence summary of two sampled timelines."""
    from .render import sparkline

    windows_a = (timeline_a or {}).get("windows") or []
    windows_b = (timeline_b or {}).get("windows") or []
    if not windows_a or not windows_b:
        return ("timeline: not comparable (missing on "
                + ("both sides" if not windows_a and not windows_b
                   else (label_a if not windows_a else label_b)) + ")")
    lines = [f"timeline divergence ({len(windows_a)} vs "
             f"{len(windows_b)} windows)"]
    count = min(len(windows_a), len(windows_b))
    if len(windows_a) != len(windows_b):
        lines.append(f"  (window counts differ; comparing the first "
                     f"{count} of each)")
    width = max(len(k) for k in _TIMELINE_DIFF_SERIES)
    for key in _TIMELINE_DIFF_SERIES:
        series_a = [float(w.get(key, 0.0)) for w in windows_a[:count]]
        series_b = [float(w.get(key, 0.0)) for w in windows_b[:count]]
        gaps = [b - a for a, b in zip(series_a, series_b)]
        worst = max(range(count), key=lambda i: abs(gaps[i]))
        lines.append(
            f"  {key.ljust(width)}  {label_a} {sparkline(series_a)}  "
            f"{label_b} {sparkline(series_b)}  "
            f"max|Δ|={abs(gaps[worst]):.4g} @ window {worst}")
    return "\n".join(lines)


def compare_headline(metrics_a, metrics_b,
                     label_a: str = "A", label_b: str = "B") -> str:
    """Side-by-side headline metrics of two :class:`RunMetrics`."""
    rows: List[Tuple[str, float, float]] = [
        ("instructions", metrics_a.instructions, metrics_b.instructions),
        ("mpki", metrics_a.mpki, metrics_b.mpki),
        ("ppkm", metrics_a.ppkm, metrics_b.ppkm),
        ("dram_accesses", metrics_a.dram_accesses, metrics_b.dram_accesses),
        ("promotions", metrics_a.promotions, metrics_b.promotions),
        ("mean_read_latency_ns", metrics_a.mean_read_latency_ns,
         metrics_b.mean_read_latency_ns),
        ("translation_cache_hit_rate", metrics_a.translation_cache_hit_rate,
         metrics_b.translation_cache_hit_rate),
        ("total_time_ns", metrics_a.total_time_ns, metrics_b.total_time_ns),
    ]
    lines = aligned_table(
        ["metric", label_a, label_b],
        [[name, _fmt(a), _fmt(b)] for name, a, b in rows])
    if len(metrics_a.time_ns) == len(metrics_b.time_ns) \
            and all(t > 0 for t in metrics_a.time_ns) \
            and all(t > 0 for t in metrics_b.time_ns):
        speedup = metrics_a.speedup_over(metrics_b)
        lines.append(f"  speedup of {label_a} over {label_b}: {speedup:.4f}x")
    return "\n".join(lines)


def compare_runs(metrics_a, metrics_b, label_a: str = "A",
                 label_b: str = "B", threshold_percent: float = 1.0,
                 limit: int = 30) -> str:
    """The full ``repro compare`` report for two :class:`RunMetrics`."""
    sections = [
        f"{label_a}: workload={metrics_a.workload} "
        f"design={metrics_a.design} references={metrics_a.references}",
        f"{label_b}: workload={metrics_b.workload} "
        f"design={metrics_b.design} references={metrics_b.references}",
        "",
        compare_headline(metrics_a, metrics_b, label_a, label_b),
        "",
        render_stat_diff(diff_stats(metrics_a.stats, metrics_b.stats),
                         threshold_percent, limit, label_a, label_b),
        "",
        render_timeline_diff(metrics_a.timeline, metrics_b.timeline,
                             label_a, label_b),
    ]
    return "\n".join(sections)
