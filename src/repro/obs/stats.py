"""Assembly and rendering of the full run-statistics tree.

One simulation exports one nested plain dictionary::

    [run]
      [core0] ...            (one group per core: work, stalls, IPC)
      [caches] [l1] [l2] [llc]
      [controller]           (memory-system counters)
        [banks]              (aggregate bank activity)
        [manager]            (design-specific: translation / migration /
                              promotion children for DAS)

Every component counts in plain attributes and returns its own subtree
from ``stats_group()``; ``build_stats_tree`` composes those dictionaries
into the JSON-cached ``RunMetrics.stats`` field, so cached runs recall
their full statistics, and ``render_stats`` prints the dictionary as the
human report.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

#: The keys of an exported sample summary (the migration engine's
#: ``window_ns``); any other nested mapping is a child group.
_SUMMARY_KEYS = frozenset(("count", "sum", "mean", "min", "max", "stdev"))


def build_stats_tree(cores, hierarchy, memory) -> Dict[str, object]:
    """Compose the per-component statistics into one tree.

    ``cores`` is the simulator's core list; ``hierarchy`` the cache
    hierarchy; ``memory`` the memory system.  Each contributes through
    its own ``stats_group()`` export.
    """
    tree: Dict[str, object] = {
        f"core{core.core_id}": core.stats_group() for core in cores}
    tree["caches"] = hierarchy.stats_group()
    tree["controller"] = memory.stats_group()
    return tree


def render_stats(stats: Mapping[str, object], name: str = "run") -> str:
    """Render a ``RunMetrics.stats`` dictionary as a text report.

    Within each ``[group]``, integer counters come first, then sample
    summaries, then the other scalars (``.6g``), each sorted by name;
    child groups follow in export order.
    """
    if not stats:
        return f"[{name}]\n  (no statistics recorded)"
    lines: List[str] = []
    _render_group(name, stats, "", lines)
    return "\n".join(lines)


def _render_group(name: str, group: Mapping[str, object], pad: str,
                  lines: List[str]) -> None:
    counters, summaries, scalars, children = [], [], [], []
    for key, value in group.items():
        if isinstance(value, Mapping):
            if set(value) == _SUMMARY_KEYS:
                summaries.append((key, value))
            else:
                children.append((key, value))
        elif isinstance(value, int) and not isinstance(value, bool):
            counters.append((key, value))
        else:
            scalars.append((key, value))
    lines.append(f"{pad}[{name}]")
    for key, value in sorted(counters):
        lines.append(f"{pad}  {key}: {value}")
    for key, summary in sorted(summaries):
        lines.append(
            f"{pad}  {key}: mean={summary['mean']:.3f} n={summary['count']} "
            f"min={summary['min']:.3f} max={summary['max']:.3f}")
    for key, value in sorted(scalars):
        lines.append(f"{pad}  {key}: {float(value):.6g}")
    for key, child in children:
        _render_group(key, child, pad + "  ", lines)
