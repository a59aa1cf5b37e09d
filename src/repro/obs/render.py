"""Shared plain-text report rendering primitives.

``repro compare`` (:mod:`repro.obs.compare`), ``repro validate``
(:mod:`repro.validate.engine`) and the timeline report all print
aligned, terminal-friendly reports; this module holds the formatting
primitives they share so the report families stay visually consistent.
"""

from __future__ import annotations

from typing import List, Sequence

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Render a numeric series as unicode block characters."""
    if not values:
        return ""
    low = min(values)
    high = max(values)
    if high <= low:
        return _SPARK_LEVELS[3] * len(values)
    span = high - low
    top = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[min(top, int((value - low) / span * top + 0.5))]
        for value in values)


def format_number(value: float) -> str:
    """Compact numeric formatting: integers bare, floats to 6 sig figs."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def aligned_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                  indent: str = "  ") -> List[str]:
    """Column-aligned text lines: header, then one line per row.

    The first column is left-justified (labels), the rest are
    right-justified (numbers).  Returns lines so callers can interleave
    them with their own sections.
    """
    table = [list(headers)] + [list(row) for row in rows]
    widths = [max(len(line[i]) for line in table)
              for i in range(len(headers))]
    lines = []
    for line in table:
        cells = [line[0].ljust(widths[0])]
        cells.extend(cell.rjust(width)
                     for cell, width in zip(line[1:], widths[1:]))
        lines.append(indent + "  ".join(cells).rstrip())
    return lines
