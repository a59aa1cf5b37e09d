"""Text-mode figure rendering: grouped bar charts for experiment results.

The repo has no plotting dependencies, so "figures" render as aligned
ASCII bar groups — close enough to eyeball the shapes the paper plots
(who wins, by how much, where the crossovers are).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .report import ExperimentResult

#: Glyph used for bar fills.
BAR_CHAR = "#"


def _numeric_columns(result: ExperimentResult,
                     columns: Optional[Sequence[str]]) -> List[str]:
    if columns is not None:
        return list(columns)
    numeric = []
    for column in result.columns[1:]:
        values = result.column(column)
        if all(isinstance(v, (int, float)) for v in values
               if v is not None):
            numeric.append(column)
    return numeric


def bar_chart(
    result: ExperimentResult,
    label_column: Optional[str] = None,
    columns: Optional[Sequence[str]] = None,
    width: int = 50,
) -> str:
    """Render an experiment as grouped horizontal bars.

    Each row becomes a group labelled by ``label_column`` (default: the
    first column); each numeric column becomes one bar in the group,
    scaled to the global maximum.

    >>> from repro.experiments.report import ExperimentResult
    >>> r = ExperimentResult("x", "demo", ["w", "a"])
    >>> r.add_row(w="one", a=2.0)
    >>> print(bar_chart(r, width=4))  # doctest: +ELLIPSIS
    == x: demo ==
    ...
    """
    label_column = label_column or result.columns[0]
    bar_columns = _numeric_columns(result, columns)
    if not bar_columns:
        raise ValueError("no numeric columns to plot")
    values: List[float] = []
    for column in bar_columns:
        values.extend(v for v in result.column(column)
                      if isinstance(v, (int, float)))
    if not values:
        raise ValueError("no numeric data to plot")
    peak = max(abs(v) for v in values) or 1.0
    scale = width / peak
    name_width = max(len(str(c)) for c in bar_columns)
    lines = [f"== {result.experiment_id}: {result.title} =="]
    for row in result.rows:
        lines.append(f"{row.get(label_column)}")
        for column in bar_columns:
            value = row.get(column)
            if not isinstance(value, (int, float)):
                continue
            filled = int(round(abs(value) * scale))
            sign = "-" if value < 0 else ""
            lines.append(f"  {str(column).ljust(name_width)} "
                         f"|{sign}{BAR_CHAR * filled} {value:.2f}")
    lines.append(f"(bar = {peak / width:.3g} per character)")
    return "\n".join(lines)

