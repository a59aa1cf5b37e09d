"""ASCII rendering of experiment results (the repo's "figures").

Every experiment's table is an :class:`ExperimentResult`: an ordered
table of rows plus metadata, renderable as aligned text and exportable as
a dictionary.  The same rows the paper plots appear here as columns.

Results are *structured first*: numeric cells and named :class:`Fact`
values are stored unformatted, and every consumer — the text renderer,
the JSON export, the bar charts and the paper-fidelity validator
(:mod:`repro.validate`) — derives its view from the same data.  The
dictionary form round-trips through :meth:`ExperimentResult.to_dict` /
:meth:`ExperimentResult.from_dict`, which is what lets a committed
results snapshot stand in for a live run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Fact:
    """One named scalar a harness measured or derived.

    Facts carry table cells that are prose in the rendered view (e.g.
    Table 1's timing parameters or the computed area overhead) in a form
    the validator can check: a float ``value`` with an optional ``unit``
    and the ``paper`` value it reproduces.
    """

    name: str
    value: float
    unit: str = ""
    paper: Optional[float] = None
    note: str = ""

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-safe)."""
        return {"name": self.name, "value": self.value, "unit": self.unit,
                "paper": self.paper, "note": self.note}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Fact":
        """Rebuild a fact from :meth:`to_dict` output."""
        return cls(name=str(data["name"]), value=float(data["value"]),
                   unit=str(data.get("unit", "")),
                   paper=(None if data.get("paper") is None
                          else float(data["paper"])),
                   note=str(data.get("note", "")))


@dataclass
class ExperimentResult:
    """Structured outcome of one table/figure harness."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    facts: Dict[str, Fact] = field(default_factory=dict)

    def add_row(self, **values: object) -> None:
        """Append a row (keys must match ``columns``)."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"row has unknown columns: {sorted(unknown)}")
        self.rows.append(values)

    def add_fact(self, name: str, value: float, unit: str = "",
                 paper: Optional[float] = None, note: str = "") -> Fact:
        """Record a named scalar fact; returns the stored :class:`Fact`."""
        fact = Fact(name, value, unit, paper, note)
        self.facts[name] = fact
        return fact

    def column(self, name: str) -> List[object]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(name)
        return [row.get(name) for row in self.rows]

    def row_by(self, key_column: str, key: object) -> Dict[str, object]:
        """The first row whose ``key_column`` equals ``key``."""
        for row in self.rows:
            if row.get(key_column) == key:
                return row
        raise KeyError(f"no row with {key_column}={key!r}")

    def render(self) -> str:
        """Render as an aligned plain-text table."""
        header = [self._format(c) for c in self.columns]
        body = [
            [self._format(row.get(column)) for column in self.columns]
            for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body
            else len(header[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    @staticmethod
    def _format(value: object) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary form (see :meth:`from_dict`)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(r) for r in self.rows],
            "notes": list(self.notes),
            "facts": {name: fact.to_dict()
                      for name, fact in self.facts.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output.

        This is the contract the committed full-scale results snapshot
        (``validation/results_full.json``) relies on: a deserialised
        result is indistinguishable from a live one to the renderer and
        the validator.
        """
        return cls(
            experiment_id=str(data["experiment_id"]),
            title=str(data["title"]),
            columns=list(data["columns"]),
            rows=[dict(row) for row in data.get("rows", [])],
            notes=list(data.get("notes", [])),
            facts={str(name): Fact.from_dict(fact)
                   for name, fact in (data.get("facts") or {}).items()},
        )

