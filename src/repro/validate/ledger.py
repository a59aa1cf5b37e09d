"""The machine-readable expectations ledger.

``validation/expectations.json`` encodes every checkable fidelity claim
the reproduction makes against the paper — the claims that used to live
only as prose and "✔" marks in EXPERIMENTS.md.  Each entry is one
:class:`Expectation`: a stable id, the experiment whose result it reads,
a check ``kind`` (see :mod:`repro.validate.checks`), the kind's
parameters, the paper statement it pins, and the scales (``ci`` /
``full``) at which the claim is expected to hold.

The file is JSON (stdlib-only) and is schema validated on load: unknown kinds, missing parameters, duplicate ids and
unknown scales all raise :class:`LedgerError` with the offending entry
named, so a broken ledger fails loudly rather than silently skipping
claims.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Default on-disk location of the committed ledger.
DEFAULT_LEDGER_PATH = Path("validation") / "expectations.json"

#: Scales a claim may be checked at (see ``repro validate --scale``).
SCALES = ("ci", "full")


class LedgerError(ValueError):
    """The expectations file is malformed (schema violation)."""


@dataclass(frozen=True)
class Expectation:
    """One machine-checkable fidelity claim."""

    id: str
    experiment: str
    kind: str
    title: str
    paper: str
    params: Dict[str, object] = field(default_factory=dict)
    scales: Sequence[str] = SCALES
    notes: str = ""

    @property
    def experiments(self) -> List[str]:
        """Every experiment this check reads (primary first).

        Cross-experiment kinds name a second experiment in
        ``params["other"]``; the engine must run both.
        """
        needed = [self.experiment]
        other = self.params.get("other")
        if isinstance(other, str) and other not in needed:
            needed.append(other)
        return needed


@dataclass
class Ledger:
    """The parsed expectations file."""

    version: int
    expectations: List[Expectation]
    deviations: List[str] = field(default_factory=list)

    def select(self, scale: Optional[str] = None,
               only: Optional[Sequence[str]] = None) -> List[Expectation]:
        """Expectations filtered by scale and an id/experiment allowlist.

        ``only`` entries match either an expectation id or an experiment
        id; unknown entries raise KeyError so a typo in ``--only`` is
        not a silent no-op.
        """
        selected = list(self.expectations)
        if scale is not None:
            selected = [e for e in selected if scale in e.scales]
        if only:
            wanted = set(only)
            known = ({e.id for e in self.expectations}
                     | {e.experiment for e in self.expectations})
            unknown = wanted - known
            if unknown:
                raise KeyError(
                    f"--only names unknown expectation/experiment id(s): "
                    f"{', '.join(sorted(unknown))}")
            selected = [e for e in selected
                        if e.id in wanted or e.experiment in wanted]
        return selected


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise LedgerError(f"{where}: {message}")


def _parse_entry(data: object, index: int) -> Expectation:
    where = f"expectations[{index}]"
    _require(isinstance(data, dict), where, "entry must be an object")
    assert isinstance(data, dict)
    for key in ("id", "experiment", "kind", "title", "paper"):
        _require(key in data, where, f"missing required field {key!r}")
        _require(isinstance(data[key], str) and data[key],
                 where, f"field {key!r} must be a non-empty string")
    where = f"expectation {data['id']!r}"
    params = data.get("params", {})
    _require(isinstance(params, dict), where, "params must be an object")
    scales = data.get("scales", list(SCALES))
    _require(isinstance(scales, list) and scales
             and all(s in SCALES for s in scales),
             where, f"scales must be a non-empty subset of {SCALES}")
    notes = data.get("notes", "")
    _require(isinstance(notes, str), where, "notes must be a string")
    unknown = set(data) - {"id", "experiment", "kind", "title", "paper",
                           "params", "scales", "notes"}
    _require(not unknown, where, f"unknown field(s): {sorted(unknown)}")
    from .checks import validate_params  # local: avoid import cycle

    validate_params(data["kind"], params, where)
    return Expectation(
        id=data["id"], experiment=data["experiment"], kind=data["kind"],
        title=data["title"], paper=data["paper"], params=params,
        scales=tuple(scales), notes=notes)


def parse_ledger(data: object) -> Ledger:
    """Validate and build a :class:`Ledger` from decoded JSON."""
    _require(isinstance(data, dict), "ledger", "top level must be an object")
    assert isinstance(data, dict)
    _require(data.get("version") == 1, "ledger",
             "version must be 1 (the only schema this checker knows)")
    entries = data.get("expectations")
    _require(isinstance(entries, list) and entries, "ledger",
             "expectations must be a non-empty list")
    deviations = data.get("deviations", [])
    _require(isinstance(deviations, list)
             and all(isinstance(d, str) for d in deviations),
             "ledger", "deviations must be a list of strings")
    unknown = set(data) - {"version", "expectations", "deviations"}
    _require(not unknown, "ledger", f"unknown field(s): {sorted(unknown)}")
    expectations = [_parse_entry(entry, i)
                    for i, entry in enumerate(entries)]
    seen: Dict[str, int] = {}
    for expectation in expectations:
        seen[expectation.id] = seen.get(expectation.id, 0) + 1
    duplicates = sorted(i for i, n in seen.items() if n > 1)
    _require(not duplicates, "ledger",
             f"duplicate expectation id(s): {duplicates}")
    return Ledger(version=1, expectations=expectations,
                  deviations=list(deviations))


def load_ledger(path: Optional[Path] = None) -> Ledger:
    """Load and schema-validate the expectations file."""
    ledger_path = Path(path) if path is not None else DEFAULT_LEDGER_PATH
    try:
        with ledger_path.open() as stream:
            data = json.load(stream)
    except OSError as error:
        raise LedgerError(f"cannot read ledger {ledger_path}: {error}")
    except json.JSONDecodeError as error:
        raise LedgerError(f"ledger {ledger_path} is not valid JSON: {error}")
    return parse_ledger(data)
