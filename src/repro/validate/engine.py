"""The checker engine behind ``repro validate``.

Runs the experiments the selected expectations reference — through the
normal cached harnesses, optionally pre-warmed by the ``repro.exec``
worker pool — then evaluates every expectation and assembles a
structured :class:`ValidationReport` with per-claim evidence.

Two scales are defined (see :data:`SCALES`): ``full`` is the paper's
regeneration scale (the harness defaults: 150k references single /
60k per core for mixes), ``ci`` is a reduced scale at which the
*directional* subset of the ledger still holds and a cold CI runner
finishes in minutes.  Each expectation declares the scales it is valid
at; out-of-scale claims are reported as skipped, never silently dropped.

A committed full-scale run can stand in for live simulation: ``repro
validate --scale full --save-snapshot`` stores every experiment result
as JSON, and ``--from-snapshot`` re-evaluates the ledger against that
file without simulating.  The docs generator (:mod:`repro.validate.docs`)
builds EXPERIMENTS.md from the same snapshot, which is what makes the
committed ledger byte-reproducible in CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from ..experiments.report import ExperimentResult
from ..obs import ledger as run_ledger
from ..obs.render import aligned_table
from .checks import CheckError, evaluate
from .ledger import Expectation, Ledger

#: Default on-disk location of the committed full-scale snapshot.
DEFAULT_SNAPSHOT_PATH = Path("validation") / "results_full.json"

#: Experiments that run multi-programming mixes (mix-length references).
MIX_EXPERIMENTS = frozenset({"fig7d", "fig7e", "fig7f", "fairness"})


@dataclass(frozen=True)
class Scale:
    """Reference counts one validation scale runs at.

    ``None`` means "the harness default", i.e. the full regeneration
    scale of EXPERIMENTS.md.
    """

    name: str
    single_refs: Optional[int]
    mix_refs: Optional[int]

    def refs_for(self, experiment_id: str) -> Optional[int]:
        """The reference-count override for one experiment."""
        if experiment_id in MIX_EXPERIMENTS:
            return self.mix_refs
        return self.single_refs


#: The two supported scales (``repro validate --scale``).
SCALES: Dict[str, Scale] = {
    "ci": Scale("ci", 20_000, 12_000),
    "full": Scale("full", None, None),
}


@dataclass
class ClaimResult:
    """Outcome of one expectation."""

    id: str
    experiment: str
    status: str  # pass | fail | skip | error
    title: str
    paper: str
    evidence: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary form."""
        return {"id": self.id, "experiment": self.experiment,
                "status": self.status, "title": self.title,
                "paper": self.paper, "evidence": self.evidence}


@dataclass
class ValidationReport:
    """Structured outcome of one ``repro validate`` invocation."""

    scale: str
    claims: List[ClaimResult] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        """Claims per status."""
        counts = {"pass": 0, "fail": 0, "skip": 0, "error": 0}
        for claim in self.claims:
            counts[claim.status] += 1
        return counts

    @property
    def ok(self) -> bool:
        """True when no claim failed or errored."""
        counts = self.counts
        return counts["fail"] == 0 and counts["error"] == 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary form (``repro validate --json``)."""
        from ..sim.runner import CODE_VERSION

        return {
            "scale": self.scale,
            "code_version": CODE_VERSION,
            "ok": self.ok,
            "counts": self.counts,
            "claims": [claim.to_dict() for claim in self.claims],
        }

    def render(self) -> str:
        """Aligned plain-text report (the default CLI output)."""
        counts = self.counts
        lines = [
            f"paper-fidelity validation — scale {self.scale}: "
            f"{counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['error']} error, {counts['skip']} skipped"]
        rows = []
        for claim in self.claims:
            rows.append([claim.status.upper(), claim.id,
                         f"[{claim.experiment}]", claim.title])
        lines.extend(aligned_table(["status", "id", "experiment", "claim"],
                                   rows))
        detail = [c for c in self.claims
                  if c.status in ("fail", "error") or c.evidence]
        if detail:
            lines.append("")
            lines.append("evidence:")
            for claim in detail:
                lines.append(f"  {claim.id} [{claim.status}]")
                lines.append(f"    {claim.evidence}")
        return "\n".join(lines)


def save_snapshot(results: Mapping[str, ExperimentResult], scale: str,
                  path: Path) -> None:
    """Write experiment results as a reusable JSON snapshot."""
    from ..sim.runner import CODE_VERSION

    payload = {
        "scale": scale,
        "code_version": CODE_VERSION,
        "experiments": {experiment_id: result.to_dict()
                        for experiment_id, result in results.items()},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")


def load_snapshot(path: Path) -> Dict[str, object]:
    """Load a snapshot written by :func:`save_snapshot` at the current
    ``CODE_VERSION`` (another version's results came from another model)."""
    from ..sim.runner import CODE_VERSION

    with Path(path).open() as stream:
        data = json.load(stream)
    for key in ("scale", "code_version", "experiments"):
        if key not in data:
            raise ValueError(
                f"snapshot {path} lacks {key!r}; re-save it with "
                f"'repro validate --scale full --save-snapshot'")
    if data["code_version"] != CODE_VERSION:
        raise ValueError(
            f"snapshot {path} was recorded at code_version "
            f"{data['code_version']}, but CODE_VERSION is {CODE_VERSION}; "
            f"re-record it with 'repro validate --scale full "
            f"--save-snapshot {path}'")
    return data


def snapshot_results(path: Path) -> Dict[str, ExperimentResult]:
    """The experiment results stored in a snapshot, deserialised."""
    data = load_snapshot(path)
    return {experiment_id: ExperimentResult.from_dict(result)
            for experiment_id, result in data["experiments"].items()}


def _needed_experiments(selected: Sequence[Expectation]) -> List[str]:
    """Experiments the selected expectations read, in registry order."""
    from ..experiments.registry import experiment_ids

    needed = set()
    for expectation in selected:
        needed.update(expectation.experiments)
    return [e for e in experiment_ids() if e in needed]


def collect_results(
    experiment_ids: Sequence[str],
    scale: Scale,
    use_cache: bool = True,
    jobs: int = 1,
) -> Dict[str, ExperimentResult]:
    """Run (or recall) the named experiments at one scale.

    With ``jobs > 1`` the experiments' simulation demands are first
    planned and executed on the worker pool (one shared, deduplicated
    job graph across all experiments), after which the harness calls
    below are pure cache recall — the same flow as ``repro run --jobs``.
    """
    from ..experiments.registry import run_experiment

    if jobs > 1 and use_cache:
        _pre_execute(experiment_ids, scale, jobs)
    results: Dict[str, ExperimentResult] = {}
    for experiment_id in experiment_ids:
        results[experiment_id] = run_experiment(
            experiment_id, references=scale.refs_for(experiment_id),
            use_cache=use_cache)
    return results


def _pre_execute(experiment_ids: Sequence[str], scale: Scale,
                 jobs: int) -> None:
    import sys

    from ..exec import ProgressLine, execute
    from ..exec.plan import JobGraph, plan_experiments

    graph = JobGraph()
    for experiment_id in experiment_ids:
        sub = plan_experiments([experiment_id],
                               references=scale.refs_for(experiment_id))
        graph.add_all(sub.specs)
    if not graph.specs:
        return
    print(f"validate: planned {graph.demanded} runs -> {len(graph)} "
          f"unique ({graph.deduplicated} deduplicated)", file=sys.stderr)
    report = execute(graph.specs, jobs=jobs, progress=ProgressLine())
    print(report.summary(), file=sys.stderr)


def evaluate_expectations(
    expectations: Sequence[Expectation],
    results: Mapping[str, ExperimentResult],
    scale: str,
) -> ValidationReport:
    """Evaluate expectations against already-collected results."""
    report = ValidationReport(scale=scale)
    for expectation in expectations:
        missing = [e for e in expectation.experiments if e not in results]
        if missing:
            report.claims.append(ClaimResult(
                expectation.id, expectation.experiment, "skip",
                expectation.title, expectation.paper,
                f"experiment(s) not in results: {', '.join(missing)}"))
            continue
        try:
            outcome = evaluate(expectation, results)
        except CheckError as error:
            report.claims.append(ClaimResult(
                expectation.id, expectation.experiment, "error",
                expectation.title, expectation.paper, str(error)))
            continue
        report.claims.append(ClaimResult(
            expectation.id, expectation.experiment,
            "pass" if outcome.passed else "fail",
            expectation.title, expectation.paper, outcome.evidence))
    return report


def validate(
    ledger: Ledger,
    scale: str = "ci",
    only: Optional[Sequence[str]] = None,
    use_cache: bool = True,
    jobs: int = 1,
    snapshot: Optional[Path] = None,
    snapshot_out: Optional[Path] = None,
) -> ValidationReport:
    """Run the full ``repro validate`` pipeline.

    With ``snapshot`` the results come from the committed JSON snapshot
    (no simulation); otherwise the needed experiments run at ``scale``
    through the cached runner.  With ``snapshot_out`` *every* registered
    experiment is run (not just the ones the selection needs) and the
    results are saved as a snapshot, so the file can later feed both
    ``--from-snapshot`` and the docs generator.  Expectations not
    declared for ``scale`` are reported as skipped so the report always
    accounts for the whole ledger selection.
    """
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r} "
                       f"(choose from {', '.join(SCALES)})")
    in_scale = ledger.select(scale=scale, only=only)
    out_of_scale = [e for e in ledger.select(only=only)
                    if e not in in_scale]
    if snapshot is not None:
        results = snapshot_results(snapshot)
    else:
        if snapshot_out is not None:
            from ..experiments.registry import experiment_ids

            needed = list(experiment_ids())
        else:
            needed = _needed_experiments(in_scale)
        # Every simulation the run needs lands in the run ledger with
        # origin "validate" (the runner facade records; this scopes it).
        with run_ledger.ledger_origin("validate"):
            results = collect_results(needed, SCALES[scale],
                                      use_cache=use_cache, jobs=jobs)
        if snapshot_out is not None:
            save_snapshot(results, scale, snapshot_out)
    report = evaluate_expectations(in_scale, results, scale)
    for expectation in out_of_scale:
        report.claims.append(ClaimResult(
            expectation.id, expectation.experiment, "skip",
            expectation.title, expectation.paper,
            f"declared for scale(s) {'/'.join(expectation.scales)} only"))
    order = {expectation.id: i
             for i, expectation in enumerate(ledger.expectations)}
    report.claims.sort(key=lambda claim: order.get(claim.id, len(order)))
    from ..sim.runner import CODE_VERSION

    run_ledger.record_validate(
        scale, report.ok, report.counts, CODE_VERSION,
        "snapshot" if snapshot is not None else "simulated")
    return report
