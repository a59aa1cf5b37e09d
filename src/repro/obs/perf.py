"""Perf-regression harness: ``repro perf record|check``.

Wraps the benchmark drivers (``benchmarks/bench_*.py`` measure the same
code paths under pytest-benchmark) in a dependency-free baseline
workflow: ``record`` runs each named scenario once, measuring wall time
and a set of **deterministic counters**, and writes a
``BENCH_<name>.json`` baseline; ``check`` re-runs and verifies both.

The two halves of a baseline fail differently on purpose:

* **Counters** (instructions, DRAM accesses, promotions, executed jobs,
  timeline windows) are pure functions of the seed, so any drift is a
  *correctness/model* change — checked exactly, on any machine.
* **Wall time** is hardware-dependent, so it is checked against a
  relative tolerance (default ±20%) and intended for same-machine use;
  CI runs it as a soft-fail job that annotates drift instead of
  blocking (see ``.github/workflows/ci.yml``).

Scenario scale is controlled by ``REPRO_PERF_REFS`` /
``REPRO_PERF_MIX_REFS`` (read at run time so tests can shrink them);
baselines record the scale they ran at and refuse to compare across
scales or ``CODE_VERSION`` bumps.

Every measurement also lands one row in the run ledger's ``perf_runs``
table (:mod:`repro.obs.ledger`) — the longitudinal record the
point-in-time ``BENCH_*.json`` files lack — and ``repro perf history``
(:func:`history`) renders the trajectory with regression flags against
the committed baseline.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..sim.runner import CODE_VERSION, run_workload
from . import ledger as run_ledger

#: Default directory holding committed baselines.
DEFAULT_BASELINE_DIR = Path("benchmarks") / "baselines"

#: Default relative wall-time tolerance recorded into baselines.
DEFAULT_WALL_TOLERANCE = 0.20


def _perf_refs() -> int:
    return int(os.environ.get("REPRO_PERF_REFS", "6000"))


def _perf_mix_refs() -> int:
    return int(os.environ.get("REPRO_PERF_MIX_REFS", "2500"))


@dataclass(frozen=True)
class PerfScenario:
    """One named perf scenario: a driver returning deterministic counters."""

    name: str
    description: str
    run: Callable[[], Dict[str, float]]


def _workload_counters(metrics) -> Dict[str, float]:
    return {
        "references": metrics.references,
        "instructions": metrics.instructions,
        "llc_misses": metrics.llc_misses,
        "dram_accesses": metrics.dram_accesses,
        "promotions": metrics.promotions,
        "timeline_windows": len(metrics.timeline.get("windows", [])),
    }


def _single_scenario(design: str) -> Callable[[], Dict[str, float]]:
    def run() -> Dict[str, float]:
        """Execute the scenario once and return its metrics."""
        metrics = run_workload("libquantum", design,
                               references=_perf_refs(), use_cache=False)
        return _workload_counters(metrics)
    return run


def _mix_scenario(mix: str) -> Callable[[], Dict[str, float]]:
    def run() -> Dict[str, float]:
        """Execute the scenario once and return its metrics."""
        metrics = run_workload(mix, "das", references=_perf_mix_refs(),
                               use_cache=False)
        return _workload_counters(metrics)
    return run


def _exec_scenario() -> Dict[str, float]:
    """Plan + execute fig7a's deduplicated job graph (the --jobs path)."""
    from ..exec import execute, plan_experiments

    graph = plan_experiments(["fig7a"], references=_perf_refs() // 2,
                             workloads=["libquantum", "mcf"])
    report = execute(graph.specs, jobs=1, use_cache=False)
    return {
        "unique_jobs": len(graph),
        "deduplicated": graph.deduplicated,
        "executed": report.executed,
    }


SCENARIOS: Dict[str, PerfScenario] = {
    scenario.name: scenario for scenario in (
        PerfScenario("single_das",
                     "single-core libquantum on the DAS design",
                     _single_scenario("das")),
        PerfScenario("single_standard",
                     "single-core libquantum on the standard baseline",
                     _single_scenario("standard")),
        PerfScenario("mix_m1",
                     "four-core mix M1 on the DAS design",
                     _mix_scenario("M1")),
        PerfScenario("exec_fig7a",
                     "plan + execute fig7a's job graph (serial executor)",
                     _exec_scenario),
    )
}


@dataclass
class PerfFinding:
    """One baseline violation discovered by :func:`check`."""

    scenario: str
    kind: str  # "missing" | "stale" | "counter" | "wall"
    message: str

    def __str__(self) -> str:
        return f"{self.scenario}: [{self.kind}] {self.message}"


def baseline_path(directory: Path, name: str) -> Path:
    """On-disk path of one scenario's baseline JSON."""
    return Path(directory) / f"BENCH_{name}.json"


def _measure(scenario: PerfScenario,
             repeat: int) -> "tuple[Dict[str, float], float, Optional[str]]":
    """Run a scenario ``repeat`` times; return (counters, wall, error).

    The wall time is the minimum over the repeats: on a noisy shared
    host a single run can be tens of percent off, and the minimum is
    the stable estimator of achievable throughput.  The counters are
    pure functions of the seed, so the repeats double as a free
    determinism check — any divergence is returned as ``error`` rather
    than silently picking one run.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    counters: Optional[Dict[str, float]] = None
    best_wall = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        current = scenario.run()
        wall = time.perf_counter() - started
        if wall < best_wall:
            best_wall = wall
        if counters is None:
            counters = current
        elif counters != current:
            return counters, best_wall, (
                f"counters diverged across repeats: first run {counters} "
                f"vs later run {current}")
    assert counters is not None
    return counters, best_wall, None


def _scale_stamp() -> Dict[str, int]:
    return {"refs": _perf_refs(), "mix_refs": _perf_mix_refs()}


def record(names: Optional[Sequence[str]] = None,
           directory: Path = DEFAULT_BASELINE_DIR,
           wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
           repeat: int = 1) -> List[Path]:
    """Run scenarios and write their ``BENCH_<name>.json`` baselines.

    ``repeat`` runs each scenario N times and records the best wall
    time (counters must be identical across repeats).
    """
    chosen = _resolve(names)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name in chosen:
        scenario = SCENARIOS[name]
        with run_ledger.ledger_origin("perf"):
            counters, wall_s, error = _measure(scenario, repeat)
        if error is not None:
            raise RuntimeError(f"{name}: {error}")
        run_ledger.record_perf(name, "record", wall_s, counters,
                               CODE_VERSION, _scale_stamp())
        baseline = {
            "name": name,
            "description": scenario.description,
            "code_version": CODE_VERSION,
            "scale": _scale_stamp(),
            "wall_s": round(wall_s, 4),
            "wall_repeat": repeat,
            "wall_tolerance": wall_tolerance,
            "counters": counters,
        }
        path = baseline_path(directory, name)
        with path.open("w") as stream:
            json.dump(baseline, stream, indent=2, sort_keys=True)
            stream.write("\n")
        written.append(path)
    return written


def check(names: Optional[Sequence[str]] = None,
          directory: Path = DEFAULT_BASELINE_DIR,
          wall_tolerance: Optional[float] = None,
          check_wall: bool = True,
          repeat: int = 1) -> List[PerfFinding]:
    """Re-run scenarios against their baselines; return the violations.

    ``wall_tolerance`` overrides the per-baseline tolerance;
    ``check_wall=False`` verifies only the deterministic counters;
    ``repeat`` compares the best wall of N runs against the baseline
    (and requires the counters to repeat exactly).
    """
    chosen = _resolve(names)
    directory = Path(directory)
    findings: List[PerfFinding] = []
    for name in chosen:
        path = baseline_path(directory, name)
        if not path.exists():
            findings.append(PerfFinding(
                name, "missing",
                f"no baseline at {path}; run 'repro perf record {name}'"))
            continue
        with path.open() as stream:
            baseline = json.load(stream)
        if baseline.get("code_version") != CODE_VERSION:
            findings.append(PerfFinding(
                name, "stale",
                f"baseline recorded at CODE_VERSION "
                f"{baseline.get('code_version')} but the runner is at "
                f"{CODE_VERSION}; re-record"))
            continue
        if baseline.get("scale") != _scale_stamp():
            findings.append(PerfFinding(
                name, "stale",
                f"baseline scale {baseline.get('scale')} differs from the "
                f"current REPRO_PERF_REFS settings {_scale_stamp()}; "
                f"re-record"))
            continue
        scenario = SCENARIOS[name]
        with run_ledger.ledger_origin("perf"):
            counters, wall_s, error = _measure(scenario, repeat)
        run_ledger.record_perf(name, "check", wall_s, counters,
                               CODE_VERSION, _scale_stamp())
        if error is not None:
            findings.append(PerfFinding(name, "counter", error))
        expected = baseline.get("counters", {})
        for key in sorted(set(expected) | set(counters)):
            want = expected.get(key)
            got = counters.get(key)
            if want != got:
                findings.append(PerfFinding(
                    name, "counter",
                    f"{key}: baseline {want} vs current {got}"))
        if check_wall:
            tolerance = (wall_tolerance if wall_tolerance is not None
                         else baseline.get("wall_tolerance",
                                           DEFAULT_WALL_TOLERANCE))
            base_wall = baseline.get("wall_s", 0.0)
            if base_wall > 0:
                drift = (wall_s - base_wall) / base_wall
                if abs(drift) > tolerance:
                    findings.append(PerfFinding(
                        name, "wall",
                        f"wall {wall_s:.3f}s vs baseline "
                        f"{base_wall:.3f}s ({drift * 100.0:+.1f}%, "
                        f"tolerance ±{tolerance * 100.0:.0f}%)"))
        print(f"{name}: wall {wall_s:.3f}s, "
              f"{len(counters)} counters checked "
              f"({'ok' if not any(f.scenario == name for f in findings) else 'DRIFT'})")
    return findings


def _resolve(names: Optional[Sequence[str]]) -> List[str]:
    if not names:
        return list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown perf scenario(s): {', '.join(unknown)} "
                       f"(known: {', '.join(SCENARIOS)})")
    return list(names)


def history(name: str,
            directory: Path = DEFAULT_BASELINE_DIR,
            limit: Optional[int] = None) -> Dict[str, object]:
    """One scenario's recorded trajectory + baseline comparison.

    Returns ``{"scenario", "rows", "baseline", "findings"}``: ``rows``
    are the ledger's ``perf_runs`` entries oldest-first (the last
    ``limit`` of them), ``baseline`` is the committed ``BENCH_`` JSON
    (or ``None``), and ``findings`` flag the **latest comparable** row
    against the baseline — stale code version/scale, counter drift, or
    wall time outside the baseline's tolerance.  Rendering (sparklines,
    tables) is the CLI's job.
    """
    _resolve([name])
    rows = run_ledger.get_ledger().perf_history(name, limit=limit)
    baseline: Optional[Dict[str, object]] = None
    path = baseline_path(Path(directory), name)
    if path.exists():
        with path.open() as stream:
            baseline = json.load(stream)
    findings: List[PerfFinding] = []
    if rows and baseline is not None:
        latest = rows[-1]
        if latest["code_version"] != baseline.get("code_version"):
            findings.append(PerfFinding(
                name, "stale",
                f"latest run recorded at CODE_VERSION "
                f"{latest['code_version']} but the baseline is at "
                f"{baseline.get('code_version')}"))
        elif latest["scale"] != baseline.get("scale"):
            findings.append(PerfFinding(
                name, "stale",
                f"latest run scale {latest['scale']} differs from the "
                f"baseline scale {baseline.get('scale')}"))
        else:
            expected = baseline.get("counters", {})
            got_counters = latest["counters"]
            for key in sorted(set(expected) | set(got_counters)):
                want = expected.get(key)
                got = got_counters.get(key)
                if want != got:
                    findings.append(PerfFinding(
                        name, "counter",
                        f"{key}: baseline {want} vs latest {got}"))
            tolerance = baseline.get("wall_tolerance",
                                     DEFAULT_WALL_TOLERANCE)
            base_wall = baseline.get("wall_s", 0.0)
            if base_wall > 0:
                drift = (latest["wall_s"] - base_wall) / base_wall
                if abs(drift) > tolerance:
                    findings.append(PerfFinding(
                        name, "wall",
                        f"latest wall {latest['wall_s']:.3f}s vs baseline "
                        f"{base_wall:.3f}s ({drift * 100.0:+.1f}%, "
                        f"tolerance ±{tolerance * 100.0:.0f}%)"))
    return {"scenario": name, "rows": rows, "baseline": baseline,
            "findings": findings}
