"""Tests for the stress and footprint scenario experiments."""

from repro.experiments.registry import EXPERIMENTS, run_experiment, study
from repro.trace.extras import EXTRA_PROFILES, FOOTPRINT_LADDER, STRESS_NAMES

REFS = 3000


def test_new_workloads_registered():
    for name in STRESS_NAMES + FOOTPRINT_LADDER:
        assert name in EXTRA_PROFILES


def test_registry_entries():
    assert "stress" in EXPERIMENTS
    assert "footprint" in EXPERIMENTS


def test_stress_plan_enables_refresh():
    specs = list(study("stress", references=REFS).runs.values())
    assert len(specs) == 2 * len(STRESS_NAMES)
    assert all(spec.controller is not None
               and spec.controller.refresh_enabled for spec in specs)


def test_footprint_plan_covers_ladder():
    specs = list(study("footprint", references=REFS).runs.values())
    assert sorted({s.workload for s in specs}) == sorted(FOOTPRINT_LADDER)
    assert {s.design for s in specs} == {"standard", "das"}


def test_stress_study_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    result = run_experiment("stress", references=REFS,
                            workloads=["writeburst"])
    row = result.row_by("workload", "writeburst")
    assert row["refreshes"] > 0
    assert result.row_by("workload", "gmean") is not None


def test_footprint_sweep_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    result = run_experiment("footprint", references=REFS,
                            workloads=["fp8m", "fp128m"])
    improve = result.row_by("metric", "improve")
    fast = result.row_by("metric", "fast")
    # The small footprint fits the fast level; the huge one cannot.
    assert fast["fp8m"] > fast["fp128m"]
    assert "fp8m" in improve and "fp128m" in improve
