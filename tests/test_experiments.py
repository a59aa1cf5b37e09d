"""Tests for the experiment report model, registry and table harnesses."""

import pytest

from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_ids,
    run_experiment,
)
from repro.experiments.report import ExperimentResult
from repro.experiments.tables import table1, table2


class TestExperimentResult:
    def test_add_and_column(self):
        result = ExperimentResult("x", "t", ["a", "b"])
        result.add_row(a=1, b=2.5)
        assert result.column("a") == [1]
        assert result.column("b") == [2.5]

    def test_rejects_unknown_column(self):
        result = ExperimentResult("x", "t", ["a"])
        with pytest.raises(KeyError):
            result.add_row(a=1, z=2)

    def test_row_by(self):
        result = ExperimentResult("x", "t", ["name", "v"])
        result.add_row(name="alpha", v=1)
        result.add_row(name="beta", v=2)
        assert result.row_by("name", "beta")["v"] == 2
        with pytest.raises(KeyError):
            result.row_by("name", "gamma")

    def test_render_contains_data(self):
        result = ExperimentResult("fig", "demo", ["name", "value"])
        result.add_row(name="mcf", value=7.25)
        result.notes.append("a note")
        text = result.render()
        assert "fig" in text
        assert "mcf" in text
        assert "7.25" in text
        assert "note: a note" in text

    def test_to_dict(self):
        result = ExperimentResult("fig", "demo", ["a"])
        result.add_row(a=1)
        data = result.to_dict()
        assert data["experiment_id"] == "fig"
        assert data["rows"] == [{"a": 1}]


class TestTables:
    def test_table1_components(self):
        result = table1()
        components = result.column("component")
        assert "Processor" in components
        assert "Asym. DRAM" in components
        row = result.row_by("component", "Asym. DRAM")
        assert "1/8" in str(row["value"])
        assert "146.25" in str(row["value"])

    def test_table1_area_overhead_near_paper(self):
        row = table1().row_by("component", "Area overhead")
        assert "%" in str(row["value"])

    def test_table2_has_all_workloads(self):
        result = table2()
        workloads = result.column("workload")
        assert len(workloads) == 18  # 10 single + 8 mixes
        assert "mcf" in workloads
        assert "M8" in workloads


class TestRegistry:
    def test_all_figures_present(self):
        ids = set(experiment_ids())
        for figure in ("fig7a", "fig7b", "fig7c", "fig7d", "fig7e",
                       "fig7f", "fig8a", "fig8b", "fig8c", "fig9a",
                       "fig9b", "fig9c", "fig9d", "table1", "table2",
                       "power"):
            assert figure in ids

    def test_descriptions_non_empty(self):
        assert all(e.description for e in EXPERIMENTS.values())

    def test_run_unknown_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_run_table_ignores_references(self):
        result = run_experiment("table1", references=123, use_cache=False)
        assert result.experiment_id == "table1"
