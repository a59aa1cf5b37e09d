"""Tiny-scale execution of every figure harness.

Each experiment runs by id on a reduced workload set and trace length so
the whole reproduction pipeline (study -> plan -> execute -> table ->
gmean rows) is exercised inside the normal test suite.
"""

import pytest

from repro.experiments import run_experiment

REFS = 4000
ONE = ["libquantum"]


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestSingleProgramHarnesses:
    def test_fig7a(self):
        result = run_experiment("fig7a", references=REFS, workloads=ONE)
        row = result.row_by("workload", "libquantum")
        assert set(row) == {"workload", "sas", "charm", "das", "das_fm",
                            "fs"}
        assert result.row_by("workload", "gmean")

    def test_fig7b(self):
        result = run_experiment("fig7b", references=REFS, workloads=ONE)
        assert result.rows[0]["mpki"] > 0

    def test_fig7c(self):
        result = run_experiment("fig7c", references=REFS, workloads=ONE)
        row = result.rows[0]
        static_total = (row["static_rowbuf"] + row["static_fast"]
                        + row["static_slow"])
        assert static_total == pytest.approx(100.0, abs=0.5)

    def test_fig8a(self):
        result = run_experiment("fig8a", references=REFS, workloads=ONE)
        assert set(result.columns) == {"workload", "t8", "t4", "t2", "t1"}

    def test_fig8c(self):
        result = run_experiment("fig8c", references=REFS, workloads=ONE)
        assert all(v >= 0 for k, v in result.rows[0].items()
                   if k != "workload")

    def test_fig9a(self):
        result = run_experiment("fig9a", references=REFS, workloads=ONE)
        assert "128KB" in result.columns

    def test_fig9b(self):
        result = run_experiment("fig9b", references=REFS, workloads=ONE)
        assert "32-row" in result.columns

    def test_fig9c(self):
        result = run_experiment("fig9c", references=REFS, workloads=ONE)
        assert "1/8" in result.columns

    def test_power(self):
        result = run_experiment("power", references=REFS, workloads=ONE)
        row = result.rows[0]
        assert row["fs_nj"] < row["standard_nj"]


class TestMixHarness:
    def test_fig7d(self):
        result = run_experiment("fig7d", references=1500, workloads=["M5"])
        assert result.row_by("workload", "M5")
        assert result.row_by("workload", "gmean")


class TestAblations:
    def test_migration_latency(self):
        result = run_experiment("ablation-migration", references=REFS,
                                workloads=ONE)
        assert "0tRC" in result.columns
        assert "3tRC" in result.columns

    def test_replacement(self):
        result = run_experiment("ablation-replacement", references=REFS,
                                workloads=ONE)
        assert set(result.columns) >= {"lru", "random", "sequential",
                                       "counter"}

    def test_inclusive(self):
        result = run_experiment("ablation-inclusive", references=REFS,
                                workloads=ONE)
        row = result.row_by("workload", "libquantum")
        assert row["exclusive"] is not None
        assert row["inclusive"] is not None

    def test_controller(self):
        result = run_experiment("ablation-controller", references=REFS,
                                workloads=ONE)
        assert "das@open-frfcfs" in result.columns
        assert "das@closed-frfcfs" in result.columns


class TestFairness:
    def test_fairness_study(self):
        result = run_experiment("fairness", references=1500, workloads=["M5"])
        rows = {r["design"]: r for r in result.rows}
        assert set(rows) == {"standard", "das", "fs"}
        for row in rows.values():
            assert 0.0 < row["fairness"] <= 1.0
            assert row["worst_slowdown"] >= 1.0 - 0.05
        assert rows["standard"]["improvement"] == 0.0
