"""Tests for parameter sweeps built as improvement grids: asym, design
and controller variants as columns over the standard baseline."""

import pytest

from repro.common.config import AsymmetricConfig, ControllerConfig
from repro.experiments.registry import run_experiments
from repro.experiments.study import improvement_grid, over_standard

REFS = 3000


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


def _sweep(workloads, **cells):
    """One grid over ``workloads``: each keyword is a column label and
    its cell's :func:`over_standard` arguments."""
    study = improvement_grid(
        "sweep", "a sweep", workloads,
        {label: over_standard(REFS, **cell) for label, cell in cells.items()},
        gmean=len(workloads) > 1)
    return run_experiments([study])[0]


class TestSweepAsym:
    def test_columns_and_rows(self):
        result = _sweep(
            ["libquantum"],
            t1={"asym": AsymmetricConfig(promotion_threshold=1)},
            t4={"asym": AsymmetricConfig(promotion_threshold=4)})
        assert result.columns == ["workload", "t1", "t4"]
        row = result.row_by("workload", "libquantum")
        assert isinstance(row["t1"], float)

    def test_gmean_only_for_multiple_workloads(self):
        single = _sweep(["libquantum"], x={})
        assert all(r["workload"] != "gmean" for r in single.rows)
        double = _sweep(["libquantum", "omnetpp"], x={})
        assert double.row_by("workload", "gmean")


class TestSweepDesigns:
    def test_designs_as_columns(self):
        result = _sweep(["libquantum"], das={"design": "das"},
                        fs={"design": "fs"})
        row = result.row_by("workload", "libquantum")
        assert row["fs"] >= row["das"] - 2.0  # fs should top das

    def test_unknown_workload_fails_at_planning(self, monkeypatch):
        import repro.sim.runner as runner

        calls = []
        monkeypatch.setattr(runner, "simulate",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(KeyError, match="unknown workload 'nosuch'"):
            _sweep(["nosuch"], das={"design": "das"})
        assert calls == []


class TestSweepController:
    def test_per_variant_baseline(self):
        result = _sweep(
            ["libquantum"],
            open={"controller": ControllerConfig(page_policy="open")},
            closed={"controller": ControllerConfig(page_policy="closed")})
        row = result.row_by("workload", "libquantum")
        assert set(row) == {"workload", "open", "closed"}
