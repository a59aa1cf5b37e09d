"""Tests for the generic sweep utility."""

import pytest

from repro.sim.sweep import sweep_asym, sweep_controller, sweep_designs

REFS = 3000


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestSweepAsym:
    def test_columns_and_rows(self):
        result = sweep_asym(
            "study",
            {"t1": {"promotion_threshold": 1},
             "t4": {"promotion_threshold": 4}},
            workloads=["libquantum"],
            references=REFS,
        )
        assert result.columns == ["workload", "t1", "t4"]
        row = result.row_by("workload", "libquantum")
        assert isinstance(row["t1"], float)

    def test_gmean_only_for_multiple_workloads(self):
        single = sweep_asym("s", {"x": {}}, ["libquantum"],
                            references=REFS)
        assert all(r["workload"] != "gmean" for r in single.rows)
        double = sweep_asym("s", {"x": {}}, ["libquantum", "omnetpp"],
                            references=REFS)
        assert double.row_by("workload", "gmean")

    def test_rejects_empty_variants(self):
        with pytest.raises(ValueError):
            sweep_asym("s", {}, ["libquantum"], references=REFS)

    def test_rejects_bad_field(self):
        with pytest.raises(TypeError):
            sweep_asym("s", {"x": {"not_a_field": 1}}, ["libquantum"],
                       references=REFS)


class TestSweepDesigns:
    def test_designs_as_columns(self):
        result = sweep_designs("ladder", ["das", "fs"], ["libquantum"],
                               references=REFS)
        row = result.row_by("workload", "libquantum")
        assert row["fs"] >= row["das"] - 2.0  # fs should top das

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sweep_designs("s", [], ["libquantum"], references=REFS)

    def test_unknown_workload_fails_at_planning(self, monkeypatch):
        import repro.sim.runner as runner

        calls = []
        monkeypatch.setattr(runner, "simulate",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(KeyError, match="unknown workload 'nosuch'"):
            sweep_designs("s", ["das"], workloads=["nosuch"],
                          references=REFS)
        assert calls == []


class TestSweepController:
    def test_per_variant_baseline(self):
        result = sweep_controller(
            "ctrl",
            {"open": {"page_policy": "open"},
             "closed": {"page_policy": "closed"}},
            workloads=["libquantum"],
            references=REFS,
        )
        row = result.row_by("workload", "libquantum")
        assert set(row) == {"workload", "open", "closed"}
