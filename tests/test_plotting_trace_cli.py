"""Tests for ASCII plotting, trace-file replay, and the trace CLI."""

import pytest

from repro.cli import main
from repro.experiments.plotting import bar_chart
from repro.experiments.report import ExperimentResult
from repro.sim.runner import run_workload
from repro.trace.library import import_trace, list_traces


def demo_result():
    result = ExperimentResult("figX", "demo", ["workload", "a", "b"])
    result.add_row(workload="mcf", a=10.0, b=5.0)
    result.add_row(workload="lbm", a=-2.0, b=20.0)
    return result


class TestBarChart:
    def test_contains_labels_and_values(self):
        text = bar_chart(demo_result())
        assert "mcf" in text and "lbm" in text
        assert "10.00" in text and "20.00" in text

    def test_bars_scale_to_peak(self):
        text = bar_chart(demo_result(), width=20)
        lines = [l for l in text.splitlines() if "20.00" in l]
        assert lines[0].count("#") == 20

    def test_negative_values_marked(self):
        text = bar_chart(demo_result())
        assert "|-" in text

    def test_column_subset(self):
        text = bar_chart(demo_result(), columns=["a"])
        assert "5.00" not in text

    def test_rejects_non_numeric(self):
        result = ExperimentResult("x", "t", ["w", "v"])
        result.add_row(w="a", v="not-a-number")
        with pytest.raises(ValueError):
            bar_chart(result)


@pytest.fixture
def library(tmp_path, monkeypatch):
    """An empty trace library and a store under ``tmp_path``."""
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestTraceFileRun:
    def test_roundtrip(self, tmp_path, library):
        path = tmp_path / "t.trace"
        path.write_text("\n".join(
            f"3 {i * 4096:#x} R" for i in range(500)) + "\n")
        import_trace(path)
        metrics = run_workload("trace:t", "standard")
        assert metrics.references > 0
        assert metrics.design == "standard"

    def test_rejects_empty(self, tmp_path, library):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(ValueError, match="no records"):
            import_trace(path)
        assert list_traces() == []


class TestTraceCLI:
    def test_dump_and_run(self, tmp_path, capsys, library):
        out = tmp_path / "lq.trace"
        assert main(["trace", "dump", "libquantum", "--out", str(out),
                     "--refs", "2000"]) == 0
        assert out.exists()
        assert main(["trace", "import", str(out)]) == 0
        assert main(["bench", "trace:lq", "--design", "standard"]) == 0
        output = capsys.readouterr().out
        assert "mpki" in output

    @pytest.mark.parametrize("design", ["sas", "charm"])
    def test_run_profiles_static_designs(self, design, tmp_path, capsys,
                                         library):
        out = tmp_path / "mcf.trace"
        assert main(["trace", "dump", "mcf", "--out", str(out),
                     "--refs", "3000"]) == 0
        assert main(["trace", "import", str(out), "--name", "t"]) == 0
        assert main(["bench", "trace:t", "--design", design]) == 0
        assert f"design={design}" in capsys.readouterr().out

    def test_dump_unknown_workload(self, tmp_path, capsys):
        assert main(["trace", "dump", "nonsense", "--out",
                     str(tmp_path / "x")]) == 2

    def test_run_with_chart(self, capsys):
        assert main(["run", "table1", "--chart"]) == 0
        # table1 is non-numeric: chart silently skipped, table printed.
        assert "System configuration" in capsys.readouterr().out


class TestSaveOption:
    def test_run_with_save(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "results"
        assert main(["run", "table2", "--save", str(out)]) == 0
        saved = out / "table2.json"
        assert saved.exists()
        import json

        data = json.loads(saved.read_text())
        assert data["experiment_id"] == "table2"
        assert len(data["rows"]) == 18
