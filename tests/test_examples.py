"""Smoke tests: every example script must run end to end.

Each example is executed in-process (with tiny argument overrides and an
isolated result cache) so a broken public API surfaces in CI, not in a
user's terminal.
"""

import runpy
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(monkeypatch, tmp_path, name, argv=()):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")


class TestExamplesRun:
    def test_quickstart(self, monkeypatch, tmp_path, capsys):
        run_example(monkeypatch, tmp_path, "quickstart.py",
                    ["libquantum", "5000"])
        out = capsys.readouterr().out
        assert "performance improvement" in out

    def test_design_space_tour(self, monkeypatch, tmp_path, capsys):
        run_example(monkeypatch, tmp_path, "design_space_tour.py",
                    ["libquantum", "5000"])
        out = capsys.readouterr().out
        assert "fs" in out and "das" in out

    def test_multiprogram_interference(self, monkeypatch, tmp_path,
                                       capsys):
        run_example(monkeypatch, tmp_path,
                    "multiprogram_interference.py", ["M5", "3000"])
        out = capsys.readouterr().out
        assert "Weighted speedup improvement" in out

    def test_migration_anatomy(self, monkeypatch, tmp_path, capsys):
        run_example(monkeypatch, tmp_path, "migration_anatomy.py")
        out = capsys.readouterr().out
        assert "fast activate" in out

    def test_custom_workload(self, monkeypatch, tmp_path, capsys):
        run_example(monkeypatch, tmp_path, "custom_workload.py")
        out = capsys.readouterr().out
        assert "threshold" in out

    def test_all_examples_covered(self):
        scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        tested = {
            "quickstart.py", "design_space_tour.py",
            "multiprogram_interference.py", "migration_anatomy.py",
            "custom_workload.py",
        }
        assert scripts == tested
