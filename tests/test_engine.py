"""Tests for the pluggable simulation engines (DESIGN.md §13).

Covers the oracle contract end to end at test scale: engine selection
and validation, bit-identical interp/compiled metrics across every
specialization family, cache-key separation (a compiled result must
never answer an interpreter request or vice versa), the pool worker and
the run ledger carrying ``engine`` through, and the kernel cache's
staleness/corruption hygiene.
"""

from __future__ import annotations

import os

import pytest

from repro.common.version import CODE_VERSION
from repro.engine import DEFAULT_ENGINE, ENGINES, validate_engine
from repro.engine.verify import (
    VERIFY_SCENARIOS,
    first_difference,
    summarize,
    verify_engines,
)
from repro.exec.plan import RunSpec
from repro.exec.pool import run_spec_worker
from repro.sim.runner import run_cache_key, run_workload

#: Small enough for per-test simulation, large enough to exercise
#: refresh, migrations and the promotion path.
REFS = 600


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    """Result store *and* kernel cache land in tmp, never the checkout."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    return tmp_path


def _metrics_dict(workload, design, engine, refs=REFS):
    return run_workload(workload, design, references=refs,
                        use_cache=False, engine=engine).to_dict()


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------

class TestEngineSelection:
    def test_registry(self):
        assert DEFAULT_ENGINE == "interp"
        assert set(ENGINES) == {"interp", "compiled"}

    def test_validate_engine_rejects_unknown(self):
        for engine in ENGINES:
            validate_engine(engine)  # no raise
        with pytest.raises(ValueError, match="jit"):
            validate_engine("jit")

    def test_run_workload_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            run_workload("libquantum", "standard", references=REFS,
                         use_cache=False, engine="jit")


# ----------------------------------------------------------------------
# Bit identity (the oracle contract, at test scale)
# ----------------------------------------------------------------------

class TestEquivalence:
    @pytest.mark.parametrize("design", ["standard", "fs", "sas", "charm",
                                        "das", "das_fm", "das_incl"])
    def test_single_core_bit_identical(self, design):
        interp = _metrics_dict("libquantum", design, "interp")
        compiled = _metrics_dict("libquantum", design, "compiled")
        assert first_difference(interp, compiled) is None

    def test_multiprogram_mix_bit_identical(self):
        interp = _metrics_dict("M1", "das", "interp", refs=400)
        compiled = _metrics_dict("M1", "das", "compiled", refs=400)
        assert first_difference(interp, compiled) is None

    def test_verify_harness_passes_and_summarizes(self):
        results = verify_engines(names=["single_standard", "single_das"],
                                 references=300)
        assert [r.scenario for r in results] == ["single_standard",
                                                 "single_das"]
        assert all(r.ok for r in results)
        summary = summarize(results)
        assert summary["ok"] is True
        assert {s["name"] for s in summary["scenarios"]} == {
            "single_standard", "single_das"}

    def test_verify_rejects_unknown_scenario(self):
        with pytest.raises(KeyError, match="no_such"):
            verify_engines(names=["no_such"], references=100)

    def test_verify_scenarios_cover_every_family(self):
        designs = {s.design for s in VERIFY_SCENARIOS}
        # unmanaged, filesystem-interleaved, static, chained, inclusive
        assert {"standard", "fs", "sas", "das", "das_incl"} <= designs
        assert any(s.mix for s in VERIFY_SCENARIOS)


class TestFirstDifference:
    def test_equal_trees(self):
        tree = {"a": [1, 2.5], "b": {"c": "x"}}
        assert first_difference(tree, dict(tree)) is None

    def test_nested_leaf_path(self):
        a = {"stats": {"l1": {"hits": 10}}}
        b = {"stats": {"l1": {"hits": 11}}}
        diff = first_difference(a, b)
        assert diff is not None and ".stats.l1.hits" in diff

    def test_float_comparison_is_exact(self):
        assert first_difference({"t": 0.1 + 0.2}, {"t": 0.3}) is not None

    def test_length_and_missing_keys(self):
        assert "length" in first_difference({"a": [1]}, {"a": [1, 2]})
        assert "only in" in first_difference({"a": 1}, {})


# ----------------------------------------------------------------------
# Cache-key separation
# ----------------------------------------------------------------------

class TestCacheKeys:
    def test_interp_key_is_unsuffixed(self):
        default = run_cache_key("mcf", "das", REFS, 1)
        interp = run_cache_key("mcf", "das", REFS, 1, engine="interp")
        assert interp == default
        assert "-eng=" not in interp

    def test_compiled_key_is_distinct(self):
        interp = run_cache_key("mcf", "das", REFS, 1, engine="interp")
        compiled = run_cache_key("mcf", "das", REFS, 1, engine="compiled")
        assert compiled != interp
        assert compiled.endswith("-eng=compiled")
        assert compiled.startswith(interp)

    def test_runspec_threads_engine_into_key(self):
        spec = RunSpec("mcf", "das", REFS, 1, engine="compiled")
        assert spec.cache_key().endswith("-eng=compiled")
        assert "compiled" in spec.describe()
        assert "interp" not in RunSpec("mcf", "das", REFS, 1).describe()


# ----------------------------------------------------------------------
# Engine through the pool worker and the run ledger
# ----------------------------------------------------------------------

class TestRunnerEngine:
    def test_pool_worker_runs_compiled_and_matches_interp(self):
        from repro.store import get_store

        compiled_spec = RunSpec("mcf", "das", REFS, 1, engine="compiled")
        metrics = run_spec_worker(compiled_spec)
        key = compiled_spec.cache_key()
        assert key.endswith("-eng=compiled")
        assert get_store().contains(key)
        interp = _metrics_dict("mcf", "das", "interp")
        assert first_difference(interp, metrics) is None

    def test_run_workload_records_engine_in_ledger(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_LEDGER", raising=False)
        from repro.obs.ledger import get_ledger

        run_workload("mcf", "das", references=REFS, engine="compiled")
        rows = get_ledger().runs(engine="compiled")
        assert rows and rows[0]["engine"] == "compiled"
        assert get_ledger().runs(engine="interp") == []


# ----------------------------------------------------------------------
# Kernel cache hygiene
# ----------------------------------------------------------------------

class TestKernelCache:
    def _config(self):
        from repro.sim.runner import make_config

        return make_config("das")

    def test_kernel_persists_under_store_root(self):
        from repro.engine import kernels

        config = self._config()
        kernels._MODULES.clear()
        module = kernels.load_kernel(config)
        path = kernels.kernel_path(config)
        assert path.is_file()
        assert f"kernel-v{CODE_VERSION}-" in path.name
        # Memoised: a second load is the same module object.
        assert kernels.load_kernel(config) is module

    def test_stale_version_is_unlinked_current_kept(self):
        from repro.engine import kernels

        directory = kernels.kernels_dir()
        directory.mkdir(parents=True, exist_ok=True)
        stale = directory / f"kernel-v{CODE_VERSION - 1}-{'0' * 8}.py"
        current = directory / f"kernel-v{CODE_VERSION}-{'0' * 8}.py"
        unrelated = directory / "notes.txt"
        for path in (stale, current, unrelated):
            path.write_text("# placeholder\n")
        dropped = kernels.purge_stale_kernels(directory)
        assert dropped == 1
        assert not stale.exists()
        assert current.exists()
        assert unrelated.exists()  # non-kernel files are never touched

    def test_stale_unlink_spares_concurrent_replacement(self):
        """The inode+mtime guard: if another process atomically replaced
        the stale file after we statted it, the fresh file survives."""
        from repro.engine import kernels

        directory = kernels.kernels_dir()
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"kernel-v{CODE_VERSION - 1}-{'a' * 8}.py"
        path.write_text("# old\n")
        observed = os.stat(path)
        # A concurrent writer replaces the file (new inode).
        replacement = path.with_suffix(".tmp")
        replacement.write_text("# new\n")
        os.replace(replacement, path)
        kernels._unlink_stale(path, observed)
        assert path.exists()
        assert path.read_text() == "# new\n"

    def test_corrupt_cached_kernel_is_regenerated(self):
        from repro.engine import kernels

        config = self._config()
        kernels._MODULES.clear()
        path = kernels.kernel_path(config)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("this is not python (\n")
        module = kernels.load_kernel(config)
        assert hasattr(module, "install")
        assert "not python" not in path.read_text()

    def test_no_cache_skips_disk(self, monkeypatch):
        from repro.engine import kernels

        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        config = self._config()
        kernels._MODULES.clear()
        module = kernels.load_kernel(config)
        assert hasattr(module, "install")
        assert not kernels.kernel_path(config).exists()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestEngineCli:
    def test_verify_list(self, capsys):
        from repro.cli import main

        assert main(["engine", "verify", "--list"]) == 0
        out = capsys.readouterr().out
        for scenario in VERIFY_SCENARIOS:
            assert scenario.name in out

    def test_verify_subset_json(self, capsys):
        import json

        from repro.cli import main

        assert main(["engine", "verify", "single_standard",
                     "--refs", "300", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] is True
        assert summary["scenarios"][0]["name"] == "single_standard"

    def test_verify_unknown_scenario_exits_2(self, capsys):
        from repro.cli import main

        assert main(["engine", "verify", "nope"]) == 2
        assert "unknown verify scenario" in capsys.readouterr().err

    def test_bench_engine_flag(self, capsys):
        from repro.cli import main

        assert main(["bench", "libquantum", "--design", "das",
                     "--refs", str(REFS), "--engine", "compiled",
                     "--no-cache"]) == 0
        assert "workload=libquantum" in capsys.readouterr().out
