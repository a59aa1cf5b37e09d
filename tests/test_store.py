"""Tests for the content-addressed result store (repro.store)."""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.exec import RunSpec, execute
from repro.sim.metrics import RunMetrics
from repro.sim.runner import run_workload
from repro.store import ResultStore, store_root

REFS = 1500


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    """Every test gets its own empty store directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    return tmp_path


def _metrics(workload: str = "unit", references: int = 10) -> RunMetrics:
    return RunMetrics(
        workload=workload, design="das", references=references,
        instructions=100, time_ns=5.0, ipc=[1.0], llc_misses=3,
        promotions=1, dram_accesses=7, table_fetches=2,
        footprint_bytes=4096, access_locations={"fast": 1.0},
        mean_read_latency_ns=30.0, read_latency_percentiles_ns={},
        translation_cache_hit_rate=0.5, energy_nj=1.0)


class TestRoundTrip:
    def test_store_then_load(self):
        store = ResultStore()
        path = store.store("k1", _metrics())
        assert path == store.path_for("k1")
        assert json.loads(path.read_text()) == _metrics().to_dict()
        loaded = store.load("k1")
        assert loaded is not None
        assert loaded.to_dict() == _metrics().to_dict()

    def test_missing_key_is_a_miss(self):
        store = ResultStore()
        assert store.load("absent") is None
        assert not store.directory.exists()  # a miss writes nothing

    def test_load_touches_mtime_for_lru(self):
        store = ResultStore()
        store.store("k1", _metrics())
        path = store.path_for("k1")
        old = time.time() - 3600
        os.utime(path, (old, old))
        store.load("k1")
        assert os.stat(path).st_mtime > old + 1800


class TestScanAndStats:
    def test_scan_indexes_existing_entries(self):
        """entries() lists what another store object wrote."""
        store = ResultStore()
        store.store("a", _metrics())
        store.store("b", _metrics())
        listed = ResultStore(store.directory).entries()
        assert {e.key for e in listed} == {"a", "b"}
        assert all(e.size_bytes == store.path_for(e.key).stat().st_size
                   for e in listed)

    def test_scan_skips_temp_and_foreign_files(self, tmp_path):
        directory = tmp_path / "store"
        directory.mkdir(parents=True, exist_ok=True)
        (directory / ".k1.xyz.tmp").write_text("{}")
        (directory / "README").write_text("not a result")
        (directory / "good.json").write_text("{}")
        store = ResultStore(directory)
        assert [e.key for e in store.entries()] == ["good"]

    def test_scan_of_missing_directory(self, tmp_path):
        store = ResultStore(tmp_path / "never-created")
        assert store.entries() == []
        assert store.stats()["entries"] == 0
        assert not store.directory.exists()

    def test_stats_shape(self):
        store = ResultStore()
        store.store("a", _metrics())
        store.load("a")
        store.load("missing")
        assert store.stats() == {
            "directory": str(store.directory),
            "entries": 1,
            "total_bytes": store.path_for("a").stat().st_size,
        }

    def test_a_second_writer_is_listed(self):
        """The directory is the index: what another store object (a pool
        worker, another process) writes shows in every listing."""
        first = ResultStore()
        first.store("k1", _metrics())
        assert first.stats()["entries"] == 1
        ResultStore(first.directory).store("k2", _metrics())
        assert first.stats()["entries"] == 2
        assert {e.key for e in first.entries()} == {"k1", "k2"}

    def test_a_store_holds_only_its_directory(self):
        store = ResultStore()
        store.store("a", _metrics())
        store.load("a")
        store.load("missing")
        store.entries()
        store.stats()
        store.gc(max_bytes=0)
        assert vars(store) == {"directory": store_root()}

    def test_entries_sorted_lru_first(self):
        store = ResultStore()
        for index, key in enumerate(("old", "mid", "new")):
            store.store(key, _metrics())
            past = time.time() - (3 - index) * 1000
            os.utime(store.path_for(key), (past, past))
        keys = [e.key for e in store.entries()]
        assert keys == ["old", "mid", "new"]


class TestGc:
    def test_gc_by_size_evicts_lru_first(self):
        store = ResultStore()
        for index, key in enumerate(("old", "mid", "new")):
            store.store(key, _metrics())
            past = time.time() - (3 - index) * 1000
            os.utime(store.path_for(key), (past, past))
        entry_size = store.entries()[0].size_bytes
        evicted = store.gc(max_bytes=2 * entry_size + 1)
        assert [e.key for e in evicted] == ["old"]
        assert evicted[0].reason == "lru"
        assert "least recently used" in evicted[0].detail
        assert f"{2 * entry_size + 1} B cap" in evicted[0].detail
        assert [e.key for e in store.entries()] == ["mid", "new"]

    def test_gc_by_age(self):
        store = ResultStore()
        store.store("stale", _metrics())
        store.store("fresh", _metrics())
        past = time.time() - 10_000
        os.utime(store.path_for("stale"), (past, past))
        evicted = store.gc(max_age_s=5_000)
        assert [e.key for e in evicted] == ["stale"]
        assert evicted[0].reason == "age"
        # ~10000s old against a 5000s bound, reported in hours.
        assert "2.8h old" in evicted[0].detail
        assert "bound 1.4h" in evicted[0].detail
        assert [e.key for e in store.entries()] == ["fresh"]

    def test_gc_mixed_bounds_attribute_each_reason(self):
        store = ResultStore()
        for index, key in enumerate(("ancient", "older", "newer")):
            store.store(key, _metrics())
            past = time.time() - (3 - index) * 10_000
            os.utime(store.path_for(key), (past, past))
        # "ancient" (30000s) breaches the age bound; the byte cap of 0
        # then evicts the survivors LRU-first for a different reason.
        evicted = store.gc(max_bytes=0, max_age_s=25_000)
        reasons = {e.key: e.reason for e in evicted}
        assert reasons == {"ancient": "age", "older": "lru",
                           "newer": "lru"}
        assert all(isinstance(str(e), str) and e.key in str(e)
                   for e in evicted)

    def test_gc_without_bounds_is_a_noop(self):
        store = ResultStore()
        store.store("a", _metrics())
        assert store.gc() == []
        assert store.path_for("a").exists()

    def test_gc_counts_evictions(self):
        store = ResultStore()
        store.store("a", _metrics())
        store.store("b", _metrics())
        evicted = store.gc(max_bytes=0)
        assert sorted(e.key for e in evicted) == ["a", "b"]
        assert store.stats()["entries"] == 0
        assert list(store.directory.iterdir()) == []

    def test_gc_dry_run_reports_without_touching(self):
        store = ResultStore()
        store.store("stale", _metrics())
        store.store("fresh", _metrics())
        past = time.time() - 10_000
        os.utime(store.path_for("stale"), (past, past))
        would = store.gc(max_age_s=5_000, dry_run=True)
        assert [e.key for e in would] == ["stale"]
        assert would[0].reason == "age"
        assert store.stats()["entries"] == 2
        # The same bounds for real evict exactly what was predicted
        # (keys and reasons alike; the age detail may drift by the
        # seconds between the two calls).
        real = store.gc(max_age_s=5_000)
        assert [(e.key, e.reason) for e in real] == \
            [(e.key, e.reason) for e in would]
        assert [e.key for e in store.entries()] == ["fresh"]


class TestCorruptEntries:
    def test_corrupt_entry_is_a_miss_and_unlinked(self):
        store = ResultStore()
        store.directory.mkdir(parents=True, exist_ok=True)
        path = store.path_for("bad")
        path.write_text("{ truncated")
        assert store.load("bad") is None
        assert not path.exists()
        assert store.stats()["entries"] == 0

    def test_wrong_shape_json_is_dropped(self):
        store = ResultStore()
        store.directory.mkdir(parents=True, exist_ok=True)
        store.path_for("bad").write_text(json.dumps([1, 2, 3]))
        assert store.load("bad") is None
        assert not store.path_for("bad").exists()

    def test_corrupt_unlink_spares_concurrent_replacement(self):
        """A healthy entry replacing a corrupt one survives the unlink.

        Simulates the race via the internal hook: reader A stats the
        corrupt file, writer B replaces it, then A's unlink-if-unchanged
        must see a different inode and leave B's file alone.
        """
        store = ResultStore()
        store.directory.mkdir(parents=True, exist_ok=True)
        path = store.path_for("raced")
        path.write_text("{ corrupt")
        stale_stat = os.stat(path)
        store.store("raced", _metrics())  # writer B wins the race
        store._drop_corrupt(path, stale_stat)
        assert path.exists()
        assert store.load("raced") is not None

    def test_corrupt_drop_handles_vanished_file(self):
        store = ResultStore()
        store.directory.mkdir(parents=True, exist_ok=True)
        path = store.path_for("gone")
        path.write_text("{ corrupt")
        stat = os.stat(path)
        path.unlink()
        store._drop_corrupt(path, stat)  # must not raise


class TestConcurrentWriters:
    def test_parallel_stores_leave_a_valid_entry(self):
        """Racing writers: last rename wins, the file is never torn."""
        store = ResultStore()
        barrier = threading.Barrier(8)
        failures = []

        def writer(index: int) -> None:
            try:
                barrier.wait(timeout=10)
                for _ in range(20):
                    store.store("shared", _metrics(references=index))
            except Exception as error:  # pragma: no cover
                failures.append(error)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures
        loaded = store.load("shared")
        assert loaded is not None
        assert loaded.references in range(8)
        leftovers = [p for p in store.directory.iterdir()
                     if p.name.endswith(".tmp")]
        assert leftovers == []


@pytest.fixture(scope="module")
def _module_store_env():
    """The store settings a module-scoped fixture sees (before any
    function-scoped fixture runs)."""
    return os.environ.get("REPRO_CACHE_DIR"), os.environ.get("REPRO_NO_LEDGER")


class TestSuiteIsolation:
    def test_module_fixtures_see_the_session_store(self, _module_store_env,
                                                   tmp_path_factory):
        """Module-scoped simulations (test_headline.py, ...) must not
        write to or recall from ``.repro_cache/`` in the checkout."""
        cache_dir, no_ledger = _module_store_env
        assert cache_dir is not None
        assert Path(cache_dir).is_relative_to(tmp_path_factory.getbasetemp())
        assert no_ledger == "1"


class TestEnvOverride:
    def test_store_root_follows_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert store_root() == tmp_path / "elsewhere"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert store_root() == Path(".repro_cache")

    def test_get_store_reresolves_env_per_call(self, monkeypatch, tmp_path):
        """ResultStore() follows REPRO_CACHE_DIR on each construction."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "one"))
        assert ResultStore().directory == tmp_path / "one"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "two"))
        ResultStore().store("k", _metrics())
        assert (tmp_path / "two" / "k.json").exists()
        assert not (tmp_path / "one").exists()

    def test_runner_delegates_honor_override(self, monkeypatch, tmp_path):
        """run_workload and execute recall from the overridden store."""
        target = tmp_path / "runner-store"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
        spec = RunSpec("mcf", "das", REFS)
        ResultStore(target).store(spec.cache_key(), _metrics())
        recalled = run_workload(spec.workload, spec.design, spec.references)
        assert recalled.workload == "unit"  # the planted entry, not a run
        report = execute([spec], jobs=1)
        assert report.cache_hits == 1 and report.executed == 0
        assert report.get(spec).workload == "unit"

    def test_run_workload_writes_through_store(self, monkeypatch, tmp_path):
        target = tmp_path / "wl-store"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
        metrics = run_workload("mcf", "das", references=REFS)
        store = ResultStore()
        entries = store.entries()
        assert len(entries) == 1
        recalled = store.load(entries[0].key)
        assert recalled is not None
        assert recalled.time_ns == metrics.time_ns


class TestCacheCli:
    def test_stats_ls_gc(self, capsys):
        from repro.cli import main

        store = ResultStore()
        store.store("a", _metrics())
        store.store("b", _metrics())
        past = time.time() - 10_000
        os.utime(store.path_for("a"), (past, past))
        directory = str(store.directory)

        assert main(["cache", "stats", "--dir", directory]) == 0
        assert "2 entries" in capsys.readouterr().out

        assert main(["cache", "ls", "--dir", directory]) == 0
        out = capsys.readouterr().out
        assert "a" in out and "b" in out
        assert out.index("a") < out.index("b")  # LRU first

        assert main(["cache", "gc", "--dir", directory,
                     "--max-age-days", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "evicted a (age:" in out  # the per-key reason line
        assert "evicted 1" in out
        assert [e.key for e in store.entries()] == ["b"]

    def test_gc_dry_run_cli(self, capsys):
        from repro.cli import main

        store = ResultStore()
        store.store("a", _metrics())
        store.store("b", _metrics())
        past = time.time() - 10_000
        os.utime(store.path_for("a"), (past, past))
        directory = str(store.directory)

        assert main(["cache", "gc", "--dir", directory,
                     "--max-age-days", "0.05", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would evict a (age:" in out  # reason next to the key
        assert "h old" in out
        assert "nothing touched" in out
        assert sorted(e.key for e in store.entries()) == ["a", "b"]

        assert main(["cache", "gc", "--dir", directory,
                     "--max-age-days", "0.05", "--dry-run",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dry_run"] is True
        assert [e["key"] for e in report["evicted"]] == ["a"]
        assert report["evicted"][0]["reason"] == "age"
        assert "h old" in report["evicted"][0]["detail"]
        # --json dry run also touches nothing
        assert sorted(e.key for e in store.entries()) == ["a", "b"]

    def test_gc_requires_a_bound(self, capsys):
        from repro.cli import main

        store = ResultStore()
        assert main(["cache", "gc", "--dir", str(store.directory)]) == 2

    def test_ls_json(self, capsys):
        from repro.cli import main

        store = ResultStore()
        store.store("a", _metrics())
        assert main(["cache", "ls", "--dir", str(store.directory),
                     "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert listed[0]["key"] == "a"

    def test_json_outputs_have_the_documented_keys(self, capsys):
        from repro.cli import main

        store = ResultStore()
        store.store("a", _metrics())
        directory = str(store.directory)
        summary = {"directory": directory, "entries": 1,
                   "total_bytes": store.path_for("a").stat().st_size}

        assert main(["cache", "stats", "--dir", directory, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == summary

        assert main(["cache", "ls", "--dir", directory, "--json"]) == 0
        [entry] = json.loads(capsys.readouterr().out)
        assert set(entry) == {"key", "size_bytes", "mtime"}

        assert main(["cache", "gc", "--dir", directory, "--max-mb", "0",
                     "--dry-run", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"evicted", "dry_run", "stats"}
        assert set(report["evicted"][0]) == {"key", "reason", "detail"}
        assert report["stats"] == summary

    @pytest.mark.parametrize("argv, flag", [
        (["cache", "gc", "--max-mb", "-1"], "--max-mb"),
        (["cache", "gc", "--max-age-days", "-1"], "--max-age-days"),
        (["cache", "ls", "--limit", "-1"], "--limit"),
        # Counts that size a simulation need at least one reference.
        (["run", "fig7a", "--refs", "0"], "--refs"),
        (["bench", "mcf", "--refs", "0"], "--refs"),
        (["stats", "mcf", "--refs", "-5"], "--refs"),
        (["compare", "mcf:das", "mcf:standard", "--refs", "0"], "--refs"),
        (["events", "mcf", "--out", "t.json", "--refs", "0"], "--refs"),
        (["trace", "dump", "mcf", "--out", "t.trace", "--refs", "0"],
         "--refs"),
        (["stats", "trace:t", "--refs", "0"], "--refs"),
        (["compare", "mcf:das", "mcf:standard", "--limit", "-1"],
         "--limit"),
        (["run", "fig7a", "--jobs", "0"], "--jobs"),
        (["run", "fig7a", "--retries", "-1"], "--retries"),
        (["events", "mcf", "--out", "t.json", "--capacity", "0"],
         "--capacity"),
        (["events", "mcf", "--out", "t.json", "--timeline", "-1"],
         "--timeline"),
        (["validate", "--jobs", "-3"], "--jobs"),
        # A zero limit would list a non-empty store as empty.
        (["cache", "ls", "--limit", "0"], "--limit"),
        (["compare", "libquantum:das", "libquantum:standard", "--refs", "500",
          "--threshold", "-1"], "--threshold"),
    ])
    def test_negative_bounds_are_rejected(self, argv, flag, capsys,
                                          tmp_path, monkeypatch):
        from repro.cli import main

        store = ResultStore()
        store.store("a", _metrics())
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        value = argv[argv.index(flag) + 1]
        ls_limit = argv[:2] == ["cache", "ls"]
        minimum = 1 if ls_limit or flag in (
            "--refs", "--capacity", "--jobs") else 0
        shown = "--jobs/-j" if flag == "--jobs" else flag  # every spelling
        assert f"argument {shown}: must be >= {minimum}, got {value}" in err
        # Nothing was evicted, simulated or written.
        assert [e.key for e in store.entries()] == ["a"]
        assert [p.name for p in tmp_path.iterdir()] == ["store"]

    @pytest.mark.parametrize("argv, flag, message", [
        # nan compares false with every bound; inf overflows the byte
        # cap's int().
        pytest.param(["cache", "gc", "--max-mb", "nan"], "--max-mb",
                     "must be finite, got nan", id="max-mb-nan"),
        pytest.param(["cache", "gc", "--max-mb", "inf"], "--max-mb",
                     "must be finite, got inf", id="max-mb-inf"),
        # Finite, but its byte count (MB * 1e6) overflows to inf.
        pytest.param(["cache", "gc", "--max-mb", "1e303"], "--max-mb",
                     "must be <= 1e+300, got 1e303", id="max-mb-above-max"),
        pytest.param(["cache", "gc", "--max-age-days", "nan"],
                     "--max-age-days", "must be finite, got nan",
                     id="max-age-days-nan"),
        pytest.param(["compare", "libquantum:das", "libquantum:standard",
                      "--refs", "500", "--threshold", "nan"],
                     "--threshold", "must be finite, got nan",
                     id="threshold-nan"),
    ])
    def test_non_finite_and_oversized_floats_are_rejected(
            self, argv, flag, message, capsys, tmp_path, monkeypatch):
        from repro.cli import main

        store = ResultStore()
        store.store("old", _metrics())
        past = time.time() - 30 * 86400  # past any age bound
        os.utime(store.path_for("old"), (past, past))
        store.store("new", _metrics())
        monkeypatch.chdir(tmp_path)
        simulated = []

        def _no_simulation(*args, **kwargs):
            simulated.append(args)
            raise AssertionError("a refused flag must not simulate")

        monkeypatch.setattr("repro.sim.runner.fresh_run", _no_simulation)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        # Nothing was simulated, evicted or written.
        assert simulated == []
        assert [e.key for e in store.entries()] == ["old", "new"]
        assert [p.name for p in tmp_path.iterdir()] == ["store"]
