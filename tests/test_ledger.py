"""Tests for the durable run ledger (:mod:`repro.obs.ledger`).

Covers the recording choke points (runner facade, validate), the
query/prune API, the ``repro ledger`` CLI surface, in-place schema
migration of older databases, and the two reliability properties the
design leans on:
concurrent writers both land rows (WAL + busy timeout) and a
corrupt/missing database is rebuilt without failing the simulation it
was recording.
"""

from __future__ import annotations

import json
import multiprocessing
import sqlite3
import time
from pathlib import Path

import pytest

from repro.obs import ledger as ledger_mod
from repro.obs.ledger import (
    RunLedger,
    get_ledger,
    ledger_enabled,
    ledger_origin,
    ledger_path,
    record_run,
)
from repro.sim.runner import run_workload

REFS = 1200


@pytest.fixture(autouse=True)
def _ledger_on(monkeypatch, tmp_path):
    """Enable recording against a throwaway store for every test here."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.delenv("REPRO_NO_LEDGER", raising=False)
    monkeypatch.delenv("REPRO_LEDGER_ORIGIN", raising=False)
    return tmp_path


# ----------------------------------------------------------------------
# Recording through the runner facade
# ----------------------------------------------------------------------

class TestRunnerChokePoint:
    def test_fresh_and_cached_runs_both_land_rows(self):
        metrics = run_workload("libquantum", "das", references=REFS)
        run_workload("libquantum", "das", references=REFS)  # cache hit
        rows = get_ledger().runs()
        assert len(rows) == 2
        newest, oldest = rows  # newest first
        assert oldest["cache_hit"] == 0 and newest["cache_hit"] == 1
        for row in rows:
            assert row["workload"] == "libquantum"
            assert row["design"] == "das"
            assert row["origin"] == "run"
            # refs records the *measured* references (post-warmup).
            assert row["refs"] == metrics.references
            assert row["spec_key"].startswith("v")
            assert row["ipc"] > 0
            assert 0.0 <= row["row_buffer_hit_rate"] <= 1.0
            assert row["wall_s"] >= 0.0
        # The fresh run took real time; the recall is much cheaper.
        assert oldest["wall_s"] > newest["wall_s"]

    def test_every_unique_run_lands_once(self, capsys):
        """A run on the pool used to land twice: a fresh row from the
        worker, then a cache-hit row when the harness recalled it."""
        from repro.cli import main

        argv = ["run", "fig7b", "--refs", str(REFS), "--jobs", "2"]
        assert main(argv) == 0  # cold: ten runs on the pool
        assert main(argv) == 0  # warm: ten store hits
        rows = get_ledger().runs()
        assert sorted(row["cache_hit"] for row in rows) == [0] * 10 + [1] * 10
        assert {row["origin"] for row in rows} == {"run"}

    def test_disabled_records_nothing_and_creates_no_db(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_LEDGER", "1")
        assert not ledger_enabled()
        run_workload("libquantum", "das", references=REFS)
        assert not ledger_path().exists()

    def test_no_cache_runs_still_record(self):
        # bench --no-cache runs skip the store; they must still show up
        # in history.
        run_workload("libquantum", "das", references=REFS,
                     use_cache=False)
        rows = get_ledger().runs()
        assert len(rows) == 1
        assert rows[0]["cache_hit"] == 0

    def test_origin_scope_is_inherited_by_the_recorder(self):
        with ledger_origin("validate"):
            run_workload("libquantum", "das", references=REFS)
        run_workload("mcf", "das", references=REFS)
        origins = {row["workload"]: row["origin"]
                   for row in get_ledger().runs()}
        assert origins == {"libquantum": "validate", "mcf": "run"}

    def test_origin_scope_restores_previous_value(self, monkeypatch):
        monkeypatch.setenv(ledger_mod.ORIGIN_ENV, "validate")
        with ledger_origin("run"):
            assert ledger_mod.current_origin() == "run"
        assert ledger_mod.current_origin() == "validate"
        monkeypatch.delenv(ledger_mod.ORIGIN_ENV)
        with ledger_origin("validate"):
            pass
        assert ledger_mod.current_origin() == "run"


# ----------------------------------------------------------------------
# Query API
# ----------------------------------------------------------------------

def _seed_rows(ledger: RunLedger, n: int = 4) -> float:
    """Insert ``n`` rows stamped 1s apart; returns the oldest stamp."""
    base = time.time() - 1000.0
    for i in range(n):
        ledger.record_run(
            ts=base + i, spec_key=f"v10-k{i}",
            workload="mcf" if i % 2 else "libquantum",
            design="das" if i % 2 else "standard",
            refs=1000 + i, num_cores=1, seed=1, code_version=10,
            origin="validate" if i == 3 else "run",
            cache_hit=i % 2, wall_s=0.1 * (i + 1),
            ipc=1.0 + i, row_buffer_hit_rate=0.5, fast_hit_rate=0.25,
            promotions=i, mpki=2.0, mean_read_latency_ns=40.0)
    return base


class TestQueries:
    def test_filters_compose(self):
        ledger = get_ledger()
        base = _seed_rows(ledger)
        assert len(ledger.runs()) == 4
        assert len(ledger.runs(workload="mcf")) == 2
        assert len(ledger.runs(design="standard")) == 2
        assert len(ledger.runs(origin="validate")) == 1
        assert len(ledger.runs(workload="mcf", design="das",
                               origin="validate")) == 1
        assert len(ledger.runs(limit=2)) == 2
        assert len(ledger.runs(since_ts=base + 0.5)) == 3

    def test_newest_first_and_run_by_id(self):
        ledger = get_ledger()
        _seed_rows(ledger)
        rows = ledger.runs()
        assert [r["refs"] for r in rows] == [1003, 1002, 1001, 1000]
        fetched = ledger.run_by_id(rows[0]["id"])
        assert fetched == rows[0]
        assert ledger.run_by_id(10_000) is None

    def test_stats_counts_every_table(self):
        ledger = get_ledger()
        _seed_rows(ledger, n=2)
        ledger.record_validate("ci", True,
                               {"pass": 3, "fail": 0, "skip": 1,
                                "error": 0}, 10, "simulated")
        stats = ledger.stats()
        assert stats["runs"] == 2
        assert stats["validate_runs"] == 1
        assert stats["first_ts"] < stats["last_ts"]

    def test_latest_validate(self):
        ledger = get_ledger()
        assert ledger.latest_validate() is None
        now = time.time()
        ledger.record_validate("ci", False, {"pass": 1, "fail": 2,
                                             "skip": 0, "error": 0},
                               10, "simulated", ts=now - 10)
        ledger.record_validate("full", True, {"pass": 9, "fail": 0,
                                              "skip": 0, "error": 0},
                               10, "snapshot", ts=now)
        latest = ledger.latest_validate()
        assert latest["scale"] == "full"
        assert latest["ok"] == 1
        assert latest["source"] == "snapshot"


class TestPrune:
    def test_prune_by_age_and_keep_last(self):
        ledger = get_ledger()
        base = _seed_rows(ledger)  # stamps base+0 .. base+3
        result = ledger.prune(before_ts=base + 0.5)  # ages out the oldest
        assert result == {"aged": 1, "overflow": 0, "pruned": 1}
        assert len(ledger.runs()) == 3
        result = ledger.prune(keep_last=1)
        assert result["overflow"] == 2
        remaining = ledger.runs()
        assert len(remaining) == 1
        assert remaining[0]["refs"] == 1003  # the newest survived

    def test_dry_run_deletes_nothing(self):
        ledger = get_ledger()
        _seed_rows(ledger)
        result = ledger.prune(keep_last=1, dry_run=True)
        assert result["overflow"] == 3
        assert len(ledger.runs()) == 4

    def test_perf_and_validate_history_survive_pruning(self):
        ledger = get_ledger()
        _seed_rows(ledger)
        ledger.record_validate("ci", True, {"pass": 1, "fail": 0,
                                            "skip": 0, "error": 0},
                               10, "simulated")
        ledger.prune(keep_last=0)
        stats = ledger.stats()
        assert stats["runs"] == 0
        assert stats["validate_runs"] == 1
        assert ledger.latest_validate()["scale"] == "ci"


# ----------------------------------------------------------------------
# Concurrency and damage tolerance (satellite: WAL + rebuild)
# ----------------------------------------------------------------------

def _hammer_rows(db_path: str, origin: str, count: int,
                 barrier) -> None:
    """Child-process body: insert ``count`` rows as fast as possible."""
    ledger = RunLedger(Path(db_path))
    barrier.wait()  # maximise overlap between the writers
    for i in range(count):
        row_id = ledger.record_run(
            ts=time.time(), spec_key=f"{origin}-{i}", workload="mcf",
            design="das", refs=100, num_cores=1, seed=1, code_version=10,
            origin=origin, cache_hit=0,
            wall_s=0.01, ipc=1.0, row_buffer_hit_rate=0.5,
            fast_hit_rate=0.2, promotions=0, mpki=1.0,
            mean_read_latency_ns=40.0)
        assert row_id is not None, "concurrent insert was dropped"


def _simulate(workload: str, barrier) -> None:
    """Child-process body: one real simulation through the runner."""
    barrier.wait()
    run_workload(workload, "das", references=REFS)


class TestConcurrency:
    def test_two_processes_interleaving_inserts_all_land(self, tmp_path):
        db_path = str(tmp_path / "store" / "ledger.db")
        barrier = multiprocessing.Barrier(2)
        workers = [
            multiprocessing.Process(target=_hammer_rows,
                                    args=(db_path, origin, 50, barrier))
            for origin in ("run", "validate")
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        rows = RunLedger(Path(db_path)).runs()
        assert len(rows) == 100
        by_origin = {o: sum(1 for r in rows if r["origin"] == o)
                     for o in ("run", "validate")}
        assert by_origin == {"run": 50, "validate": 50}

    def test_two_runs_completing_simultaneously(self):
        barrier = multiprocessing.Barrier(2)
        workers = [multiprocessing.Process(target=_simulate,
                                           args=(workload, barrier))
                   for workload in ("mcf", "libquantum")]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        rows = get_ledger().runs(origin="run")
        assert len(rows) == 2
        assert {r["workload"] for r in rows} == {"mcf", "libquantum"}
        assert all(r["cache_hit"] == 0 for r in rows)


# ----------------------------------------------------------------------
# Schema migration of databases written by older versions
# ----------------------------------------------------------------------

#: The ``runs`` table as schema v2 wrote it; v1 lacked ``engine``, v3
#: dropped ``trace_id`` and v4 dropped ``engine``.
_V2_RUNS_DDL = """
CREATE TABLE runs (
    id INTEGER PRIMARY KEY,
    ts REAL NOT NULL,
    spec_key TEXT NOT NULL,
    workload TEXT NOT NULL,
    design TEXT NOT NULL,
    refs INTEGER NOT NULL,
    num_cores INTEGER NOT NULL,
    seed INTEGER NOT NULL,
    code_version INTEGER NOT NULL,
    origin TEXT NOT NULL,
    trace_id TEXT NOT NULL,
    cache_hit INTEGER NOT NULL,
    wall_s REAL NOT NULL,
    engine TEXT NOT NULL DEFAULT 'interp',
    ipc REAL,
    row_buffer_hit_rate REAL,
    fast_hit_rate REAL,
    promotions INTEGER,
    mpki REAL,
    mean_read_latency_ns REAL
);
CREATE INDEX runs_ts ON runs (ts);
CREATE INDEX runs_shape ON runs (workload, design);
"""
_V1_RUNS_DDL = _V2_RUNS_DDL.replace(
    "    engine TEXT NOT NULL DEFAULT 'interp',\n", "")
_V3_RUNS_DDL = _V2_RUNS_DDL.replace("    trace_id TEXT NOT NULL,\n", "")
_V4_RUNS_DDL = _V1_RUNS_DDL.replace("    trace_id TEXT NOT NULL,\n", "")
_RUNS_DDL = {1: _V1_RUNS_DDL, 2: _V2_RUNS_DDL, 3: _V3_RUNS_DDL,
             4: _V4_RUNS_DDL}

#: The other two tables, as v1 to v4 wrote them; v5 dropped ``perf_runs``.
_OTHER_DDL = """
CREATE TABLE perf_runs (
    id INTEGER PRIMARY KEY,
    ts REAL NOT NULL,
    scenario TEXT NOT NULL,
    mode TEXT NOT NULL,
    wall_s REAL NOT NULL,
    code_version INTEGER NOT NULL,
    scale TEXT NOT NULL,
    counters TEXT NOT NULL
);
CREATE INDEX perf_runs_scenario ON perf_runs (scenario, ts);
CREATE TABLE validate_runs (
    id INTEGER PRIMARY KEY,
    ts REAL NOT NULL,
    scale TEXT NOT NULL,
    ok INTEGER NOT NULL,
    passed INTEGER NOT NULL,
    failed INTEGER NOT NULL,
    skipped INTEGER NOT NULL,
    errors INTEGER NOT NULL,
    code_version INTEGER NOT NULL,
    source TEXT NOT NULL
);
"""


def _old_database(path: Path, version: int, rows: int = 3) -> None:
    """Write a schema-``version`` ledger holding ``rows`` run rows, one
    perf row and one validate row."""
    conn = sqlite3.connect(str(path))
    conn.executescript(_RUNS_DDL[version] + _OTHER_DDL)
    trace_id = ", trace_id" if version < 3 else ""
    for i in range(rows):
        values = (time.time() + i, f"v10-old{i}", "mcf", "das", 1000, 1, 1,
                  10, "run", i % 2, 0.1, 1.0)
        if trace_id:
            values += (f"t{i:012x}",)
        conn.execute(
            "INSERT INTO runs (ts, spec_key, workload, design, refs, "
            "num_cores, seed, code_version, origin, cache_hit, wall_s, "
            f"ipc{trace_id}) VALUES ({', '.join('?' * len(values))})",
            values)
    conn.execute(
        "INSERT INTO perf_runs (ts, scenario, mode, wall_s, code_version, "
        "scale, counters) VALUES (?, 'single_das', 'check', 0.1, 10, "
        "'{}', '{}')", (time.time(),))
    conn.execute(
        "INSERT INTO validate_runs (ts, scale, ok, passed, failed, "
        "skipped, errors, code_version, source) "
        "VALUES (?, 'full', 1, 58, 0, 0, 0, 10, 'snapshot')",
        (time.time(),))
    conn.execute(f"PRAGMA user_version={version}")
    conn.commit()
    conn.close()


class TestSchemaMigration:
    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_old_database_migrates_in_place(self, tmp_path, version):
        path = tmp_path / "ledger.db"
        _old_database(path, version)
        ledger = RunLedger(path)
        rows = ledger.runs()
        assert sorted(r["spec_key"] for r in rows) == \
            ["v10-old0", "v10-old1", "v10-old2"]
        assert all(r["workload"] == "mcf" and r["ipc"] == 1.0
                   for r in rows)
        assert ledger.latest_validate()["passed"] == 58
        assert ledger.rebuilds == 0  # migrated, not thrown away
        conn = sqlite3.connect(str(path))
        assert conn.execute("PRAGMA user_version").fetchone()[0] == 5
        columns = {row[1] for row in conn.execute("PRAGMA table_info(runs)")}
        tables = {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
        conn.close()
        assert "engine" not in columns and "trace_id" not in columns
        assert tables == {"runs", "validate_runs"}
        # Recording keeps working against the migrated table.
        _seed_rows(ledger, n=1)
        assert len(ledger.runs()) == 4
        assert ledger.dropped == 0


class TestDamageTolerance:
    def test_corrupt_db_is_rebuilt_without_failing_the_run(self):
        path = ledger_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"this is not a sqlite database " * 40)
        metrics = run_workload("libquantum", "das", references=REFS)
        assert metrics.workload == "libquantum"  # the run succeeded
        ledger = get_ledger()
        rows = ledger.runs()
        assert len(rows) == 1  # recorded into the rebuilt database
        assert ledger.rebuilds >= 1

    def test_missing_db_and_directory_are_created_on_demand(self,
                                                            tmp_path):
        ledger = RunLedger(tmp_path / "nested" / "deeper" / "ledger.db")
        _seed_rows(ledger, n=1)
        assert len(ledger.runs()) == 1
        assert ledger.path.exists()

    def test_corrupt_db_query_side_rebuilds_too(self, tmp_path):
        db = tmp_path / "ledger.db"
        ledger = RunLedger(db)
        _seed_rows(ledger, n=2)
        # Sever the handle, then corrupt the file behind its back.
        ledger._conn.close()
        ledger._conn = None
        db.write_bytes(b"\x00" * 512)
        assert ledger.runs() == []  # rebuilt empty, not raising
        assert ledger.rebuilds == 1
        _seed_rows(ledger, n=1)
        assert len(ledger.runs()) == 1

    def test_wal_mode_is_active(self):
        ledger = get_ledger()
        _seed_rows(ledger, n=1)
        mode = sqlite3.connect(str(ledger.path)).execute(
            "PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_record_run_swallows_recorder_errors(self, tmp_path):
        # A metrics object missing everything must not raise out of the
        # choke point.
        class Broken:
            def __getattr__(self, name):
                raise RuntimeError("boom")

        assert record_run(Broken(), "key", cache_hit=False,
                          wall_s=0.0) is None


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestLedgerCli:
    def test_ls_query_show_json(self, capsys):
        from repro.cli import main

        _seed_rows(get_ledger())
        assert main(["ledger", "ls"]) == 0
        out = capsys.readouterr().out
        assert "libquantum" in out and "mcf" in out
        assert "fresh" in out and "cache" in out

        assert main(["ledger", "query", "--origin", "validate",
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["origin"] == "validate"

        assert main(["ledger", "query", "--workload", "mcf",
                     "--design", "das", "--since", "1",
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["workload"] for r in rows} == {"mcf"}

        assert main(["ledger", "show", str(rows[0]["id"])]) == 0
        out = capsys.readouterr().out
        assert "spec_key" in out and "origin" in out
        assert main(["ledger", "show", "99999"]) == 1
        capsys.readouterr()

    def test_prune_cli(self, capsys):
        from repro.cli import main

        _seed_rows(get_ledger())
        assert main(["ledger", "prune", "--keep-last", "2",
                     "--dry-run"]) == 0
        assert "would prune 2" in capsys.readouterr().out
        assert main(["ledger", "prune", "--keep-last", "2",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pruned"] == 2
        assert report["stats"]["runs"] == 2
        assert main(["ledger", "prune"]) == 2  # a bound is required
        capsys.readouterr()

    @pytest.mark.parametrize("argv, flag", [
        (["ledger", "prune", "--keep-last", "-1"], "--keep-last"),
        (["ledger", "prune", "--older-than-days", "-1"],
         "--older-than-days"),
        (["ledger", "ls", "--limit", "-1"], "--limit"),
        (["ledger", "query", "--limit", "-1"], "--limit"),
        (["ledger", "query", "--since", "-1"], "--since"),
    ])
    def test_negative_bounds_are_rejected(self, argv, flag, capsys,
                                          tmp_path, monkeypatch):
        from repro.cli import main

        _seed_rows(get_ledger())
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be >= 0, got -1" in err
        assert len(get_ledger().runs()) == 4  # nothing was pruned
        assert [p.name for p in tmp_path.iterdir()] == ["store"]

    def test_explicit_dir_flag(self, tmp_path, capsys):
        from repro.cli import main

        elsewhere = tmp_path / "elsewhere"
        _seed_rows(get_ledger(elsewhere / "ledger.db"), n=1)
        assert main(["ledger", "ls", "--dir", str(elsewhere),
                     "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 1
