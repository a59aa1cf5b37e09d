"""Durable run ledger: a SQLite history of every simulation.

The :class:`~repro.store.ResultStore` keeps only the *latest*
payload per spec hash; this module keeps the **story**: one row per
completed simulation — spec hash, shape, code version, origin, wall
time, cache hit vs fresh, and the headline metrics (IPC,
row-buffer / fast-slot hit rates, promotions) — in
``.repro_cache/ledger.db`` next to the store entries it indexes
(``REPRO_CACHE_DIR`` moves both together).

Two tables, one per record family:

* ``runs`` — one row per unique run an invocation obtains, written at
  the two choke points: :func:`repro.exec.pool.execute` for a store
  hit, :func:`repro.sim.runner.run_workload` for anything else (a fresh
  simulation, in whichever process ran it, or a direct library call).
  ``repro run``, ``repro validate`` and the pool's subprocesses feed it
  with no per-call-site wiring.  Each row carries a ``ts`` wall-clock
  stamp (same convention as the JSONL telemetry's ``ts`` field).
* ``validate_runs`` — one summary row per ``repro validate``
  invocation (scale, pass/fail counts, snapshot vs simulated).

Design constraints:

* **Recording never fails a run.**  Every write is wrapped: a corrupt
  or concurrently-locked database is rebuilt (or the row is dropped),
  and the simulation result is returned regardless.  ``repro`` is a
  simulator first; its history is best-effort.
* **Concurrent writers are expected.**  Pool workers are separate
  processes completing simultaneously; the database runs in WAL mode
  with a busy timeout so racing inserts both land.
* **Zero cost when disabled.**  ``REPRO_NO_LEDGER=1`` reduces the
  choke points to one environment lookup: no :class:`RunLedger` is
  built and ``sqlite3`` is never imported, since only an opened ledger
  imports it (``tests/test_obs.py`` checks both).

Stdlib ``sqlite3`` only — no new dependencies.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # at run time only an opened ledger imports sqlite3
    import sqlite3

#: Bump when the table layout changes (stored in ``PRAGMA user_version``).
#: v2 added an ``engine`` column to ``runs``; v3 dropped the job
#: server's correlation-id column; v4 dropped ``engine`` again; v5
#: dropped the retired perf harness's table.
SCHEMA_VERSION = 5

#: Environment switch: ``1`` disables all ledger recording.
NO_LEDGER_ENV = "REPRO_NO_LEDGER"

#: Environment override for the origin recorded by the runner choke
#: point.  An env var (not a module global) so the offline pool's
#: worker subprocesses inherit it.
ORIGIN_ENV = "REPRO_LEDGER_ORIGIN"

#: The origin vocabulary (callers may mint others; these are the known
#: writers): ``run`` CLI/offline-pool simulations, ``validate`` ledger
#: checks.
ORIGINS = ("run", "validate")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
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
    cache_hit INTEGER NOT NULL,
    wall_s REAL NOT NULL,
    ipc REAL,
    row_buffer_hit_rate REAL,
    fast_hit_rate REAL,
    promotions INTEGER,
    mpki REAL,
    mean_read_latency_ns REAL
);
CREATE INDEX IF NOT EXISTS runs_ts ON runs (ts);
CREATE INDEX IF NOT EXISTS runs_shape ON runs (workload, design);
CREATE TABLE IF NOT EXISTS validate_runs (
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

#: In-place upgrades of older databases: (version reached, statement).
#: Steps replay in order, so a v1 database gains ``engine`` at v2 and
#: loses it again at v4.
_MIGRATIONS = (
    (2, "ALTER TABLE runs ADD COLUMN engine TEXT NOT NULL DEFAULT 'interp'"),
    (3, "ALTER TABLE runs DROP COLUMN trace_id"),
    (4, "ALTER TABLE runs DROP COLUMN engine"),
    (5, "DROP TABLE IF EXISTS perf_runs"),
)

_RUN_COLUMNS = (
    "ts", "spec_key", "workload", "design", "refs", "num_cores", "seed",
    "code_version", "origin", "cache_hit", "wall_s",
    "ipc", "row_buffer_hit_rate", "fast_hit_rate", "promotions", "mpki",
    "mean_read_latency_ns",
)


def ledger_path() -> Path:
    """The database location: ``<store root>/ledger.db``."""
    from ..store import store_root

    return store_root() / "ledger.db"


def ledger_enabled() -> bool:
    """Whether recording is on (``REPRO_NO_LEDGER=1`` turns it off)."""
    return os.environ.get(NO_LEDGER_ENV, "0") != "1"


def current_origin() -> str:
    """The origin the runner choke point stamps (default ``run``)."""
    return os.environ.get(ORIGIN_ENV, "run")


class ledger_origin:
    """Context manager scoping :func:`current_origin` to ``origin``.

    Implemented over an environment variable so subprocesses forked or
    spawned inside the scope (the offline pool's workers) inherit it.
    """

    def __init__(self, origin: str) -> None:
        self.origin = origin
        self._previous: Optional[str] = None

    def __enter__(self) -> "ledger_origin":
        self._previous = os.environ.get(ORIGIN_ENV)
        os.environ[ORIGIN_ENV] = self.origin
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._previous is None:
            os.environ.pop(ORIGIN_ENV, None)
        else:
            os.environ[ORIGIN_ENV] = self._previous


class RunLedger:
    """The SQLite-backed run index.

    Connections are lazy, per-instance and re-opened after a fork (the
    pid is checked) so one registry entry is safe to share across the
    pool's fork points.  Every public method is failure-isolated: a
    corrupt database is rebuilt in place (losing history, never the
    run), and write errors drop the row rather than raising.
    """

    def __init__(self, path: Optional[os.PathLike] = None) -> None:
        self.path = Path(path) if path is not None else ledger_path()
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        #: Times a corrupt database was detected and re-created.
        self.rebuilds = 0
        #: Rows dropped because recording failed even after a rebuild.
        self.dropped = 0

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        import sqlite3

        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path), timeout=5.0,
                               check_same_thread=False)
        conn.row_factory = sqlite3.Row
        # WAL lets concurrent workers append without blocking readers;
        # the busy timeout covers the brief write-lock handoff between
        # two workers completing simultaneously.
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA busy_timeout=5000")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(_SCHEMA)
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version < SCHEMA_VERSION:
            # A fresh database (version 0) already has the current
            # layout; older ones are migrated in place, keeping their
            # rows.  Each step races benignly: a concurrent migrator
            # that won simply makes ours a no-op.
            for target, statement in _MIGRATIONS:
                if 0 < version < target:
                    try:
                        conn.execute(statement)
                    except sqlite3.OperationalError:
                        pass  # already migrated by a concurrent writer
            conn.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
        conn.commit()
        return conn

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None or self._conn_pid != os.getpid():
            # After a fork the child must not reuse the parent's handle;
            # closing it from the child would also corrupt the parent's,
            # so the inherited object is simply abandoned.
            self._conn = self._connect()
            self._conn_pid = os.getpid()
        return self._conn

    def _rebuild(self) -> None:
        """Drop a corrupt database and start a fresh one."""
        import sqlite3

        self.rebuilds += 1
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(f"{self.path}{suffix}")
            except OSError:
                pass
        self._conn = self._connect()
        self._conn_pid = os.getpid()

    def _guarded(self, action):
        """Run ``action(conn)``; on database damage rebuild and retry.

        Returns ``None`` (and counts a drop for writes) when even the
        retry fails — recording and querying must never take down the
        simulation they describe.
        """
        import sqlite3

        try:
            return action(self._connection())
        except sqlite3.DatabaseError:
            try:
                self._rebuild()
                return action(self._connection())
            except sqlite3.DatabaseError:
                self.dropped += 1
                return None
        except OSError:
            self.dropped += 1
            return None

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def record_run(self, **fields: object) -> Optional[int]:
        """Insert one ``runs`` row; returns its id (``None`` if dropped).

        ``fields`` must cover :data:`_RUN_COLUMNS`; missing headline
        metrics may be ``None``.
        """
        row = {column: fields.get(column) for column in _RUN_COLUMNS}

        def action(conn: sqlite3.Connection) -> int:
            with conn:
                cursor = conn.execute(
                    f"INSERT INTO runs ({', '.join(_RUN_COLUMNS)}) "
                    f"VALUES ({', '.join('?' * len(_RUN_COLUMNS))})",
                    tuple(row[column] for column in _RUN_COLUMNS))
            return int(cursor.lastrowid)

        return self._guarded(action)

    def record_validate(self, scale: str, ok: bool,
                        counts: Dict[str, int], code_version: int,
                        source: str,
                        ts: Optional[float] = None) -> Optional[int]:
        """Insert one ``validate_runs`` summary row."""
        def action(conn: sqlite3.Connection) -> int:
            with conn:
                cursor = conn.execute(
                    "INSERT INTO validate_runs (ts, scale, ok, passed, "
                    "failed, skipped, errors, code_version, source) "
                    "VALUES (?,?,?,?,?,?,?,?,?)",
                    (ts if ts is not None else time.time(), scale,
                     1 if ok else 0, int(counts.get("pass", 0)),
                     int(counts.get("fail", 0)), int(counts.get("skip", 0)),
                     int(counts.get("error", 0)), code_version, source))
            return int(cursor.lastrowid)

        return self._guarded(action)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @staticmethod
    def _rows(cursor) -> List[Dict[str, object]]:
        return [dict(row) for row in cursor.fetchall()]

    def runs(
        self,
        workload: Optional[str] = None,
        design: Optional[str] = None,
        origin: Optional[str] = None,
        since_ts: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        """``runs`` rows (newest first), optionally filtered."""
        clauses: List[str] = []
        params: List[object] = []
        for column, value in (("workload", workload), ("design", design),
                              ("origin", origin)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if since_ts is not None:
            clauses.append("ts >= ?")
            params.append(since_ts)
        sql = "SELECT * FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY ts DESC, id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        result = self._guarded(
            lambda conn: self._rows(conn.execute(sql, params)))
        return result if result is not None else []

    def run_by_id(self, row_id: int) -> Optional[Dict[str, object]]:
        """One ``runs`` row by id, or ``None``."""
        result = self._guarded(lambda conn: self._rows(conn.execute(
            "SELECT * FROM runs WHERE id = ?", (int(row_id),))))
        return result[0] if result else None

    def latest_validate(self) -> Optional[Dict[str, object]]:
        """The most recent ``validate_runs`` row, or ``None``."""
        result = self._guarded(lambda conn: self._rows(conn.execute(
            "SELECT * FROM validate_runs ORDER BY ts DESC, id DESC "
            "LIMIT 1")))
        return result[0] if result else None

    def stats(self) -> Dict[str, object]:
        """One summary dict (row counts per table, path, span)."""
        def action(conn: sqlite3.Connection) -> Dict[str, object]:
            counts = {table: conn.execute(
                f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                for table in ("runs", "validate_runs")}
            span = conn.execute(
                "SELECT MIN(ts), MAX(ts) FROM runs").fetchone()
            return {"path": str(self.path), **counts,
                    "first_ts": span[0], "last_ts": span[1],
                    "rebuilds": self.rebuilds, "dropped": self.dropped}

        result = self._guarded(action)
        return result if result is not None else {
            "path": str(self.path), "runs": 0, "validate_runs": 0,
            "first_ts": None, "last_ts": None,
            "rebuilds": self.rebuilds, "dropped": self.dropped}

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------

    def prune(self, before_ts: Optional[float] = None,
              keep_last: Optional[int] = None,
              dry_run: bool = False) -> Dict[str, int]:
        """Delete old ``runs`` rows; returns per-criterion counts.

        ``before_ts`` drops rows older than the stamp; ``keep_last``
        then keeps only the newest N.  ``dry_run`` reports what would
        go without deleting.  The validate history is never pruned
        here — it is tiny and *is* the long-term trend data.
        """
        def action(conn: sqlite3.Connection) -> Dict[str, int]:
            aged = 0
            overflow = 0
            with conn:
                if before_ts is not None:
                    aged = conn.execute(
                        "SELECT COUNT(*) FROM runs WHERE ts < ?",
                        (before_ts,)).fetchone()[0]
                    if not dry_run and aged:
                        conn.execute("DELETE FROM runs WHERE ts < ?",
                                     (before_ts,))
                if keep_last is not None:
                    survivors = ("SELECT id FROM runs "
                                 + ("WHERE ts >= ? " if dry_run
                                    and before_ts is not None else "")
                                 + "ORDER BY ts DESC, id DESC LIMIT ?")
                    params: Tuple[object, ...] = (
                        (before_ts, int(keep_last)) if dry_run
                        and before_ts is not None else (int(keep_last),))
                    total = conn.execute(
                        "SELECT COUNT(*) FROM runs"
                        + (" WHERE ts >= ?" if dry_run
                           and before_ts is not None else ""),
                        params[:-1]).fetchone()[0]
                    overflow = max(0, total - int(keep_last))
                    if not dry_run and overflow:
                        conn.execute(
                            f"DELETE FROM runs WHERE id NOT IN ({survivors})",
                            params)
            return {"aged": int(aged), "overflow": int(overflow),
                    "pruned": int(aged + overflow)}

        result = self._guarded(action)
        return result if result is not None else {
            "aged": 0, "overflow": 0, "pruned": 0}


# ----------------------------------------------------------------------
# Per-path ledger registry and the recording facade
# ----------------------------------------------------------------------

_LEDGERS: Dict[str, RunLedger] = {}


def get_ledger(path: Optional[os.PathLike] = None) -> RunLedger:
    """The shared :class:`RunLedger` for ``path``.

    Like :class:`repro.store.ResultStore`, the default path is
    re-resolved from the environment on every call so tests and the
    CLI that flip ``REPRO_CACHE_DIR`` mid-process get the ledger they
    asked for.
    """
    resolved = Path(path) if path is not None else ledger_path()
    token = str(resolved)
    ledger = _LEDGERS.get(token)
    if ledger is None:
        ledger = RunLedger(resolved)
        _LEDGERS[token] = ledger
    return ledger


def record_run(
    metrics,
    spec_key: str,
    *,
    cache_hit: bool,
    wall_s: float,
    seed: int = 1,
    origin: Optional[str] = None,
    directory: Optional[os.PathLike] = None,
) -> Optional[int]:
    """Record one completed simulation (the choke-point entry).

    ``metrics`` is a :class:`~repro.sim.metrics.RunMetrics`; headline
    fields are derived from it.  ``origin`` defaults to the scoped
    :func:`current_origin`.  No-op (returning ``None``) when the ledger
    is disabled, and never raises.
    """
    if not ledger_enabled():
        return None
    try:
        from ..sim.runner import CODE_VERSION

        locations = metrics.access_locations or {}
        ipc = (sum(metrics.ipc) / len(metrics.ipc)) if metrics.ipc else None
        return get_ledger(directory).record_run(
            ts=time.time(),
            spec_key=spec_key,
            workload=metrics.workload,
            design=metrics.design,
            refs=int(metrics.references),
            num_cores=max(1, len(metrics.time_ns)),
            seed=int(seed),
            code_version=CODE_VERSION,
            origin=origin if origin is not None else current_origin(),
            cache_hit=1 if cache_hit else 0,
            wall_s=float(wall_s),
            ipc=ipc,
            row_buffer_hit_rate=locations.get("row_buffer"),
            fast_hit_rate=locations.get("fast"),
            promotions=int(metrics.promotions),
            mpki=float(metrics.mpki),
            mean_read_latency_ns=float(metrics.mean_read_latency_ns),
        )
    except Exception:
        return None  # history is best-effort, the run result is not


def record_validate(scale: str, ok: bool, counts: Dict[str, int],
                    code_version: int, source: str) -> Optional[int]:
    """Record one validate summary (no-op when disabled)."""
    if not ledger_enabled():
        return None
    try:
        return get_ledger().record_validate(scale, ok, counts,
                                            code_version, source)
    except Exception:
        return None
