"""Content-addressed result store (the engine behind ``.repro_cache/``).

Every simulation result is a pure function of its :class:`RunSpec`, so
results are stored as ``<spec-hash>.json`` under one directory — the
same layout the cached runner has always used, promoted here to a
first-class module with an index, statistics and eviction:

* **Keys** are the runner's cache keys (``run_cache_key``): a code
  version, the workload/reference shape and the SHA-256 prefix of the
  canonical :class:`SystemConfig` JSON.  Identical work hashes to the
  identical key no matter who computes it.
* **Index**: a warm-start :meth:`scan` builds an in-memory index of
  entries (size, mtime, per-session hit counts) so ``repro cache`` can
  report and bound the store without reading every file.
* **Eviction**: :meth:`gc` drops entries past an age bound and then
  evicts least-recently-used entries (by file mtime; loads re-touch)
  until the store fits a byte cap.
* **Concurrency**: writes go to a temp file then ``os.replace`` —
  readers see the old or the new entry, never a torn one; racing
  writers both write valid files and the last rename wins.  A corrupt
  entry (crashed writer of the pre-atomic era, disk damage) is treated
  as a miss and unlinked *only if* it was not concurrently replaced by
  a healthy writer (inode+mtime compare), so the unlink can never eat
  a fresh result.

The cached runner (:mod:`repro.sim.runner`), the offline pool's
workers (:mod:`repro.exec`) and ``repro cache`` share this module.
``REPRO_CACHE_DIR`` overrides the directory for all of them; the run
ledger (``ledger.db``) lives beside the entries.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from .sim.metrics import RunMetrics


def store_root() -> Path:
    """The store directory: ``$REPRO_CACHE_DIR`` or ``.repro_cache``."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


@dataclass(frozen=True)
class Eviction:
    """One :meth:`ResultStore.gc` decision: which entry went, and why.

    ``reason`` is ``"age"`` (older than the ``max_age_s`` bound) or
    ``"lru"`` (least-recently-used entry dropped to fit ``max_bytes``);
    ``detail`` is the human-readable justification ``repro cache gc``
    prints next to each key.
    """

    key: str
    reason: str  # "age" | "lru"
    detail: str

    def to_dict(self) -> Dict[str, str]:
        """Plain-dict form for ``repro cache gc --json``."""
        return {"key": self.key, "reason": self.reason,
                "detail": self.detail}

    def __str__(self) -> str:
        return f"{self.key} ({self.reason}: {self.detail})"


@dataclass
class StoreEntry:
    """Index record for one stored result."""

    key: str
    size_bytes: int
    mtime: float
    #: Loads served from this entry by this process (session-local).
    hits: int = 0

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for ``repro cache ls --json`` and telemetry."""
        return {
            "key": self.key,
            "size_bytes": self.size_bytes,
            "mtime": self.mtime,
            "hits": self.hits,
        }


class ResultStore:
    """A directory of ``<key>.json`` results with index and eviction."""

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self.directory = (Path(directory) if directory is not None
                          else store_root())
        self._index: Dict[str, StoreEntry] = {}
        self._scanned = False
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    # Paths and the warm-start scan
    # ------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """The on-disk path of one entry."""
        return self.directory / f"{key}.json"

    def scan(self) -> int:
        """(Re)build the index from disk; returns the entry count.

        The boot-time warm start: one directory listing, no file reads.
        Temp files of in-flight writers (``.<key>.*.tmp``) are skipped.
        """
        index: Dict[str, StoreEntry] = {}
        try:
            listing = os.scandir(self.directory)
        except OSError:
            self._index = {}
            self._scanned = True
            return 0
        with listing:
            for entry in listing:
                name = entry.name
                if not name.endswith(".json") or name.startswith("."):
                    continue
                key = name[:-len(".json")]
                try:
                    stat = entry.stat()
                except OSError:
                    continue  # unlinked between listing and stat
                previous = self._index.get(key)
                index[key] = StoreEntry(
                    key, stat.st_size, stat.st_mtime,
                    hits=previous.hits if previous else 0)
        self._index = index
        self._scanned = True
        return len(index)

    def _ensure_scanned(self) -> None:
        if not self._scanned:
            self.scan()

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------

    def load(self, key: str) -> Optional[RunMetrics]:
        """Recall one result; ``None`` on miss or corrupt entry.

        Reads the disk directly (never only the index) so results
        written by other processes (pool workers) are visible
        immediately.  A hit refreshes the entry's mtime so
        LRU eviction tracks use, not just creation.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as stream:
                stat = os.fstat(stream.fileno())
                data = stream.read()
        except OSError:
            self.misses += 1
            return None
        try:
            metrics = RunMetrics.from_dict(json.loads(data))
        except (ValueError, TypeError):
            self.corrupt += 1
            self._drop_corrupt(path, stat)
            self.misses += 1
            return None
        self.hits += 1
        entry = self._index.get(key)
        if entry is None:
            entry = StoreEntry(key, stat.st_size, stat.st_mtime)
            self._index[key] = entry
        entry.hits += 1
        try:
            os.utime(path)
            entry.mtime = time.time()
        except OSError:
            pass  # entry may have been evicted between read and touch
        return metrics

    def _drop_corrupt(self, path: Path, read_stat: os.stat_result) -> None:
        """Unlink a corrupt entry unless a writer already replaced it.

        The race this guards: reader A opens a corrupt entry, writer B
        atomically replaces it with a healthy one, reader A must not
        unlink B's fresh file.  The replacement changes the inode (a
        rename of a new temp file), so comparing inode+mtime against
        the stat taken at open detects it.
        """
        try:
            current = os.stat(path)
        except OSError:
            return  # already gone
        if (current.st_ino != read_stat.st_ino
                or current.st_mtime_ns != read_stat.st_mtime_ns):
            return  # concurrently replaced: leave the fresh entry alone
        try:
            os.unlink(path)
        except OSError:
            pass
        self._index.pop(path.stem, None)

    def store(self, key: str, metrics: RunMetrics) -> Path:
        """Persist one result atomically; returns the entry path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        # Write-to-temp + atomic rename: a concurrent reader sees either
        # the old file or the complete new one, never truncated JSON.
        # Racing writers both produce valid files; the last rename wins.
        fd, tmp_name = tempfile.mkstemp(dir=str(self.directory),
                                        prefix=f".{key}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as stream:
                json.dump(metrics.to_dict(), stream)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        try:
            stat = os.stat(path)
            previous = self._index.get(key)
            self._index[key] = StoreEntry(
                key, stat.st_size, stat.st_mtime,
                hits=previous.hits if previous else 0)
        except OSError:
            pass
        return path

    def contains(self, key: str) -> bool:
        """Whether an entry exists on disk right now."""
        return self.path_for(key).exists()

    # ------------------------------------------------------------------
    # Introspection and eviction
    # ------------------------------------------------------------------

    def entries(self, rescan: bool = True) -> List[StoreEntry]:
        """Index entries, least-recently-used first."""
        if rescan:
            self.scan()
        else:
            self._ensure_scanned()
        return sorted(self._index.values(), key=lambda e: e.mtime)

    def total_bytes(self) -> int:
        """Total size of all indexed entries."""
        self._ensure_scanned()
        return sum(entry.size_bytes for entry in self._index.values())

    def stats(self) -> Dict[str, object]:
        """One summary dict: entry count, bytes, session hit/miss/evict."""
        self._ensure_scanned()
        return {
            "directory": str(self.directory),
            "entries": len(self._index),
            "total_bytes": self.total_bytes(),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
        now: Optional[float] = None,
        dry_run: bool = False,
    ) -> List[Eviction]:
        """Evict entries by age then LRU size cap.

        ``max_age_s`` drops every entry older than that; ``max_bytes``
        then evicts least-recently-used entries until the remainder
        fits.  Either bound may be ``None`` (not enforced).  ``now``
        pins the clock for deterministic tests.  ``dry_run`` returns
        the same decisions without unlinking anything or touching the
        index and counters.

        Returns one :class:`Eviction` per dropped entry, in eviction
        order, each carrying *why* it went (``age`` vs ``lru``
        pressure) so ``repro cache gc`` can report the cause per key.
        """
        self.scan()
        if now is None:
            now = time.time()
        evicted: List[Eviction] = []
        survivors = self.entries(rescan=False)
        if max_age_s is not None:
            fresh = []
            for entry in survivors:
                age_s = now - entry.mtime
                if age_s > max_age_s:
                    self._evict(entry, evicted, "age",
                                f"{age_s / 3600.0:.1f}h old, bound "
                                f"{max_age_s / 3600.0:.1f}h", dry_run)
                else:
                    fresh.append(entry)
            survivors = fresh
        if max_bytes is not None:
            remaining = sum(entry.size_bytes for entry in survivors)
            for entry in survivors:  # LRU first (entries() sorts by mtime)
                if remaining <= max_bytes:
                    break
                self._evict(entry, evicted, "lru",
                            f"least recently used while store at "
                            f"{remaining} B over the {max_bytes} B cap",
                            dry_run)
                remaining -= entry.size_bytes
        return evicted

    def _evict(self, entry: StoreEntry, evicted: List[Eviction],
               reason: str, detail: str, dry_run: bool = False) -> None:
        evicted.append(Eviction(entry.key, reason, detail))
        if dry_run:
            return
        try:
            os.unlink(self.path_for(entry.key))
        except OSError:
            pass  # concurrently removed: eviction goal already met
        self._index.pop(entry.key, None)
        self.evictions += 1


# ----------------------------------------------------------------------
# Per-directory store registry
# ----------------------------------------------------------------------

_STORES: Dict[str, ResultStore] = {}


def get_store(directory: Optional[os.PathLike] = None) -> ResultStore:
    """The shared :class:`ResultStore` for ``directory``.

    With no argument the directory is re-resolved from the environment
    on every call, so tests and the CLI that flip ``REPRO_CACHE_DIR``
    mid-process each get the store they asked for.  Stores are cached
    per resolved path so index state and hit counts persist across the
    runner's many small calls.
    """
    root = Path(directory) if directory is not None else store_root()
    token = str(root)
    store = _STORES.get(token)
    if store is None:
        store = ResultStore(root)
        _STORES[token] = store
    return store
