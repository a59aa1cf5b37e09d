"""Content-addressed result store (the engine behind ``.repro_cache/``).

Every simulation result is a pure function of its :class:`RunSpec`, so
results are stored as ``<spec-hash>.json`` under one directory.  A
:class:`ResultStore` is a view of that directory and nothing else: every
call reads or writes the files, so what one process stores the next
call of any other process sees.

* **Keys** are the runner's cache keys (``run_cache_key``): a code
  version, the workload/reference shape and the SHA-256 prefix of the
  canonical :class:`SystemConfig` JSON.  Identical work hashes to the
  identical key no matter who computes it.
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


@dataclass(frozen=True)
class StoreEntry:
    """One stored result as the directory listing sees it."""

    key: str
    size_bytes: int
    mtime: float

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for ``repro cache ls --json``."""
        return {"key": self.key, "size_bytes": self.size_bytes,
                "mtime": self.mtime}


class ResultStore:
    """A directory of ``<key>.json`` results with eviction.

    The store holds no state but ``directory`` (``$REPRO_CACHE_DIR`` or
    ``.repro_cache`` when not given), so constructing one is free and
    two stores on one directory always agree.
    """

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self.directory = (Path(directory) if directory is not None
                          else store_root())

    def path_for(self, key: str) -> Path:
        """The on-disk path of one entry."""
        return self.directory / f"{key}.json"

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------

    def load(self, key: str) -> Optional[RunMetrics]:
        """Recall one result; ``None`` on miss or corrupt entry.

        A hit refreshes the entry's mtime so LRU eviction tracks use,
        not just creation.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as stream:
                stat = os.fstat(stream.fileno())
                data = stream.read()
        except OSError:
            return None
        try:
            metrics = RunMetrics.from_dict(json.loads(data))
        except (ValueError, TypeError):
            self._drop_corrupt(path, stat)
            return None
        try:
            os.utime(path)
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
        return path

    # ------------------------------------------------------------------
    # Listing and eviction
    # ------------------------------------------------------------------

    def entries(self) -> List[StoreEntry]:
        """Every entry on disk now, least-recently-used first.

        One directory listing, no file reads.  Temp files of in-flight
        writers (``.<key>.*.tmp``) and foreign files are skipped; a
        missing directory is an empty store.
        """
        found: List[StoreEntry] = []
        try:
            listing = os.scandir(self.directory)
        except OSError:
            return found
        with listing:
            for entry in listing:
                name = entry.name
                if not name.endswith(".json") or name.startswith("."):
                    continue
                try:
                    stat = entry.stat()
                except OSError:
                    continue  # unlinked between listing and stat
                found.append(StoreEntry(name[:-len(".json")],
                                        stat.st_size, stat.st_mtime))
        found.sort(key=lambda e: e.mtime)
        return found

    def stats(self) -> Dict[str, object]:
        """One summary dict: directory, entry count and total bytes."""
        entries = self.entries()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "total_bytes": sum(entry.size_bytes for entry in entries),
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
        the same decisions without unlinking anything.

        Returns one :class:`Eviction` per dropped entry, in eviction
        order, each carrying *why* it went (``age`` vs ``lru``
        pressure) so ``repro cache gc`` can report the cause per key.
        """
        if now is None:
            now = time.time()
        evicted: List[Eviction] = []
        survivors = self.entries()
        if max_age_s is not None:
            fresh = []
            for entry in survivors:
                age_s = now - entry.mtime
                if age_s > max_age_s:
                    evicted.append(Eviction(
                        entry.key, "age",
                        f"{age_s / 3600.0:.1f}h old, bound "
                        f"{max_age_s / 3600.0:.1f}h"))
                else:
                    fresh.append(entry)
            survivors = fresh
        if max_bytes is not None:
            remaining = sum(entry.size_bytes for entry in survivors)
            for entry in survivors:  # LRU first (entries() sorts by mtime)
                if remaining <= max_bytes:
                    break
                evicted.append(Eviction(
                    entry.key, "lru",
                    f"least recently used while store at "
                    f"{remaining} B over the {max_bytes} B cap"))
                remaining -= entry.size_bytes
        if not dry_run:
            for eviction in evicted:
                try:
                    os.unlink(self.path_for(eviction.key))
                except OSError:
                    pass  # concurrently removed: eviction goal already met
        return evicted
