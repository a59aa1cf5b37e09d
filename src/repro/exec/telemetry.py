"""Structured executor telemetry as JSON lines.

``repro run --log-json run.jsonl`` attaches a :class:`JsonlLog` to the
worker pool.  Every batch event becomes one self-contained JSON object
per line — machine-parseable with nothing more than ``json.loads`` per
line — with a trailing ``summary`` record mirroring
:class:`repro.exec.pool.ExecutionReport`:

* ``cache_hit`` — a spec satisfied straight from the disk cache;
* ``run`` — one simulated spec: wall time, worker pid, attempt number;
* ``failure`` — one failed attempt (crash, exception or timeout) with
  its reason and whether it will retry;
* ``summary`` — end-of-batch totals.

Every record carries two clocks: ``ts`` (wall time, ``time.time()``,
for correlating with the outside world) and ``mono``
(``time.monotonic()``, for computing durations between records — wall
clocks step under NTP and suspend, so differences of ``ts`` are not
durations).  Lines are flushed as written, so a live batch can be
followed with ``tail -f`` and a killed batch keeps every event up to
the kill.
"""

from __future__ import annotations

import json
import time
from typing import Optional, TextIO


class JsonlLog:
    """Append structured executor events to a JSON-lines stream."""

    def __init__(self, path: Optional[str] = None,
                 stream: Optional[TextIO] = None) -> None:
        if (path is None) == (stream is None):
            raise ValueError("pass exactly one of path or stream")
        self._own = stream is None
        self._stream: TextIO = open(path, "w") if stream is None else stream

    def event(self, name: str, **fields: object) -> None:
        """Write one event line (stamps both clocks: ``ts`` + ``mono``)."""
        record: dict = {"event": name, "ts": time.time(),
                        "mono": time.monotonic()}
        record.update(fields)
        self._stream.write(json.dumps(record) + "\n")
        self._stream.flush()

    # ------------------------------------------------------------------
    # Executor event vocabulary
    # ------------------------------------------------------------------

    def cache_hit(self, key: str, spec: str) -> None:
        """Record one cache-hit event."""
        self.event("cache_hit", key=key, spec=spec)

    def run(self, key: str, spec: str, wall_s: float, worker: int,
            attempt: int) -> None:
        """Record one completed simulation event."""
        self.event("run", key=key, spec=spec, wall_s=round(wall_s, 4),
                   worker=worker, attempt=attempt)

    def failure(self, key: str, spec: str, reason: str, attempt: int,
                will_retry: bool) -> None:
        """Record one worker-failure event."""
        self.event("failure", key=key, spec=spec, reason=reason,
                   attempt=attempt, will_retry=will_retry)

    def summary(self, report) -> None:
        """End-of-batch record mirroring ``ExecutionReport.summary()``."""
        self.event(
            "summary",
            total=report.total,
            jobs=report.jobs,
            cache_hits=report.cache_hits,
            executed=report.executed,
            retried=report.retried,
            timeouts=report.timeouts,
            worker_failures=report.worker_failures,
            failed=list(report.failed),
            elapsed_s=round(report.elapsed_s, 4),
        )

    def close(self) -> None:
        """Flush and close the log stream."""
        if self._own:
            self._stream.close()

    def __enter__(self) -> "JsonlLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
