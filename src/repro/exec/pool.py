"""Phase 2 of the execution engine: the worker pool.

:func:`execute` takes the planner's deduplicated specs and brings every
result into existence — by store recall where possible, inline for
``jobs=1``, and across a ``ProcessPoolExecutor`` otherwise.  Every result
comes back on the :class:`ExecutionReport`, so the tables are built from
it directly (:func:`repro.experiments.registry.run_experiments`); with
``use_cache`` workers also write through the runner's (atomic) store,
without it results travel back in memory only.  Inline and pool runs
produce identical tables.

Every unique run a batch obtains lands one row in the run ledger: a
store hit here, a fresh simulation in :func:`repro.sim.runner.run_workload`
(in the worker that ran it).

Robustness contract:

* a worker crash (``BrokenProcessPool``) or a raised exception retries
  the affected specs on a fresh pool, at most ``retries`` extra
  attempts each;
* specs that exhaust their attempts surface in
  :class:`ExecutionError` — partial results stay available on the
  attached report.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..sim.metrics import RunMetrics
from .plan import RunSpec
from .progress import NullProgress

#: A worker receives (spec, use_cache) and returns ``metrics.to_dict()``.
Worker = Callable[[RunSpec, bool], Dict[str, object]]

#: Default retry budget per spec — shared by :func:`execute` and the
#: ``repro run --retries`` flag, so "the executor's robustness
#: contract" means one number everywhere.
DEFAULT_RETRIES = 2


def run_spec_worker(spec: RunSpec, use_cache: bool = True) -> Dict[str, object]:
    """Default pool worker: simulate one spec, return plain-dict metrics.

    Returns a dict (not :class:`RunMetrics`) so the payload crossing the
    process boundary is exactly what the disk cache stores.
    """
    return spec.run(use_cache=use_cache).to_dict()


def _timed_worker(worker: Worker, spec: RunSpec,
                  use_cache: bool) -> Dict[str, object]:
    """Pool-side wrapper adding per-job telemetry to a worker's payload.

    Module-level so it pickles into the pool; the wall time and pid
    measured *inside* the worker process attribute each job to the
    process that actually ran it.
    """
    started = time.monotonic()
    payload = worker(spec, use_cache)
    return {
        "payload": payload,
        "worker": os.getpid(),
        "wall_s": time.monotonic() - started,
    }


class ExecutionError(RuntimeError):
    """Raised when specs exhaust their retry budget.

    ``report`` carries the partial results and telemetry of the batch.
    """

    def __init__(self, message: str, report: "ExecutionReport") -> None:
        super().__init__(message)
        self.report = report


@dataclass
class ExecutionReport:
    """Telemetry of one :func:`execute` batch."""

    total: int = 0
    jobs: int = 1
    #: Specs satisfied straight from the disk cache (no simulation).
    cache_hits: int = 0
    #: Specs actually simulated by this batch.
    executed: int = 0
    #: Re-submissions after a worker crash or exception.
    retried: int = 0
    #: Individual failed attempts (crashes and exceptions) —
    #: counts every failure, whether or not the spec later succeeded.
    worker_failures: int = 0
    #: Human descriptions of specs that exhausted their attempts.
    failed: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Cache key -> metrics for every completed spec.
    results: Dict[str, RunMetrics] = field(default_factory=dict)

    @property
    def done(self) -> int:
        """Jobs finished so far (success or failure)."""
        return self.cache_hits + self.executed

    @property
    def runs_per_sec(self) -> float:
        """Completed simulations per wall-clock second."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.executed / self.elapsed_s

    def summary(self) -> str:
        """One-line human summary for logs and the CLI."""
        parts = [
            f"exec: {self.total} unique runs",
            f"{self.cache_hits} cached",
            f"{self.executed} simulated (jobs={self.jobs})",
        ]
        if self.retried:
            parts.append(f"{self.retried} retried")
        if self.worker_failures:
            parts.append(f"{self.worker_failures} worker failures")
        if self.failed:
            parts.append(f"{len(self.failed)} FAILED")
        parts.append(f"{self.elapsed_s:.1f}s")
        if self.executed:
            parts.append(f"{self.runs_per_sec:.2f} runs/s")
        return ", ".join(parts)

    def get(self, spec: RunSpec) -> RunMetrics:
        """Metrics for one executed/recalled spec."""
        return self.results[spec.cache_key()]


def execute(
    specs: Iterable[RunSpec],
    jobs: int = 1,
    retries: int = DEFAULT_RETRIES,
    use_cache: bool = True,
    progress=None,
    worker: Optional[Worker] = None,
    log=None,
) -> ExecutionReport:
    """Run a batch of specs; returns telemetry + results.

    ``jobs <= 1`` runs inline (no subprocess overhead, same retry
    bound); larger values fan uncached specs out over a process pool.
    With ``use_cache`` the warm path is a pure store read (one
    ``cache_hit`` ledger row per spec) and workers persist what they
    compute; without it everything is simulated and results travel back
    in memory only.  ``log`` (a :class:`repro.exec.telemetry.JsonlLog`)
    receives one structured event per cache hit, run and failed attempt,
    plus a summary.
    """
    from ..obs import ledger

    worker = worker or run_spec_worker
    specs = list(specs)
    report = ExecutionReport(total=len(specs), jobs=max(1, jobs))
    progress = progress or NullProgress()
    started = time.monotonic()
    record = ledger.ledger_enabled()
    store = None
    if use_cache:
        from ..store import ResultStore

        store = ResultStore()

    pending: List[Tuple[str, RunSpec]] = []
    for spec in specs:
        key = spec.cache_key()
        if key in report.results:
            continue  # defensive: callers normally pass deduplicated specs
        load_started = time.monotonic()
        cached = store.load(key) if store is not None else None
        if cached is not None:
            report.results[key] = cached
            report.cache_hits += 1
            if record:
                ledger.record_run(cached, key, cache_hit=True,
                                  wall_s=time.monotonic() - load_started,
                                  seed=spec.seed)
            if log is not None:
                log.cache_hit(key, spec.describe())
        else:
            pending.append((key, spec))
    report.total = report.cache_hits + len(pending)
    progress.update(report.done, report.total, report.cache_hits,
                    report.executed, report.worker_failures)

    if jobs <= 1:
        _execute_inline(pending, worker, use_cache, retries, report,
                        progress, log)
    else:
        _execute_pool(pending, worker, use_cache, jobs, retries, report,
                      progress, log)

    report.elapsed_s = time.monotonic() - started
    progress.update(report.done, report.total, report.cache_hits,
                    report.executed, report.worker_failures)
    progress.finish()
    if log is not None:
        log.summary(report)
    if report.failed:
        raise ExecutionError(
            f"{len(report.failed)} run(s) failed after {retries} "
            f"retr{'y' if retries == 1 else 'ies'}: "
            + "; ".join(report.failed), report)
    return report


def _execute_inline(pending, worker, use_cache, retries, report,
                    progress, log) -> None:
    pid = os.getpid()
    for key, spec in pending:
        last_error: Optional[BaseException] = None
        for attempt in range(retries + 1):
            if attempt:
                report.retried += 1
            attempt_start = time.monotonic()
            try:
                payload = worker(spec, use_cache)
            except Exception as error:  # worker bugs must not kill the batch
                last_error = error
                report.worker_failures += 1
                if log is not None:
                    log.failure(key, spec.describe(), repr(error), attempt,
                                will_retry=attempt < retries)
                continue
            report.results[key] = RunMetrics.from_dict(payload)
            report.executed += 1
            if log is not None:
                log.run(key, spec.describe(),
                        time.monotonic() - attempt_start, pid, attempt)
            last_error = None
            break
        if last_error is not None:
            report.failed.append(f"{spec.describe()}: {last_error!r}")
        progress.update(report.done, report.total, report.cache_hits,
                        report.executed, report.worker_failures)


def _execute_pool(pending, worker, use_cache, jobs, retries, report,
                  progress, log) -> None:
    # Imported here, where a pool starts: ``concurrent.futures`` pulls in
    # ``multiprocessing``, which no inline run or other verb needs.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    attempts = {key: 0 for key, _ in pending}
    queue = list(pending)
    while queue:
        retry_queue: List[Tuple[str, RunSpec]] = []
        pool_dead = False
        executor = ProcessPoolExecutor(max_workers=min(jobs, len(queue)))
        try:
            futures = [(executor.submit(_timed_worker, worker, spec,
                                        use_cache), key, spec)
                       for key, spec in queue]
            for future, key, spec in futures:
                try:
                    timed = future.result()
                except BrokenProcessPool:
                    pool_dead = True
                    _record_failure(key, spec, "worker crashed", attempts,
                                    retries, retry_queue, report, log)
                except Exception as error:
                    _record_failure(key, spec, repr(error), attempts,
                                    retries, retry_queue, report, log)
                else:
                    report.results[key] = RunMetrics.from_dict(
                        timed["payload"])
                    report.executed += 1
                    if log is not None:
                        log.run(key, spec.describe(), timed["wall_s"],
                                timed["worker"], attempts[key])
                progress.update(report.done, report.total,
                                report.cache_hits, report.executed,
                                report.worker_failures)
        finally:
            executor.shutdown(wait=not pool_dead, cancel_futures=True)
        queue = retry_queue


def _record_failure(key, spec, reason, attempts, retries, retry_queue,
                    report, log) -> None:
    report.worker_failures += 1
    will_retry = attempts[key] < retries
    if log is not None:
        log.failure(key, spec.describe(), reason, attempts[key], will_retry)
    attempts[key] += 1
    if not will_retry:
        report.failed.append(f"{spec.describe()}: {reason}")
    else:
        report.retried += 1
        retry_queue.append((key, spec))
