"""Tests for the parallel execution engine (repro.exec)."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.exec import (
    ExecutionError,
    JobGraph,
    JsonlLog,
    RunSpec,
    execute,
    plan_experiments,
)
from repro.exec.pool import run_spec_worker
from repro.sim.runner import run_workload
from repro.store import ResultStore

REFS = 1500


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    """Every test gets its own empty disk cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


class TestPlanner:
    def test_shared_baseline_planned_once(self):
        """The standard baseline every figure divides by dedups to one job."""
        graph = plan_experiments(["fig7a", "fig8a", "fig9b"],
                                 references=REFS, workloads=["libquantum"])
        standards = [spec for spec in graph.specs
                     if spec.design == "standard"]
        assert len(standards) == 1
        assert graph.demanded > len(graph)
        assert graph.deduplicated == graph.demanded - len(graph)

    def test_identical_specs_share_a_key(self):
        graph = JobGraph()
        assert graph.add(RunSpec("mcf", "das", REFS))
        assert not graph.add(RunSpec("mcf", "das", REFS))
        assert graph.demanded == 2 and len(graph) == 1

    def test_spec_key_matches_runner_key(self, tmp_path):
        """A planned spec's key is the key run_workload caches under."""
        spec = RunSpec("libquantum", "standard", REFS)
        run_workload(spec.workload, spec.design, spec.references)
        assert ResultStore().load(spec.cache_key()) is not None

    def test_unplannable_experiment_contributes_nothing(self):
        assert plan_experiments(["table1", "table2"]).specs == []

    def test_full_registry_plans(self):
        """Every registered experiment (bar the tables) declares runs."""
        from repro.experiments.registry import experiment_ids, study

        for experiment_id in experiment_ids():
            runs = study(experiment_id, references=100).runs
            if experiment_id not in ("table1", "table2"):
                assert runs, f"{experiment_id} declared no runs"


class TestExecutor:
    def test_parallel_matches_serial(self):
        """jobs=2 returns metrics identical to direct serial simulation."""
        specs = [RunSpec("libquantum", design, REFS)
                 for design in ("standard", "das")]
        report = execute(specs, jobs=2)
        assert report.executed == 2 and report.cache_hits == 0
        for spec in specs:
            direct = run_workload(spec.workload, spec.design,
                                  spec.references, use_cache=False)
            assert report.get(spec).to_dict() == direct.to_dict()

    def test_warm_batch_is_pure_recall(self):
        specs = [RunSpec("libquantum", "standard", REFS)]
        first = execute(specs, jobs=1)
        second = execute(specs, jobs=2)
        assert first.executed == 1
        assert second.cache_hits == 1 and second.executed == 0
        assert (second.get(specs[0]).to_dict()
                == first.get(specs[0]).to_dict())

    def test_experiment_after_execute_never_simulates(self, monkeypatch):
        """Executing a study's runs makes its table pure store recall."""
        from repro.experiments.registry import run_experiment, study

        execute(study("fig7b", REFS, ["libquantum"]).runs.values(), jobs=1)

        def _boom(*args, **kwargs):
            raise AssertionError("table simulated despite warm store")

        monkeypatch.setattr("repro.sim.runner.simulate", _boom)
        result = run_experiment("fig7b", references=REFS,
                                workloads=["libquantum"])
        assert result.rows  # tabulated entirely from the store

    def test_use_cache_false_runs_everything(self):
        spec = RunSpec("libquantum", "standard", REFS)
        execute([spec], jobs=1)  # warm the disk cache
        report = execute([spec], jobs=1, use_cache=False)
        assert report.cache_hits == 0 and report.executed == 1


class TestAtomicCache:
    def test_partial_write_is_a_miss_and_heals(self, tmp_path):
        """A truncated cache file never surfaces; the next store fixes it."""
        spec = RunSpec("libquantum", "standard", REFS)
        metrics = run_workload(spec.workload, spec.design, spec.references)
        cache = Path(os.environ["REPRO_CACHE_DIR"])
        path = cache / f"{spec.cache_key()}.json"
        complete = path.read_text()
        path.write_text(complete[: len(complete) // 2])  # simulated crash

        assert ResultStore().load(spec.cache_key()) is None
        assert not path.exists()  # corrupt entry dropped

        ResultStore().store(spec.cache_key(), metrics)
        assert json.loads(path.read_text()) == metrics.to_dict()

    def test_store_leaves_no_temp_files(self):
        spec = RunSpec("libquantum", "standard", REFS)
        run_workload(spec.workload, spec.design, spec.references)
        cache = Path(os.environ["REPRO_CACHE_DIR"])
        assert not list(cache.glob("*.tmp"))


def _crash_once_worker(spec, use_cache=True):
    """Hard-kill the worker process on the first attempt (pool test)."""
    marker = Path(os.environ["REPRO_TEST_CRASH_MARKER"])
    if not marker.exists():
        marker.write_text("crashed")
        os._exit(17)  # abrupt death -> BrokenProcessPool in the parent
    return run_spec_worker(spec, use_cache)


def _raise_once_worker(spec, use_cache=True):
    """Raise on the first attempt (inline/exception retry path)."""
    marker = Path(os.environ["REPRO_TEST_CRASH_MARKER"])
    if not marker.exists():
        marker.write_text("raised")
        raise RuntimeError("transient failure")
    return run_spec_worker(spec, use_cache)


def _always_fail_worker(spec, use_cache=True):
    raise RuntimeError("permanent failure")


class TestRetry:
    def test_retry_after_worker_crash(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TEST_CRASH_MARKER",
                           str(tmp_path / "marker"))
        spec = RunSpec("libquantum", "standard", REFS)
        report = execute([spec], jobs=2, retries=2,
                         worker=_crash_once_worker)
        assert report.retried >= 1
        assert report.executed == 1
        direct = run_workload(spec.workload, spec.design, spec.references,
                              use_cache=False)
        assert report.get(spec).to_dict() == direct.to_dict()

    def test_retry_after_worker_exception_inline(self, monkeypatch,
                                                 tmp_path):
        monkeypatch.setenv("REPRO_TEST_CRASH_MARKER",
                           str(tmp_path / "marker"))
        spec = RunSpec("libquantum", "standard", REFS)
        report = execute([spec], jobs=1, retries=1,
                         worker=_raise_once_worker)
        assert report.retried == 1 and report.executed == 1

    def test_exhausted_retries_raise_with_partial_report(self):
        spec = RunSpec("libquantum", "standard", REFS)
        with pytest.raises(ExecutionError) as excinfo:
            execute([spec], jobs=1, retries=1, worker=_always_fail_worker)
        report = excinfo.value.report
        assert report.failed and report.executed == 0
        assert "libquantum" in report.failed[0]
        assert report.worker_failures == 2  # initial attempt + 1 retry


def _read_jsonl(path):
    with open(path) as stream:
        return [json.loads(line) for line in stream]


class TestTelemetryLog:
    def test_run_events_carry_timing_and_worker(self, tmp_path):
        path = tmp_path / "run.jsonl"
        spec = RunSpec("libquantum", "standard", REFS)
        with JsonlLog(str(path)) as log:
            execute([spec], jobs=1, log=log)
        events = _read_jsonl(path)
        assert [e["event"] for e in events] == ["run", "summary"]
        run = events[0]
        assert run["spec"] == spec.describe()
        assert run["key"] == spec.cache_key()
        assert run["wall_s"] >= 0.0
        assert run["worker"] == os.getpid()
        assert run["attempt"] == 0

    def test_pool_run_attributes_worker_process(self, tmp_path):
        path = tmp_path / "run.jsonl"
        spec = RunSpec("libquantum", "standard", REFS)
        with JsonlLog(str(path)) as log:
            execute([spec], jobs=2, log=log)
        run = next(e for e in _read_jsonl(path) if e["event"] == "run")
        assert run["worker"] != os.getpid()  # ran in a pool process
        assert run["wall_s"] > 0.0

    def test_cache_hits_logged(self, tmp_path):
        spec = RunSpec("libquantum", "standard", REFS)
        execute([spec], jobs=1)  # warm the cache, unlogged
        path = tmp_path / "warm.jsonl"
        with JsonlLog(str(path)) as log:
            execute([spec], jobs=1, log=log)
        events = _read_jsonl(path)
        assert [e["event"] for e in events] == ["cache_hit", "summary"]
        assert events[1]["cache_hits"] == 1
        assert events[1]["executed"] == 0

    def test_failures_logged_with_retry_flag(self, tmp_path):
        path = tmp_path / "fail.jsonl"
        spec = RunSpec("libquantum", "standard", REFS)
        with JsonlLog(str(path)) as log:
            with pytest.raises(ExecutionError):
                execute([spec], jobs=1, retries=1,
                        worker=_always_fail_worker, log=log)
        events = _read_jsonl(path)
        failures = [e for e in events if e["event"] == "failure"]
        assert [f["will_retry"] for f in failures] == [True, False]
        summary = events[-1]
        assert summary["event"] == "summary"
        assert summary["worker_failures"] == 2
        assert summary["failed"]

    def test_every_line_carries_both_clocks(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlLog(str(path)) as log:
            execute([RunSpec("libquantum", "standard", REFS)], jobs=1,
                    log=log)
        events = _read_jsonl(path)  # json.loads above validates each
        for event in events:
            assert event["ts"] > 0  # wall clock, for the outside world
            assert event["mono"] > 0  # monotonic, for durations
        # mono differences are valid durations: non-decreasing in file
        # order even if the wall clock were stepped mid-run.
        monos = [event["mono"] for event in events]
        assert monos == sorted(monos)

    def test_rejects_both_path_and_stream(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlLog()


class TestProgressFailures:
    def test_progress_line_shows_failures(self):
        import io

        from repro.exec import ProgressLine

        stream = io.StringIO()
        line = ProgressLine(stream=stream, enabled=True, min_interval_s=0.0)
        line.update(3, 10, cache_hits=2, executed=1, failures=4)
        assert "failures=4" in stream.getvalue()

    def test_progress_line_omits_zero_failures(self):
        import io

        from repro.exec import ProgressLine

        stream = io.StringIO()
        line = ProgressLine(stream=stream, enabled=True, min_interval_s=0.0)
        line.update(3, 10, cache_hits=2, executed=1, failures=0)
        assert "failures" not in stream.getvalue()


class TestSweepRouting:
    def test_sweep_jobs_matches_serial(self):
        from repro.experiments.registry import run_experiments
        from repro.experiments.study import improvement_grid, over_standard

        study = improvement_grid("s", "design sweep", ["libquantum"],
                                 {"das": over_standard(REFS)})
        serial, = run_experiments([study], use_cache=False)
        parallel, = run_experiments([study], use_cache=False, jobs=2)
        assert serial.rows == parallel.rows


class TestCLI:
    def test_run_jobs_flag(self, capsys):
        from repro.cli import main

        assert main(["run", "fig7b", "--refs", "1200", "--jobs", "2",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "fig7b" in out

    def test_no_cache_simulates_each_unique_run_once(self, capsys,
                                                    monkeypatch):
        """``power`` reads each workload's ``das`` run twice; without the
        store it used to be simulated twice (50 runs for 40)."""
        import repro.sim.runner
        from repro.cli import main

        calls = []
        simulate = repro.sim.runner.simulate

        def counted(*args, **kwargs):
            calls.append(1)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(repro.sim.runner, "simulate", counted)
        assert main(["run", "power", "--refs", "300", "--no-cache"]) == 0
        assert len(calls) == 40
        assert "planned 40 runs -> 40 unique" in capsys.readouterr().err


def _das_always_fails_worker(spec, use_cache=True):
    """Raise on every attempt for the das spec, run the rest."""
    if spec.design == "das":
        raise RuntimeError("permanent failure")
    return run_spec_worker(spec, use_cache)


def _always_crash_worker(spec, use_cache=True):
    os._exit(17)  # abrupt death on every attempt -> BrokenProcessPool


class TestPoolFailures:
    """The pool's two failure branches, a raised exception and a worker
    crash, each exhausting the retry budget."""

    def test_exception_on_every_attempt(self, tmp_path):
        path = tmp_path / "fail.jsonl"
        failing = RunSpec("libquantum", "das", REFS)
        fine = RunSpec("libquantum", "standard", REFS)
        with JsonlLog(str(path)) as log:
            with pytest.raises(ExecutionError, match="libquantum") as excinfo:
                execute([failing, fine], jobs=2, retries=1,
                        worker=_das_always_fails_worker, log=log)
        report = excinfo.value.report
        assert report.worker_failures == 2 and report.retried == 1
        [failed] = report.failed
        assert failed.startswith(failing.describe())
        assert "permanent failure" in failed
        assert report.executed == 1
        direct = run_workload(fine.workload, fine.design, fine.references,
                              use_cache=False)
        assert report.get(fine).to_dict() == direct.to_dict()
        events = _read_jsonl(path)
        failures = [e for e in events if e["event"] == "failure"]
        assert [f["will_retry"] for f in failures] == [True, False]
        assert {f["key"] for f in failures} == {failing.cache_key()}
        summary = events[-1]
        assert set(summary) == {
            "event", "ts", "mono", "total", "jobs", "cache_hits",
            "executed", "retried", "worker_failures", "failed",
            "elapsed_s"}
        assert summary["worker_failures"] == 2

    def test_crash_on_every_attempt(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        spec = RunSpec("libquantum", "standard", REFS)
        with JsonlLog(str(path)) as log:
            with pytest.raises(ExecutionError, match="libquantum") as excinfo:
                execute([spec], jobs=2, retries=1,
                        worker=_always_crash_worker, log=log)
        report = excinfo.value.report
        assert report.retried == 1 and report.worker_failures == 2
        assert report.executed == 0
        assert report.failed == [f"{spec.describe()}: worker crashed"]
        failures = [e for e in _read_jsonl(path) if e["event"] == "failure"]
        assert [f["will_retry"] for f in failures] == [True, False]
        assert [f["reason"] for f in failures] == ["worker crashed"] * 2
