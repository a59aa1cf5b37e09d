"""Tests for repro.obs: event tracer, stats tree, traced runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.obs.tracer as tracer_module
from repro.cpu.multicore import MultiCoreSimulator
from repro.obs import (
    EventTracer,
    MIGRATION_TID,
    TRANSLATION_TID,
    render_stats,
    trace_workload,
)
from repro.sim.runner import (
    fresh_run,
    make_config,
    run_workload,
)
from repro.sim.system import simulate
from repro.trace.library import workload_shape
from repro.trace.spec2006 import build_trace


class TestEventTracer:
    def test_events_sorted_by_timestamp(self):
        tracer = EventTracer()
        tracer.emit(30.0, "a", "late")
        tracer.emit(10.0, "a", "early")
        tracer.emit(20.0, "a", "middle")
        assert [e.name for e in tracer.events()] == [
            "early", "middle", "late"]

    def test_simultaneous_events_keep_emission_order(self):
        tracer = EventTracer()
        tracer.emit(5.0, "a", "first")
        tracer.emit(5.0, "a", "second")
        assert [e.name for e in tracer.events()] == ["first", "second"]

    def test_ring_overflow_keeps_newest(self):
        tracer = EventTracer(capacity=3)
        for i in range(10):
            tracer.emit(float(i), "a", f"e{i}")
        assert tracer.emitted == 10
        assert len(tracer) == 3
        assert tracer.dropped == 7
        assert [e.name for e in tracer.events()] == ["e7", "e8", "e9"]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)

    def test_chrome_trace_is_valid_json(self):
        tracer = EventTracer()
        tracer.emit(100.0, "dram", "read", dur_ns=20.0, tid=1, bank=3)
        tracer.emit(150.0, "translation", "table_fetch",
                    tid=TRANSLATION_TID)
        doc = json.loads(json.dumps(tracer.chrome_trace()))
        events = doc["traceEvents"]
        # Metadata names the process and each used lane.
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        complete = next(e for e in events if e["ph"] == "X")
        assert complete["ts"] == pytest.approx(0.1)   # 100 ns -> 0.1 us
        assert complete["dur"] == pytest.approx(0.02)
        assert complete["args"] == {"bank": 3}
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"
        assert doc["otherData"]["emitted"] == 2
        assert doc["otherData"]["dropped"] == 0

    def test_write_chrome_trace(self, tmp_path):
        tracer = EventTracer()
        tracer.emit(1.0, "a", "x")
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        assert any(e.get("name") == "x" for e in doc["traceEvents"])

    def test_timeline_mentions_drops(self):
        tracer = EventTracer(capacity=2)
        for i in range(5):
            tracer.emit(float(i), "cat", "evt", core=i)
        text = tracer.timeline()
        assert "evt" in text
        assert "3 earlier events dropped" in text

    def test_timeline_limit(self):
        tracer = EventTracer()
        for i in range(4):
            tracer.emit(float(i), "cat", f"e{i}")
        text = tracer.timeline(limit=2)
        assert "e0" in text and "e1" in text
        assert "e3" not in text
        assert "2 more events" in text


class TestTracedSimulation:
    def _simulate(self, tracer, design="das", refs=2500):
        config = make_config(design, num_cores=1, seed=1)
        return simulate(config, [build_trace("libquantum", 1)], refs,
                        tracer=tracer)

    def test_traced_run_emits_expected_categories(self):
        tracer = EventTracer()
        self._simulate(tracer)
        categories = {event.category for event in tracer.events()}
        assert "dram" in categories
        assert "translation" in categories
        assert "migration" in categories
        assert "core" in categories

    def test_migration_events_use_migration_lane(self):
        tracer = EventTracer()
        self._simulate(tracer)
        promos = [e for e in tracer.events() if e.category == "migration"]
        assert promos
        assert all(e.tid == MIGRATION_TID for e in promos)

    def test_tracing_does_not_change_metrics(self):
        baseline = self._simulate(None)
        traced = self._simulate(EventTracer())
        assert traced.time_ns == baseline.time_ns
        assert traced.promotions == baseline.promotions
        assert traced.stats == baseline.stats

    def test_trace_workload_returns_metrics_and_events(self):
        metrics, tracer = trace_workload("libquantum", references=2500,
                                         capacity=128)
        assert metrics.references > 0
        assert len(tracer) == 128  # ring clamped
        assert tracer.dropped == tracer.emitted - 128


class TestDetachedObservability:
    """A detached event tracer costs nothing, in a form free of timing
    noise: with no tracer (``fresh_run`` without one), stepping never
    calls into ``repro.obs.tracer``.  The timeline sampler is part of
    every run, so it is not detachable."""

    @pytest.mark.parametrize("workload, refs", [("libquantum", 2000),
                                                ("M1", 400)])
    def test_stepping_calls_no_observability_code(self, workload, refs,
                                                  monkeypatch):
        calls = []

        def profiler(frame, event, arg):
            if (event == "call"
                    and frame.f_code.co_filename == tracer_module.__file__):
                calls.append(frame.f_code.co_name)

        run = MultiCoreSimulator.run

        def profiled_run(simulator):
            sys.setprofile(profiler)
            run(simulator)

        monkeypatch.setattr(MultiCoreSimulator, "run", profiled_run)
        num_cores, refs = workload_shape(workload, refs)
        try:
            metrics = fresh_run(workload,
                                make_config("das", num_cores=num_cores),
                                refs)
        finally:
            sys.setprofile(None)
        assert calls == []
        assert metrics.references > 0


#: Runs a fresh simulation (``run_workload``) and then recalls it from the
#: store (``execute``), counting ``RunLedger`` constructions.
_DISABLED_LEDGER_PROBE = """
import sys
import repro.obs.ledger as ledger
from repro.exec import RunSpec, execute
from repro.sim.runner import run_workload

built = []
build = ledger.RunLedger.__init__
def counted(self, *args, **kwargs):
    built.append(1)
    build(self, *args, **kwargs)
ledger.RunLedger.__init__ = counted

run_workload("libquantum", "das", references=500)
assert execute([RunSpec("libquantum", "das", 500)]).cache_hits == 1
print(len(built), "sqlite3" in sys.modules)
"""


class TestDisabledLedger:
    """``REPRO_NO_LEDGER=1`` costs nothing, in a form free of timing
    noise: neither ledger choke point (a fresh run in ``run_workload``,
    a store hit in ``execute``) builds a ``RunLedger`` or imports
    ``sqlite3``."""

    def test_no_ledger_built_and_no_sqlite3(self, tmp_path):
        env = dict(os.environ, REPRO_NO_LEDGER="1",
                   REPRO_CACHE_DIR=str(tmp_path),
                   PYTHONPATH=str(Path(__file__).resolve().parents[1]
                                  / "src"))
        out = subprocess.run(
            [sys.executable, "-c", _DISABLED_LEDGER_PROBE], env=env,
            check=True, capture_output=True, text=True).stdout
        assert out.split() == ["0", "False"]


class TestStatsTree:
    def test_run_metrics_stats_tree_shape(self):
        metrics = run_workload("libquantum", "das", references=2500,
                               use_cache=False)
        stats = metrics.stats
        assert "core0" in stats
        assert "caches" in stats
        controller = stats["controller"]
        assert controller["reads"] > 0
        assert "banks" in controller
        assert controller["banks"]["activations"] > 0
        manager = controller["manager"]
        assert "translation" in manager
        assert "migration" in manager
        assert manager["translation"]["translation_cache"]["misses"] >= 0

    def test_stats_survive_json_round_trip(self):
        metrics = run_workload("libquantum", "das", references=2500,
                               use_cache=False)
        recalled = json.loads(json.dumps(metrics.to_dict()))
        assert recalled["stats"] == metrics.stats

    def test_render_stats_nested_report(self):
        metrics = run_workload("libquantum", "das", references=2500,
                               use_cache=False)
        text = render_stats(metrics.stats)
        for section in ("[run]", "[core0]", "[caches]", "[controller]",
                        "[banks]", "[manager]", "[translation]",
                        "[migration]"):
            assert section in text

    def test_render_stats_empty(self):
        assert "no statistics" in render_stats({})

    def test_render_stats_exact_text(self):
        # Per group: int counters (an int-valued scalar included), then
        # summaries, then other scalars (a bool too), each sorted by
        # name; child groups keep export order ([manager] before [banks]).
        tree = {
            "core0": {"instructions": 120, "references": 7,
                      "ipc": 0.123456789, "stall_ns": 2.5},
            "controller": {
                "writes": 3,
                "reads": 12,
                "row_buffer_hit_rate": 0.75,
                "footprint_bytes": 4096,
                "refresh_enabled": True,
                "manager": {
                    "migration": {
                        "promotions": 3,
                        "window_ns": {"count": 3, "sum": 438.75,
                                      "mean": 146.25, "min": 146.25,
                                      "max": 146.25, "stdev": 0.0},
                        "idle_ns": {"count": 0, "sum": 0.0, "mean": 0.0,
                                    "min": 0.0, "max": 0.0, "stdev": 0.0},
                        "busy_time_ns": 438.75,
                    },
                    "promotion": {},
                },
                "banks": {"activations": 5},
            },
        }
        assert render_stats(tree) == "\n".join([
            "[run]",
            "  [core0]",
            "    instructions: 120",
            "    references: 7",
            "    ipc: 0.123457",
            "    stall_ns: 2.5",
            "  [controller]",
            "    footprint_bytes: 4096",
            "    reads: 12",
            "    writes: 3",
            "    refresh_enabled: 1",
            "    row_buffer_hit_rate: 0.75",
            "    [manager]",
            "      [migration]",
            "        promotions: 3",
            "        idle_ns: mean=0.000 n=0 min=0.000 max=0.000",
            "        window_ns: mean=146.250 n=3 min=146.250 max=146.250",
            "        busy_time_ns: 438.75",
            "      [promotion]",
            "    [banks]",
            "      activations: 5",
        ])

    def test_standard_design_has_no_manager_group(self):
        metrics = run_workload("libquantum", "standard", references=2500,
                               use_cache=False)
        assert "manager" not in metrics.stats["controller"]
