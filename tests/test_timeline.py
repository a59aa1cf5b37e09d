"""Tests for timeline telemetry and cross-run diffing."""

import json

import pytest

from repro.obs import (
    compare_runs,
    diff_stats,
    flatten_stats,
    render_stat_diff,
    render_timeline,
    render_timeline_diff,
    sparkline,
    timeline_to_csv,
)
from repro.obs.timeline import COUNTER_KEYS, TimelineSampler
from repro.sim.metrics import RunMetrics
from repro.sim.runner import fresh_run, make_config, run_workload


@pytest.fixture(autouse=True)
def _no_result_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _run(workload="libquantum", design="das", refs=4000, **kwargs):
    return run_workload(workload, design, references=refs,
                        use_cache=False, **kwargs)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series_is_flat(self):
        line = sparkline([5.0, 5.0, 5.0])
        assert len(line) == 3
        assert len(set(line)) == 1

    def test_monotonic_series_spans_levels(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"


class TestSamplerContract:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TimelineSampler(0)

    def test_attach_requires_cores(self):
        with pytest.raises(ValueError):
            TimelineSampler(100).attach([], None, None)


class TestTimelineSeries:
    def test_shape_and_metadata(self):
        metrics = _run()
        timeline = metrics.timeline
        assert timeline["num_windows"] == len(timeline["windows"]) > 0
        assert timeline["interval_refs"] > 0
        for window in timeline["windows"]:
            assert window["end_refs"] > window["start_refs"]
            assert window["end_ns"] >= window["start_ns"]

    def test_windows_are_contiguous(self):
        windows = _run().timeline["windows"]
        assert windows[0]["start_refs"] == 0
        for before, after in zip(windows, windows[1:]):
            assert after["start_refs"] == before["end_refs"]
            assert after["index"] == before["index"] + 1

    def test_determinism_same_seed_identical_series(self):
        assert _run().timeline == _run().timeline

    def test_disabled_timeline_changes_nothing_else(self):
        with_timeline = _run()
        without = fresh_run("libquantum", make_config("das"), 4000)
        assert without.timeline == {}
        assert without.stats == with_timeline.stats
        assert without.time_ns == with_timeline.time_ns

    def test_json_round_trip(self):
        timeline = _run().timeline
        assert json.loads(json.dumps(timeline)) == timeline


class TestWindowReconciliation:
    """Sum of windowed deltas must equal the end-of-run aggregates."""

    def _sums(self, metrics):
        windows = metrics.timeline["windows"]
        keys = [k for k in COUNTER_KEYS if k != "references"]
        return {key: sum(w[key] for w in windows) for key in keys}

    def _check(self, metrics):
        sums = self._sums(metrics)
        leaves = flatten_stats(metrics.stats)
        assert sums["instructions"] == metrics.instructions
        assert sums["llc_misses"] == metrics.llc_misses
        assert sums["promotions"] == metrics.promotions
        assert sums["table_fetches"] == metrics.table_fetches
        assert sums["reads"] + sums["writes"] == metrics.dram_accesses
        for window_key, stat_path in (
                ("reads", "controller.reads"),
                ("writes", "controller.writes"),
                ("translation_reads", "controller.translation_reads"),
                ("row_buffer_hits", "controller.row_buffer_hits"),
                ("row_conflicts", "controller.row_conflicts"),
                ("row_closed", "controller.row_closed"),
                ("fast_accesses", "controller.fast_accesses"),
                ("slow_accesses", "controller.slow_accesses")):
            assert sums[window_key] == leaves[stat_path], window_key
        last = metrics.timeline["windows"][-1]
        assert last["end_refs"] == metrics.references

    def test_single_core(self):
        self._check(_run())

    def test_multi_core_mix(self):
        self._check(_run("M1", refs=1200))


class TestRendering:
    def test_render_timeline_lists_series(self):
        text = render_timeline(_run().timeline)
        assert "windows" in text
        for label in ("ipc", "row_buffer_hit_rate", "promotions"):
            assert label in text

    def test_render_timeline_missing(self):
        assert "no timeline recorded" in render_timeline({})

    def test_csv_has_one_row_per_window(self):
        timeline = _run().timeline
        lines = timeline_to_csv(timeline).strip().splitlines()
        assert len(lines) == timeline["num_windows"] + 1
        assert lines[0].startswith("index,start_refs,end_refs")


class TestDiffStats:
    def test_numeric_leaves_and_ranking(self):
        a = {"x": {"hits": 100, "misses": 10}, "ipc": 2.0}
        b = {"x": {"hits": 110, "misses": 10}, "ipc": 1.0}
        deltas = {d.path: d for d in diff_stats(a, b)}
        assert deltas["x.hits"].abs_delta == 10
        assert deltas["x.hits"].rel_delta == pytest.approx(0.1)
        assert deltas["ipc"].rel_delta == pytest.approx(-0.5)

    def test_one_sided_leaf_counts_as_zero(self):
        deltas = {d.path: d for d in diff_stats({"a": 5}, {"b": 7})}
        assert deltas["a"].b == 0.0
        assert deltas["b"].a == 0.0
        assert deltas["b"].severity == float("inf")

    def test_type_mismatch_skipped(self):
        assert diff_stats({"a": {"x": 1}}, {"a": 3}) == []

    def test_flatten(self):
        flat = flatten_stats({"a": {"b": 1, "c": {"d": 2.5}}, "e": 3})
        assert flat == {"a.b": 1.0, "a.c.d": 2.5, "e": 3.0}


class TestCompareGolden:
    """Golden-output check of the ranked diff table."""

    def test_render_stat_diff_exact_output(self):
        deltas = diff_stats(
            {"core": {"ipc": 2.0}, "dram": {"reads": 100, "writes": 50}},
            {"core": {"ipc": 1.5}, "dram": {"reads": 100, "writes": 60}})
        text = render_stat_diff(deltas, threshold_percent=1.0, limit=10,
                                label_a="das", label_b="std")
        assert text == (
            "ranked stat deltas (|Δ| >= 1%, 2 of 3 leaves diverge, "
            "showing 2)\n"
            "  path                    das             std         Δ%\n"
            "  core.ipc                  2             1.5     -25.0%\n"
            "  dram.writes              50              60     +20.0%")

    def test_threshold_filters_noise(self):
        deltas = diff_stats({"a": 1000}, {"a": 1001})
        text = render_stat_diff(deltas, threshold_percent=1.0)
        assert "no stats diverge" in text

    def test_timeline_diff_handles_missing_side(self):
        text = render_timeline_diff({}, {"windows": [{"ipc": 1.0}]},
                                    label_a="L", label_b="R")
        assert "not comparable" in text and "L" in text

    def test_compare_runs_report_sections(self):
        a = _run(refs=2500)
        b = _run(design="standard", refs=2500)
        report = compare_runs(a, b, label_a="das", label_b="std")
        assert "ranked stat deltas" in report
        assert "timeline divergence" in report
        assert "speedup of das over std" in report


class TestCachedTimeline:
    def test_timeline_survives_cache_round_trip(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "rt"))
        first = run_workload("libquantum", references=2500)
        again = run_workload("libquantum", references=2500)
        assert again.timeline == first.timeline
        assert again.timeline["num_windows"] > 0

    def test_metrics_round_trip_preserves_timeline(self):
        metrics = _run(refs=2500)
        clone = RunMetrics.from_dict(
            json.loads(json.dumps(metrics.to_dict())))
        assert clone.timeline == metrics.timeline
