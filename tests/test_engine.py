"""The stepping engine's determinism contract (DESIGN.md §9, §14).

A simulation is a pure function of its spec: two fresh runs of the same
(workload, design, references, seed) must return equal
:class:`~repro.sim.metrics.RunMetrics` dictionaries — counters, stats
tree and timeline included — for every design and for a four-core mix.
"Fresh" includes the oracle profile of the static designs and the walk
of the live cache hierarchy; a run that reuses a memoised profile, or
replays a recorded post-cache stream, must equal one that computed it.
The headline counters of three fixed runs are pinned to exact values,
so a model change cannot pass as a refactor.  The store key of a spec
is pinned too: a key change without a ``CODE_VERSION`` bump would
orphan every existing ``.repro_cache/`` entry.
"""

from __future__ import annotations

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.core.variants import DESIGNS
from repro.exec import plan_experiments
from repro.sim import runner
from repro.sim.runner import run_cache_key, run_workload

#: Small enough for per-test simulation, large enough to exercise
#: refresh, migrations and the promotion path.
REFS = 600


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    """Fresh runs never read or write the checkout's store."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    return tmp_path


def _fresh_run(monkeypatch, workload, design, refs):
    """A fresh run from an empty oracle-profile memo and stream memo, so
    the static designs profile too and every run walks the live cache
    hierarchy."""
    monkeypatch.setattr(runner, "_PROFILE_MEMO", {})
    monkeypatch.setattr(runner, "_STREAM_MEMO", {})
    monkeypatch.setattr(runner, "_STREAM_NOTED", {})
    return run_workload(workload, design, references=refs,
                        use_cache=False).to_dict()


def _two_fresh_runs(monkeypatch, workload, design, refs):
    return [_fresh_run(monkeypatch, workload, design, refs)
            for _ in range(2)]


class TestEquivalence:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_single_core_bit_identical(self, monkeypatch, design):
        first, second = _two_fresh_runs(monkeypatch, "libquantum", design,
                                        REFS)
        assert first["stats"] and first["timeline"]["windows"]
        assert first == second

    def test_multiprogram_mix_bit_identical(self, monkeypatch):
        first, second = _two_fresh_runs(monkeypatch, "M1", "das", 400)
        assert len(first["ipc"]) == 4
        assert first["stats"] and first["timeline"]["windows"]
        assert first == second

    def test_profile_memo_hit_equals_fresh_run(self, monkeypatch):
        fresh = _fresh_run(monkeypatch, "libquantum", "charm", REFS)
        _fresh_run(monkeypatch, "libquantum", "sas", REFS)

        def no_pass(*args):
            raise AssertionError("charm profiled again after sas")

        monkeypatch.setattr(runner, "profile_row_heat", no_pass)
        hit = run_workload("libquantum", "charm", references=REFS,
                           use_cache=False).to_dict()
        assert hit == fresh

    def test_stream_replay_equals_live_run(self, monkeypatch):
        # The first run walks the live hierarchy and notes the stream,
        # the second records it and replays, the third only replays.
        live = _fresh_run(monkeypatch, "libquantum", "das", REFS)
        recorded = run_workload("libquantum", "das", references=REFS,
                                use_cache=False).to_dict()

        def no_walk(*args):
            raise AssertionError("a replay walked the live hierarchy")

        monkeypatch.setattr(CacheHierarchy, "access_tuple", no_walk)
        replayed = run_workload("libquantum", "das", references=REFS,
                                use_cache=False).to_dict()
        assert live["timeline"]["windows"]
        assert live == recorded == replayed


class TestPinnedCounters:
    """Exact counters at seed 1: references, instructions, LLC misses,
    DRAM accesses, promotions and timeline windows."""

    @pytest.mark.parametrize("workload, design, refs, expected", [
        ("libquantum", "das", 6000, (4800, 163200, 4800, 4806, 32, 20)),
        ("libquantum", "standard", 6000, (4800, 163200, 4800, 4806, 0, 20)),
        ("M1", "das", 2500, (5740, 476258, 4844, 5484, 1562, 14)),
    ], ids=["libquantum-das", "libquantum-standard", "M1-das"])
    def test_run_counters(self, workload, design, refs, expected):
        metrics = run_workload(workload, design, references=refs, seed=1,
                               use_cache=False)
        assert (metrics.references, metrics.instructions,
                metrics.llc_misses, metrics.dram_accesses,
                metrics.promotions,
                len(metrics.timeline["windows"])) == expected

    def test_fig7a_plan(self):
        graph = plan_experiments(["fig7a"], references=3000,
                                 workloads=["libquantum", "mcf"])
        assert (len(graph), graph.deduplicated) == (12, 0)


class TestCacheKeys:
    def test_key_is_pinned(self):
        assert run_cache_key("mcf", "das", REFS, 1) == \
            "v10-mcf-600-84c7891ba40304ea"

    @pytest.mark.parametrize("workload, reason", [
        ("nosuch", "not a SPEC benchmark"),
        ("tracemix:M1+mcf", "member 'M1' is a mix"),
    ])
    def test_bad_name_has_no_key(self, workload, reason):
        with pytest.raises(KeyError, match=reason):
            run_cache_key(workload)
