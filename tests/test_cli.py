"""Tests for the command-line interface."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.sim import runner
from repro.sim.runner import run_cache_key
from repro.store import ResultStore
from repro.trace.library import import_trace, trace_path

K6_SAMPLE = (Path(__file__).resolve().parents[1] / "validation" / "traces"
             / "k6_sample.trc.gz")
#: Two copies of the 1,020-record k6 sample: at --refs 20000 the
#: 4,000-reference warm-up covers both.
MIX = "tracemix:k6_sample+k6_sample"


@pytest.fixture
def k6_library(tmp_path, monkeypatch):
    """The committed k6 sample, imported into a trace library under
    ``tmp_path``, and a store there too."""
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    import_trace(K6_SAMPLE)


@pytest.fixture
def no_simulation(monkeypatch):
    """Make any simulation fail the test."""
    def simulate(*args, **kwargs):
        raise AssertionError("a run that should be refused was simulated")

    monkeypatch.setattr(runner, "fresh_run", simulate)


def _library_files(tmp_path):
    """Every file of the trace library under ``tmp_path``, with its bytes."""
    return {path.name: path.read_bytes()
            for path in (tmp_path / "lib").iterdir()}


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7a" in out
        assert "table1" in out


class TestRun:
    def test_run_table(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "System configuration" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err


class TestStartup:
    def test_cli_import_skips_network_stacks(self):
        """Every command pays ``import repro.cli``; keep it batch-only."""
        probe = ("import sys, repro.cli; print(sorted({'asyncio', "
                 "'http.server', 'socketserver'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_inline_runs_never_load_the_process_pool(self):
        """Only a run that starts a pool imports ``concurrent.futures``
        and ``multiprocessing``."""
        probe = (
            "import sys, repro.cli\n"
            "from repro.exec.plan import RunSpec\n"
            "from repro.exec.pool import execute\n"
            "def pool_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0]\n"
            "                  in ('concurrent', 'multiprocessing'))\n"
            "print(pool_modules())\n"
            "execute([RunSpec('libquantum', references=300)], jobs=1,\n"
            "        use_cache=False)\n"
            "print(pool_modules())\n")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True).stdout
        assert out.splitlines() == ["[]", "[]"]

    @pytest.mark.parametrize("verb", ["serve", "submit", "watch", "status",
                                      "top", "engine", "perf", "report"])
    def test_job_server_verbs_are_gone(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "convert"])
    def test_trace_file_verbs_are_gone(self, verb, capsys, tmp_path,
                                       monkeypatch):
        # A trace file gets in through 'trace import' alone.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", verb, "t.trc", "--out", "t.rtrc"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_run_timeout_is_gone(self, capsys, tmp_path, monkeypatch):
        # It bounded each wait for a result, not a run; --retries stays.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "fig7b", "--timeout", "5"])
        assert exit_info.value.code == 2
        assert ("unrecognized arguments: --timeout 5"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["bench", "mcf", "--profile", "p.pstats"],
        ["bench", "mcf", "--profile-top", "5"],
        ["bench", "mcf", "--log-json", "b.jsonl"],
    ], ids=["bench-profile", "bench-profile-top", "bench-log-json"])
    def test_perf_flags_are_gone(self, argv, capsys, tmp_path, monkeypatch):
        # python -m cProfile -o p.pstats -m repro bench ... replaces
        # --profile; perfbench/ replaces the rest.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestTraceReplay:
    """A trace file replays one way: ``trace import`` it, then run
    ``trace:<name>`` like any other workload."""

    def test_replay_honours_refs_and_seed(self, capsys, k6_library,
                                          tmp_path):
        trace = tmp_path / "lq.trace"
        assert main(["trace", "dump", "libquantum", "--out", str(trace),
                     "--refs", "3000"]) == 0
        assert main(["trace", "import", str(trace)]) == 0
        capsys.readouterr()
        assert main(["bench", "trace:lq", "--refs", "1000",
                     "--design", "standard"]) == 0
        assert "workload=trace:lq design=standard" in capsys.readouterr().out
        assert main(["stats", "trace:lq", "--refs", "1000", "--seed", "5",
                     "--design", "standard"]) == 0
        assert "references=" in capsys.readouterr().out
        stored = {entry.key for entry in ResultStore().entries()}
        assert stored == {run_cache_key("trace:lq", "standard", 1000, seed)
                          for seed in (1, 5)}

    @pytest.mark.parametrize("content, message", [
        (None, "No such file or directory"),
        (b"", "bad.trc: trace contains no records"),
        (b"-50 0x40 R\n" * 3000, "bad.trc:1: gap '-50' is negative"),
        (bytes(range(128, 256)), "cannot determine trace format"),
    ], ids=["missing", "empty", "negative-gap", "undecodable"])
    def test_bad_file_exits_2_before_simulating(self, content, message,
                                                capsys, tmp_path,
                                                k6_library, no_simulation):
        before = _library_files(tmp_path)
        path = tmp_path / "bad.trc"
        if content is not None:
            path.write_bytes(content)
        assert main(["trace", "import", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("import failed: ") and message in line
        assert _library_files(tmp_path) == before

    @pytest.mark.parametrize("refs", [10000, 20000])
    def test_warm_up_covering_the_file_exits_2(self, refs, capsys, tmp_path,
                                               k6_library, no_simulation):
        path = tmp_path / "short.trc"
        assert main(["trace", "dump", "libquantum", "--out", str(path),
                     "--refs", "2000"]) == 0
        assert main(["trace", "import", str(path)]) == 0
        capsys.readouterr()
        assert main(["bench", "trace:short", "--design", "standard",
                     "--refs", str(refs)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line == (f"trace:short holds 2000 records, not more than the "
                        f"{refs // 5}-reference warm-up (20%) of a "
                        f"{refs}-reference run, which would measure nothing")


class TestUnreadableTrace:
    """A library file that cannot be read, as an interrupted write leaves
    one, fails loudly by name: no traceback."""

    @pytest.fixture
    def partial(self, k6_library):
        path = trace_path("partial")
        path.write_bytes(bytes(64))
        return path

    def test_ls_lists_every_entry_and_exits_1(self, partial, capsys):
        assert main(["trace", "ls"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        good, broken = captured.out.splitlines()
        assert good.startswith("trace:k6_sample  1020 records  k6  ")
        assert broken == (f"trace:partial  unreadable: {partial}: bad magic "
                          f"{bytes(4)!r} (not an .rtrc file)")

    @pytest.mark.parametrize("workload", [
        "trace:partial", "tracemix:partial+mcf", "tracemix:k6_sample+partial",
    ])
    def test_resolving_it_exits_2_before_anything_is_written(
            self, workload, partial, capsys, tmp_path, monkeypatch,
            no_simulation):
        monkeypatch.delenv("REPRO_NO_LEDGER")
        assert main(["bench", workload, "--refs", "800"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line == (f"unknown workload {workload!r}: {partial}: bad "
                        f"magic {bytes(4)!r} (not an .rtrc file)")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lib"]


class TestStats:
    def test_prints_nested_tree(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["stats", "libquantum", "--design", "das",
                     "--refs", "2500"]) == 0
        out = capsys.readouterr().out
        for section in ("[run]", "[core0]", "[caches]", "[controller]",
                        "[banks]", "[manager]", "[translation]",
                        "[migration]"):
            assert section in out

    def test_recalls_stats_from_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["stats", "libquantum", "--refs", "2500"]) == 0
        capsys.readouterr()
        # Second invocation is pure cache recall; the tree must survive.
        assert main(["stats", "libquantum", "--refs", "2500"]) == 0
        assert "[translation]" in capsys.readouterr().out

    def test_timeline_render_and_exports(self, capsys, tmp_path,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        assert main(["stats", "libquantum", "--refs", "2500",
                     "--timeline", "--timeline-csv", str(csv_path),
                     "--timeline-json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert "ipc" in out
        assert csv_path.read_text().startswith("index,")
        import json

        doc = json.loads(json_path.read_text())
        assert doc["num_windows"] == len(doc["windows"]) > 0


class TestCompare:
    def test_compare_prints_ranked_deltas(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["compare", "libquantum:das", "libquantum:standard",
                     "--refs", "2500"]) == 0
        out = capsys.readouterr().out
        assert "ranked stat deltas" in out
        assert "timeline divergence" in out

    def test_compare_rejects_unknown_design(self, capsys):
        assert main(["compare", "mcf:das", "mcf:warp"]) == 2
        assert "unknown design" in capsys.readouterr().err

    def test_compare_rejects_unknown_workload(self, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["compare", "nosuch:das", "mcf:das",
                     "--refs", "1000"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    @pytest.mark.parametrize("run_a, run_b, label_a", [
        ("trace:k6_sample:das", "trace:k6_sample:standard",
         "trace:k6_sample:das"),
        ("trace:k6_sample", "trace:k6_sample:standard",
         "trace:k6_sample:das"),
        ("tracemix:k6_sample+mcf:das", "tracemix:k6_sample+mcf:standard",
         "tracemix:k6_sample+mcf:das"),
    ], ids=["trace-design", "trace-default-design", "tracemix-design"])
    def test_design_follows_the_last_colon(self, run_a, run_b, label_a,
                                           k6_library, capsys):
        # The ':' that ends a trace: or tracemix: prefix is the
        # workload's; the design defaults to das.
        assert main(["compare", run_a, run_b, "--refs", "1000"]) == 0
        out = capsys.readouterr().out
        assert label_a in out and run_b in out

    def test_unknown_design_after_the_last_colon(self, k6_library, capsys):
        assert main(["compare", "trace:k6_sample:das", "mcf:warp",
                     "--refs", "1000"]) == 2
        assert "unknown design 'warp'" in capsys.readouterr().err


class TestUnknownWorkload:
    @pytest.mark.parametrize("argv", [
        ["bench", "nosuch"],
        ["stats", "nosuch"],
        ["events", "nosuch", "--out", "events.json"],
        ["compare", "mcf:das", "nosuch:das", "--refs", "1000"],
    ], ids=["bench", "stats", "events", "compare"])
    def test_exits_2_before_anything_is_written(self, argv, capsys,
                                                tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        monkeypatch.delenv("REPRO_NO_LEDGER")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("unknown workload 'nosuch'")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestShortTrace:
    """A run in which every core replays a file whose warm-up covers
    every record is refused before any key, plan or simulation exists."""

    def test_run_workload_raises_and_stores_nothing(self, k6_library,
                                                    tmp_path):
        from repro.sim.runner import TraceTooShort, run_workload

        with pytest.raises(TraceTooShort, match="holds 1020 records, not "
                           "more than the 1200-reference warm-up"):
            run_workload("trace:k6_sample", references=6000)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lib"]

    @pytest.mark.parametrize("argv", [
        ["bench", "trace:k6_sample", "--refs", "6000"],
        ["stats", "trace:k6_sample", "--refs", "6000"],
        ["events", "trace:k6_sample", "--refs", "6000", "--out", "e.json"],
    ], ids=["bench", "stats", "events"])
    def test_cli_exits_2_before_anything_is_written(self, argv, k6_library,
                                                    capsys, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_NO_LEDGER")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("trace:k6_sample holds 1020 records")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lib"]

    @pytest.mark.parametrize("argv", [
        ["bench", MIX, "--refs", "20000"],
        ["stats", MIX, "--refs", "20000", "--timeline"],
        ["events", MIX, "--refs", "20000", "--out", "e.json"],
        ["compare", f"{MIX}:das", f"{MIX}:standard", "--refs", "20000"],
    ], ids=["bench", "stats", "events", "compare"])
    def test_all_short_tracemix_exits_2(self, argv, k6_library, capsys,
                                        tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_NO_LEDGER")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line == (f"{MIX} has members of 1020, 1020 records, not more "
                        f"than the 4000-reference warm-up (20%) of a "
                        f"20000-reference run, which would measure nothing")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lib"]

    @pytest.mark.parametrize("workload, refs", [
        (MIX, 5000), ("tracemix:k6_sample+mcf", 20000),
        ("tracemix:k6_sample+mcf", 800)])
    def test_a_tracemix_that_measures_something_is_not_refused(
            self, workload, refs, k6_library):
        run_cache_key(workload, references=refs)

    def test_tracemix_with_a_short_member_still_runs(self, k6_library):
        from repro.sim.runner import run_workload

        metrics = run_workload("tracemix:k6_sample+mcf", references=6000,
                               use_cache=False)
        assert len(metrics.ipc) == 2

    def test_import_suggests_the_record_count(self, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
        assert main(["trace", "import", str(K6_SAMPLE)]) == 0
        out = capsys.readouterr().out
        assert "run it: repro bench trace:k6_sample --refs 1020\n" in out


class TestCorruptTrace:
    """A library file whose block does not decode fails its run with one
    line naming the file and the block, and nothing is stored."""

    @pytest.fixture
    def corrupt(self, k6_library):
        data = bytearray(trace_path("k6_sample").read_bytes())
        for offset in range(64, 84):  # the head of block 0's zlib stream
            data[offset] ^= 0xFF
        path = trace_path("k6bad")
        path.write_bytes(bytes(data))
        return path

    @pytest.mark.parametrize("argv", [
        ["bench", "trace:k6bad", "--refs", "800"],
        ["stats", "trace:k6bad", "--refs", "800"],
        ["events", "trace:k6bad", "--refs", "800", "--out", "e.json"],
        ["compare", "trace:k6bad:das", "trace:k6bad:standard",
         "--refs", "800"],
    ], ids=["bench", "stats", "events", "compare"])
    def test_exits_2_and_stores_nothing(self, argv, corrupt, capsys,
                                        tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_NO_LEDGER")
        assert main(argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"{corrupt}: corrupt block 0: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lib"]


class TestEvents:
    def test_writes_chrome_trace(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        out_path = tmp_path / "trace.json"
        assert main(["events", "libquantum", "--refs", "2500",
                     "--out", str(out_path), "--timeline", "5"]) == 0
        out = capsys.readouterr().out
        # Satellite: the cache-bypass behaviour must be announced.
        assert "bypasses the result cache" in out
        assert "events retained" in out
        doc = json.loads(out_path.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "M" in phases          # lane metadata present
        assert phases & {"X", "i"}    # and actual events


class TestRunLogJson:
    def test_log_json_writes_summary(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        log_path = tmp_path / "run.jsonl"
        assert main(["run", "fig7b", "--refs", "1200",
                     "--log-json", str(log_path)]) == 0
        events = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert events[-1]["event"] == "summary"
        assert events[-1]["executed"] + events[-1]["cache_hits"] > 0
        assert any(e["event"] == "run" for e in events)


class TestBench:
    def test_bench_small_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["bench", "libquantum", "--design", "standard",
                     "--refs", "2000"]) == 0
        out = capsys.readouterr().out
        assert "mpki" in out
        assert "libquantum" in out

    def test_bench_rejects_bad_design(self):
        with pytest.raises(SystemExit):
            main(["bench", "mcf", "--design", "warp"])
