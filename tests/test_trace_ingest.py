"""Tests for real-trace ingestion: k6/mase/native parsing, .rtrc
round-trips, the trace library, and file-backed workload wiring."""

import gzip

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.trace import library
from repro.trace.ingest import (
    TraceFormatError,
    TraceRecord,
    detect_format,
    parse_trace,
    sniff_format,
)
from repro.trace.library import (
    UnknownWorkload,
    build_workload_traces,
    default_name,
    import_trace,
    list_traces,
    open_trace,
    resolve_workload,
    trace_dir,
    trace_path,
    workload_cache_token,
    workload_shape,
)
from repro.trace.record import write_trace
from repro.trace.rtrc import RtrcReader, records_to_accesses, write_rtrc


def _write(path, lines, compress=False):
    opener = gzip.open if compress else open
    with opener(path, "wt") as stream:
        stream.write("\n".join(lines) + "\n")
    return str(path)


K6_LINES = [
    "0x1000 P_MEM_RD 10",
    "# a comment",
    "",
    "0x2040 P_MEM_WR 25",
    "0x1000 P_FETCH 25",
    "deadbeef P_LOCK_WR 90",
]
MASE_LINES = [
    "1000 IFETCH 5",
    "2a40 MEMRD 11",
    "2a80 MEMWR 12",
]


class TestParsing:
    def test_parse_k6(self, tmp_path):
        path = _write(tmp_path / "k6_demo.trc", K6_LINES)
        records = list(parse_trace(path))
        assert records == [
            TraceRecord(10, 0x1000, False),
            TraceRecord(25, 0x2040, True),
            TraceRecord(25, 0x1000, False),
            TraceRecord(90, 0xDEADBEEF, True),
        ]

    def test_parse_mase_gzip(self, tmp_path):
        path = _write(tmp_path / "mase_demo.trc.gz", MASE_LINES,
                      compress=True)
        records = list(parse_trace(path))
        assert [r.is_write for r in records] == [False, False, True]
        assert records[0].address == 0x1000

    def test_gzip_detected_by_magic_not_extension(self, tmp_path):
        path = _write(tmp_path / "k6_mislabelled.trc", K6_LINES,
                      compress=True)
        assert len(list(parse_trace(path))) == 4

    def test_detect_by_prefix(self, tmp_path):
        path = _write(tmp_path / "mase_art.trc", K6_LINES)
        # Prefix wins over content: the DRAMSim2 convention.
        assert detect_format(path) == "mase"

    def test_detect_by_content(self, tmp_path):
        path = _write(tmp_path / "unlabelled.trc", MASE_LINES)
        assert detect_format(path) == "mase"
        assert sniff_format(path) == "mase"

    def test_undetectable_format_rejected_loudly(self, tmp_path):
        path = _write(tmp_path / "mystery.trc", ["0x10 LOAD 5"])
        with pytest.raises(TraceFormatError) as excinfo:
            detect_format(path)
        message = str(excinfo.value)
        assert "cannot determine trace format" in message
        assert "k6" in message and "mase" in message

    def test_count_and_detect(self, tmp_path):
        path = _write(tmp_path / "k6_demo.trc", K6_LINES)
        assert detect_format(path) == "k6"
        assert len(list(parse_trace(path))) == 4

    def test_detect_native_by_content(self, tmp_path):
        path = _write(tmp_path / "dump.trc", ["# repro trace dump",
                                              "22 0x10b5c40 W", "3 0x40 R"])
        assert detect_format(path) == "native"
        assert list(parse_trace(path)) == [
            TraceRecord(22, 0x10B5C40, True), TraceRecord(26, 0x40, False)]


class TestMalformedTraces:
    def test_truncated_gzip(self, tmp_path):
        good = _write(tmp_path / "k6_good.trc.gz",
                      [f"{i:x} P_MEM_RD {i}" for i in range(200)],
                      compress=True)
        data = open(good, "rb").read()
        bad = tmp_path / "k6_trunc.trc.gz"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError, match="truncated or corrupt"):
            list(parse_trace(str(bad)))

    def test_out_of_order_cycles(self, tmp_path):
        path = _write(tmp_path / "k6_bad.trc",
                      ["0x10 P_MEM_RD 50", "0x20 P_MEM_RD 49"])
        with pytest.raises(TraceFormatError, match="runs backwards"):
            list(parse_trace(path))

    def test_non_hex_address(self, tmp_path):
        path = _write(tmp_path / "k6_bad.trc", ["xyzzy P_MEM_RD 1"])
        with pytest.raises(TraceFormatError, match="not a hex"):
            list(parse_trace(path))

    def test_unknown_command(self, tmp_path):
        path = _write(tmp_path / "k6_bad.trc", ["0x10 MEMRD 1"])
        with pytest.raises(TraceFormatError, match="unknown k6 command"):
            list(parse_trace(path))

    def test_wrong_field_count(self, tmp_path):
        path = _write(tmp_path / "k6_bad.trc", ["0x10 P_MEM_RD"])
        with pytest.raises(TraceFormatError, match="expected"):
            list(parse_trace(path))

    def test_non_decimal_cycle(self, tmp_path):
        path = _write(tmp_path / "k6_bad.trc", ["0x10 P_MEM_RD ten"])
        with pytest.raises(TraceFormatError, match="not a decimal"):
            list(parse_trace(path))

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path / "k6_empty.trc", [""])
        with pytest.raises(TraceFormatError, match="no records"):
            write_rtrc(parse_trace(path), tmp_path / "t.rtrc")
        with pytest.raises(TraceFormatError, match="no records"):
            detect_format(_write(tmp_path / "empty.trc", ["# nothing"]))

    def test_import_rejects_malformed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
        path = _write(tmp_path / "k6_bad.trc", ["0x10 P_MEM_RD ten"])
        with pytest.raises(TraceFormatError):
            import_trace(path)
        # A failed import leaves no partial file in the library.
        assert list_traces() == []


records_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=500),  # cycle delta
        st.integers(min_value=0, max_value=(1 << 40) - 1),  # address
        st.booleans(),
    ),
    min_size=1, max_size=400,
)


class TestRtrcRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(deltas=records_strategy,
           block_records=st.integers(min_value=1, max_value=64))
    def test_round_trip_identical(self, tmp_path_factory, deltas,
                                  block_records):
        tmp_path = tmp_path_factory.mktemp("rtrc")
        cycle = 0
        records = []
        for delta, address, is_write in deltas:
            cycle += delta
            records.append(TraceRecord(cycle, address, is_write))
        path = tmp_path / "t.rtrc"
        info = write_rtrc(iter(records), path, source_format="k6",
                          block_records=block_records)
        assert info["records"] == len(records)
        assert list(RtrcReader(path)) == records

    def test_random_access_blocks(self, tmp_path):
        records = [TraceRecord(i * 3, i * 64, i % 7 == 0)
                   for i in range(1000)]
        path = tmp_path / "t.rtrc"
        write_rtrc(iter(records), path, block_records=100)
        reader = RtrcReader(path)
        assert len(reader.blocks) == 10
        assert reader.read_block(4) == records[400:500]
        assert reader.read_block(9) == records[900:]
        assert list(reader) == records

    def test_empty_stream_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="no records"):
            write_rtrc(iter([]), tmp_path / "t.rtrc")

    def test_backwards_cycles_rejected(self, tmp_path):
        records = [TraceRecord(10, 0, False), TraceRecord(5, 64, False)]
        with pytest.raises(TraceFormatError, match="backwards"):
            write_rtrc(iter(records), tmp_path / "t.rtrc")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.rtrc"
        path.write_bytes(b"NOPE" + b"\0" * 100)
        with pytest.raises(TraceFormatError, match="bad magic"):
            RtrcReader(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "t.rtrc"
        path.write_bytes(b"RTRC\x01")
        with pytest.raises(TraceFormatError, match="too short"):
            RtrcReader(path)

    def test_content_hash_independent_of_container(self, tmp_path):
        lines_k6 = ["40 P_MEM_RD 5", "80 P_MEM_WR 9"]
        lines_mase = ["40 MEMRD 5", "80 MEMWR 9"]
        a = _write(tmp_path / "k6_a.trc", lines_k6)
        b = _write(tmp_path / "mase_b.trc.gz", lines_mase, compress=True)
        info_a = write_rtrc(parse_trace(a), tmp_path / "a.rtrc",
                            block_records=1)
        info_b = write_rtrc(parse_trace(b), tmp_path / "b.rtrc",
                            block_records=64)
        assert info_a["content_hash"] == info_b["content_hash"]

    def test_gap_conversion(self):
        records = [TraceRecord(10, 100, False), TraceRecord(11, 200, True),
                   TraceRecord(20, 300, False)]
        accesses = list(records_to_accesses(records))
        assert accesses == [(0, 100, False), (0, 200, True), (8, 300, False)]

    def test_address_wrapping(self):
        records = [TraceRecord(0, 1000, False)]
        assert list(records_to_accesses(records, wrap_bytes=256)) == [
            (0, 1000 % 256, False)]


@pytest.fixture
def trace_lib(tmp_path, monkeypatch):
    """An isolated trace library holding one imported k6 trace."""
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
    lines = [f"{(i * 4096) % (1 << 22):x} P_MEM_RD {i * 7}"
             for i in range(2000)]
    source = _write(tmp_path / "k6_unit.trc.gz", lines, compress=True)
    info = import_trace(source)
    return info


class TestLibrary:
    def test_default_name(self):
        assert default_name("traces/k6_stream.trc.gz") == "k6_stream"
        assert default_name("mase_art.trace") == "mase_art"
        assert default_name("plain") == "plain"

    def test_import_and_open(self, trace_lib):
        assert trace_lib["name"] == "k6_unit"
        assert list_traces() == ["k6_unit"]
        reader = open_trace("k6_unit")
        assert reader.records_total == 2000
        assert reader.content_hash == trace_lib["content_hash"]

    def test_open_missing_is_loud(self, trace_lib):
        with pytest.raises(KeyError, match="no imported trace"):
            open_trace("nope")

    def test_name_collision_with_synthetic_rejected(self, trace_lib,
                                                    tmp_path):
        source = _write(tmp_path / "k6_x.trc", K6_LINES)
        with pytest.raises(ValueError, match="collides"):
            import_trace(source, name="mcf")

    def test_invalid_name_rejected(self, trace_lib, tmp_path):
        source = _write(tmp_path / "k6_x.trc", K6_LINES)
        with pytest.raises(ValueError, match="invalid trace name"):
            import_trace(source, name="a+b")

    def test_reimport_rtrc_file(self, trace_lib, tmp_path, monkeypatch):
        from repro.trace.library import trace_path

        rtrc = trace_path("k6_unit")
        info = import_trace(rtrc, name="copy")
        assert info["content_hash"] == trace_lib["content_hash"]

    def test_cache_token(self, trace_lib):
        token = workload_cache_token("trace:k6_unit")
        assert token == "@" + trace_lib["content_hash"][:12]
        assert workload_cache_token("mcf") == ""
        mix_token = workload_cache_token("tracemix:k6_unit+mcf")
        assert mix_token == token  # synthetic member adds nothing

    def test_resolve_shape(self, trace_lib):
        assert workload_shape("trace:k6_unit") == (1, 2000)
        assert workload_shape("trace:k6_unit", 500) == (1, 500)
        assert workload_shape("tracemix:k6_unit+mcf+milc") == (3, 150_000)
        assert workload_shape("mcf") == (1, 300_000)
        assert workload_shape("M1") == (4, 150_000)

    def test_mix_members_validation(self):
        with pytest.raises(UnknownWorkload, match="at least two"):
            resolve_workload("tracemix:solo")

    def test_build_workload_traces_partitions(self, trace_lib):
        capacity = 1 << 20
        traces = build_workload_traces("tracemix:k6_unit+mcf", 1, capacity)
        assert len(traces) == 2
        region = capacity // 2
        first = [next(traces[0]) for _ in range(50)]
        second = [next(traces[1]) for _ in range(50)]
        assert all(0 <= a[1] < region for a in first)
        assert all(region <= a[1] < capacity for a in second)

    def test_unknown_mix_member_is_loud(self, trace_lib):
        with pytest.raises(KeyError, match="no imported trace"):
            list(build_workload_traces("tracemix:k6_unit+nope", 1, 1 << 20)[1])


class TestRunnerIntegration:
    def test_run_workload_and_cache_key(self, trace_lib, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.sim.runner import run_cache_key, run_workload

        key = run_cache_key("trace:k6_unit", references=800)
        assert f"k6_unit@{trace_lib['content_hash'][:12]}" in key
        metrics = run_workload("trace:k6_unit", "das", references=800)
        # RunMetrics.references counts the measured (post-warmup) window.
        assert metrics.workload == "trace:k6_unit"
        assert 0 < metrics.references <= 800
        again = run_workload("trace:k6_unit", "das", references=800)
        assert again.to_dict() == metrics.to_dict()

    def test_runspec_cache_key_carries_hash(self, trace_lib):
        from repro.exec.plan import RunSpec

        spec = RunSpec("trace:k6_unit", "das", 800)
        assert trace_lib["content_hash"][:12] in spec.cache_key()

    def test_run_trace_file_rtrc(self, trace_lib):
        from repro.sim.runner import run_workload

        metrics = run_workload("trace:k6_unit", references=500,
                               use_cache=False)
        assert 0 < metrics.references <= 500
        assert metrics.workload == "trace:k6_unit"


class TestCli:
    def test_import_info_ls(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
        from repro.cli import main

        source = _write(tmp_path / "k6_cli.trc", K6_LINES)
        assert main(["trace", "import", source]) == 0
        out = capsys.readouterr().out
        assert "imported" in out and "trace:k6_cli" in out
        assert main(["trace", "ls"]) == 0
        assert "trace:k6_cli" in capsys.readouterr().out
        assert main(["trace", "info", "k6_cli"]) == 0
        assert "content_hash" in capsys.readouterr().out

    def test_import_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
        from repro.cli import main

        source = _write(tmp_path / "mystery.trc", ["0x10 LOAD 5"])
        assert main(["trace", "import", source]) == 2
        assert "cannot determine trace format" in capsys.readouterr().err


#: The device every replay folds at.
CAPACITY = SystemConfig().geometry.capacity_bytes


class TestNativeImport:
    """``repro trace dump`` output imports as a ``native`` trace that
    replays exactly as written, except its first gap."""

    @settings(max_examples=25, deadline=None)
    @given(accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**6),
                  st.integers(min_value=0, max_value=CAPACITY - 1),
                  st.booleans()),
        min_size=1, max_size=2000),
        seed=st.integers(min_value=0, max_value=2**32))
    def test_dump_imports_and_replays_as_written(self, tmp_path_factory,
                                                 accesses, seed):
        tmp_path = tmp_path_factory.mktemp("native")
        with open(tmp_path / "t.trc", "w") as stream:
            write_trace(accesses, stream)
        with gzip.open(tmp_path / "t.trc.gz", "wt") as stream:
            write_trace(accesses, stream)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
            plain = import_trace(tmp_path / "t.trc", name="plain")
            packed = import_trace(tmp_path / "t.trc.gz", name="packed")
            replay, = build_workload_traces("trace:plain", seed, CAPACITY)
            replayed = list(replay)
        assert plain["content_hash"] == packed["content_hash"]
        assert plain["source_format"] == packed["source_format"] == "native"
        assert plain["records"] == packed["records"] == len(accesses)
        assert replayed == [(0, *accesses[0][1:]), *accesses[1:]]


class TestFailedImport:
    """An import writes beside the library entry and renames into place,
    so a failure leaves the library as it was."""

    @pytest.fixture
    def app(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        source = _write(tmp_path / "k6_app.trc",
                        [f"{i * 4096:x} P_MEM_RD {i * 7}" for i in range(500)])
        import_trace(source, name="app")
        return trace_path("app").read_bytes()

    def test_failed_reimport_keeps_the_old_trace(self, app, tmp_path,
                                                 capsys):
        from repro.cli import main

        bad = _write(tmp_path / "bad_k6.trc",
                     ["0x40 P_MEM_RD 10", "zzz P_MEM_RD 20"])
        assert main(["trace", "import", bad, "--name", "app",
                     "--format", "k6"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (f"import failed: {bad}:2: address 'zzz' is not a "
                        f"hex number")
        assert sorted(p.name for p in trace_dir().iterdir()) == ["app.rtrc"]
        assert trace_path("app").read_bytes() == app
        assert main(["bench", "trace:app", "--refs", "400"]) == 0

    @pytest.mark.parametrize("name", ["app", "other"])
    def test_interrupted_parse_leaves_no_file(self, name, app, tmp_path,
                                              monkeypatch):
        def interrupted(path, fmt=None):
            yield from list(parse_trace(path, fmt))[:5000]
            raise KeyboardInterrupt

        monkeypatch.setattr(library, "parse_trace", interrupted)
        source = _write(tmp_path / "k6_big.trc",
                        [f"{i * 64:x} P_MEM_WR {i}" for i in range(9000)])
        with pytest.raises(KeyboardInterrupt):
            import_trace(source, name=name)
        assert sorted(p.name for p in trace_dir().iterdir()) == ["app.rtrc"]
        assert trace_path("app").read_bytes() == app
