"""Unit tests for the trace record model and on-disk format."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trace.ingest import TraceFormatError
from repro.trace.record import (
    ADDR,
    GAP,
    IS_WRITE,
    MemoryAccess,
    materialize,
    read_trace,
    total_instructions,
    write_trace,
)

access_lists = st.lists(
    st.tuples(st.integers(0, 1000), st.integers(0, 2**40),
              st.booleans()),
    max_size=50,
)


class TestMemoryAccess:
    def test_is_tuple_compatible(self):
        access = MemoryAccess(3, 0x1000, True)
        assert access[GAP] == 3
        assert access[ADDR] == 0x1000
        assert access[IS_WRITE] is True

    def test_materialize(self):
        records = materialize([(1, 2, False), (3, 4, True)])
        assert records == [MemoryAccess(1, 2, False),
                           MemoryAccess(3, 4, True)]


class TestTotalInstructions:
    def test_counts_gaps_plus_accesses(self):
        trace = [(3, 0, False), (0, 64, True)]
        assert total_instructions(trace) == 5

    def test_empty(self):
        assert total_instructions([]) == 0


class TestTraceFile:
    def test_roundtrip(self):
        trace = [(5, 0x40, False), (0, 0x80, True)]
        buffer = io.StringIO()
        assert write_trace(trace, buffer) == 2
        buffer.seek(0)
        assert list(read_trace(buffer)) == materialize(trace)

    def test_skips_comments_and_blanks(self):
        buffer = io.StringIO("# header\n\n1 0x40 R\n")
        assert list(read_trace(buffer)) == [MemoryAccess(1, 0x40, False)]

    def test_rejects_malformed_line(self):
        buffer = io.StringIO("1 0x40\n")
        with pytest.raises(ValueError):
            list(read_trace(buffer))

    def test_rejects_bad_kind(self):
        buffer = io.StringIO("1 0x40 X\n")
        with pytest.raises(ValueError):
            list(read_trace(buffer))

    @pytest.mark.parametrize("line, message", [
        ("-50 0x40 R", "gap '-50' is negative"),
        ("1.5 0x40 R", "gap '1.5' is not a decimal number"),
        ("1 -0x40 R", "address '-0x40' is negative"),
        ("1 0xZZ R", "address '0xZZ' is not an integer"),
        ("1 0x40", "expected 'gap address R|W', got '1 0x40'"),
        ("1 0x40 X", "expected 'gap address R|W', got '1 0x40 X'"),
    ], ids=["negative-gap", "non-integer-gap", "negative-address",
            "unparsable-address", "field-count", "flag"])
    def test_malformed_line_is_named(self, line, message):
        buffer = io.StringIO(f"1 0x40 R\n{line}\n")
        with pytest.raises(TraceFormatError) as error:
            list(read_trace(buffer))
        assert str(error.value) == f"<trace>:2: {message}"

    @given(access_lists)
    def test_roundtrip_property(self, accesses):
        buffer = io.StringIO()
        write_trace(accesses, buffer)
        buffer.seek(0)
        assert list(read_trace(buffer)) == materialize(accesses)
