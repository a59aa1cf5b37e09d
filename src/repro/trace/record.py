"""Trace record model.

A workload trace is an iterable of *accesses*.  For speed the hot path uses
plain tuples ``(gap, address, is_write)``:

* ``gap`` — number of non-memory instructions executed before this access;
* ``address`` — byte address of the access;
* ``is_write`` — True for stores.

:class:`MemoryAccess` is the semantically named view used by tests, examples
and the on-disk format; it is itself a tuple so the two are interchangeable.
"""

from __future__ import annotations

from typing import IO, Iterable, Iterator, NamedTuple, Tuple

from .ingest import TraceFormatError, parse_unsigned

#: Type alias for the raw hot-path representation.
AccessTuple = Tuple[int, int, bool]


class MemoryAccess(NamedTuple):
    """One memory reference in a workload trace."""

    gap: int
    address: int
    is_write: bool


def write_trace(trace: Iterable[AccessTuple], stream: IO[str]) -> int:
    """Write a trace in the plain-text format ``gap address R|W`` per line.

    Returns the number of records written.
    """
    written = 0
    for gap, address, is_write in trace:
        stream.write(f"{gap} {address:#x} {'W' if is_write else 'R'}\n")
        written += 1
    return written


def read_trace(stream: IO[str]) -> Iterator[MemoryAccess]:
    """Parse the plain-text trace format produced by :func:`write_trace`.

    Parsing is loud: a line without three fields, a gap that is not a
    non-negative decimal integer, an address that is not a non-negative
    integer literal, a flag other than ``R``/``W`` or undecodable bytes
    raise :class:`~repro.trace.ingest.TraceFormatError` naming the line.
    """
    name = getattr(stream, "name", "<trace>")
    line_number = 0
    try:
        for line_number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[2] not in ("R", "W"):
                raise TraceFormatError(
                    f"{name}:{line_number}: expected 'gap address R|W', "
                    f"got {line!r}")
            yield MemoryAccess(
                parse_unsigned(parts[0], 10, "gap", name, line_number),
                parse_unsigned(parts[1], 0, "address", name, line_number),
                parts[2] == "W")
    except UnicodeDecodeError as error:
        raise TraceFormatError(
            f"{name}: undecodable bytes near line {line_number + 1}: "
            f"{error}") from error
