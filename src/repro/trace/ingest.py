"""Trace ingestion: DRAMSim2's ``k6`` and ``mase`` formats, and the
``native`` text that ``repro trace dump`` writes.

The DRAMSim2 formats are line-oriented text, one memory request per
line::

    <address> <command> <cycle>

``k6`` (the format DRAMSim2 recommends) uses ``P_MEM_RD`` / ``P_MEM_WR``
style commands; ``mase`` uses ``IFETCH`` / ``MEMRD`` / ``MEMWR``.  The
two are otherwise identical: a hex request address, a command token and
a non-decreasing CPU cycle stamp.  ``native`` lines are ``<gap>
<address> R|W`` (:func:`repro.trace.record.read_trace`); each gap
becomes a cycle stamp, so the records replay as written except the
first, which replays with gap 0.  Real trace archives ship gzipped, so
every reader here is gzip-transparent (magic-sniffed, not
extension-guessed).

Parsing is *loud*: anything that is not a well-formed trace — an
unknown command, a non-hex address, a cycle that runs backwards, a
field of 2^64 or more, a truncated gzip stream, an empty file — raises
:class:`TraceFormatError` with the offending line number.  The
historical DRAMSim2 pitfall of keying the parser off a filename prefix
and silently misparsing everything else (see SNIPPETS.md) is
specifically rejected:
:func:`detect_format` falls back to content sniffing and raises when
neither the name nor the first data line identifies a format.

The streaming output is an iterator of :class:`TraceRecord`; feed it to
:func:`repro.trace.rtrc.write_rtrc` to produce the repo's compact
random-access on-disk form.
"""

from __future__ import annotations

import gzip
import io
import os
from typing import IO, Dict, Iterator, NamedTuple, Optional

#: Map of command token -> is_write, per source format.
K6_COMMANDS: Dict[str, bool] = {
    "P_MEM_RD": False,
    "P_FETCH": False,
    "P_LOCK_RD": False,
    "P_MEM_WR": True,
    "P_LOCK_WR": True,
}
MASE_COMMANDS: Dict[str, bool] = {
    "IFETCH": False,
    "MEMRD": False,
    "MEMWR": True,
}

#: The DRAMSim2 source formats and their command vocabularies.
FORMATS: Dict[str, Dict[str, bool]] = {
    "k6": K6_COMMANDS,
    "mase": MASE_COMMANDS,
}

#: The format of ``repro trace dump`` output (``gap address R|W``).
NATIVE = "native"

#: Prefixes of a comment line.
_COMMENTS = ("#", "//", ";")

#: Every trace field is an unsigned 64-bit number: values reach up to
#: ``FIELD_LIMIT - 1``, as in DRAMSim2's ``uint64_t`` cycles and
#: addresses and the ``.rtrc`` index.
FIELD_LIMIT = 1 << 64


class TraceFormatError(ValueError):
    """A trace file is malformed or its format cannot be determined."""


class TraceRecord(NamedTuple):
    """One parsed trace request: (cpu cycle, byte address, is_write)."""

    cycle: int
    address: int
    is_write: bool


def _strip_gz(name: str) -> str:
    """Drop a trailing ``.gz`` so prefix detection sees the real name."""
    return name[:-3] if name.endswith(".gz") else name


def open_trace(path: str) -> IO[str]:
    """Open a trace file for text reading, transparently un-gzipping.

    The gzip decision is made from the magic bytes, not the extension,
    so a mislabelled ``.trc`` that is really gzipped still opens.
    """
    raw = open(path, "rb")
    try:
        magic = raw.read(2)
        raw.seek(0)
    except OSError:
        raw.close()
        raise
    if magic == b"\x1f\x8b":
        return io.TextIOWrapper(gzip.GzipFile(fileobj=raw),
                                encoding="utf-8", errors="replace")
    return io.TextIOWrapper(raw, encoding="utf-8", errors="replace")


def _classify_command(token: str) -> Optional[str]:
    """The format owning a command token (None when neither does)."""
    for fmt, commands in FORMATS.items():
        if token in commands:
            return fmt
    return None


def _gzip_error(path: str, near: str, error: Exception) -> TraceFormatError:
    return TraceFormatError(
        f"{path}: truncated or corrupt gzip stream near {near}: {error}")


def sniff_format(path: str) -> Optional[str]:
    """Detect the format from the first data line.

    ``native`` when it reads ``<gap> <address> R|W``, otherwise the
    format whose vocabulary holds its command token; ``None`` when no
    format matches.  A file with no data line raises
    :class:`TraceFormatError`; an ``OSError`` from opening the file
    propagates.
    """
    line_number = 0
    try:
        with open_trace(path) as stream:
            for line_number, line in enumerate(stream, start=1):
                parts = line.split()
                if not parts or parts[0].startswith(_COMMENTS):
                    continue
                if len(parts) == 3 and parts[2] in ("R", "W"):
                    return NATIVE
                if len(parts) < 2:
                    return None
                return _classify_command(parts[1])
    except (EOFError, gzip.BadGzipFile) as error:
        raise _gzip_error(path, f"line {line_number}", error) from error
    raise TraceFormatError(f"{path}: trace contains no records")


def detect_format(path: str) -> str:
    """Determine a trace file's format, loudly.

    Detection order follows the DRAMSim2 convention first — a basename
    starting with ``k6`` or ``mase`` — then falls back to sniffing the
    first data line (:func:`sniff_format`).  When neither identifies a
    format the file is rejected with :class:`TraceFormatError` rather
    than being misparsed under a guessed vocabulary.
    """
    base = _strip_gz(os.path.basename(path)).lower()
    for fmt in FORMATS:
        if base.startswith(fmt):
            return fmt
    sniffed = sniff_format(path)
    if sniffed is not None:
        return sniffed
    raise TraceFormatError(
        f"cannot determine trace format of {path!r}: the basename does "
        f"not start with {' or '.join(FORMATS)} and the first data line "
        f"is neither '<gap> <address> R|W' ('repro trace dump' output) "
        f"nor carries a known command token (k6: "
        f"{', '.join(K6_COMMANDS)}; mase: {', '.join(MASE_COMMANDS)}).  "
        f"Rename the file or pass the format explicitly (e.g. 'repro "
        f"trace import --format k6').")


#: How :func:`parse_unsigned` names the number a token failed to be.
_BASE_NAMES = {0: "an integer", 10: "a decimal number", 16: "a hex number"}


def parse_unsigned(token: str, base: int, what: str, path: str,
                   line_number: int) -> int:
    """One unsigned 64-bit field of a trace line, parsed in ``base``; a
    :class:`TraceFormatError` naming ``path:line_number`` otherwise."""
    try:
        value = int(token, base)
    except ValueError:
        raise TraceFormatError(
            f"{path}:{line_number}: {what} {token!r} is not "
            f"{_BASE_NAMES[base]}") from None
    if value < 0:
        raise TraceFormatError(
            f"{path}:{line_number}: {what} {token!r} is negative")
    if value >= FIELD_LIMIT:
        raise TraceFormatError(
            f"{path}:{line_number}: {what} {token!r} does not fit in "
            f"64 bits")
    return value


def parse_trace(path: str, fmt: Optional[str] = None,
                ) -> Iterator[TraceRecord]:
    """Stream :class:`TraceRecord`s from a k6, mase or native file (gzip
    ok).

    ``fmt`` forces a format; by default :func:`detect_format` decides.
    Raises :class:`TraceFormatError` on the first malformed line:
    unknown command, non-hex address, non-decimal or backwards-running
    cycle, wrong field count, or a truncated gzip container.  Blank
    lines and ``#``/``//``/``;`` comments are skipped.
    """
    if fmt is None:
        fmt = detect_format(path)
    if fmt == NATIVE:
        yield from _parse_native(path)
        return
    if fmt not in FORMATS:
        raise TraceFormatError(
            f"unknown trace format {fmt!r} (known: "
            f"{', '.join([*FORMATS, NATIVE])})")
    commands = FORMATS[fmt]
    previous_cycle = -1
    line_number = 0
    try:
        with open_trace(path) as stream:
            for line_number, line in enumerate(stream, start=1):
                parts = line.split()
                if not parts or parts[0].startswith(_COMMENTS):
                    continue
                if len(parts) != 3:
                    raise TraceFormatError(
                        f"{path}:{line_number}: expected "
                        f"'<address> <command> <cycle>', got {line.strip()!r}")
                address = parse_unsigned(parts[0], 16, "address", path,
                                         line_number)
                command = parts[1]
                if command not in commands:
                    raise TraceFormatError(
                        f"{path}:{line_number}: unknown {fmt} command "
                        f"{command!r} (known: {', '.join(commands)})")
                cycle = parse_unsigned(parts[2], 10, "cycle", path,
                                       line_number)
                if cycle < previous_cycle:
                    raise TraceFormatError(
                        f"{path}:{line_number}: cycle {cycle} runs "
                        f"backwards (previous record at cycle "
                        f"{previous_cycle}); traces must be "
                        f"non-decreasing in time")
                previous_cycle = cycle
                yield TraceRecord(cycle, address, commands[command])
    except (EOFError, gzip.BadGzipFile) as error:
        raise _gzip_error(path, f"line {line_number}", error) from error
    except UnicodeDecodeError as error:  # pragma: no cover - replace mode
        raise TraceFormatError(
            f"{path}: undecodable bytes near line {line_number}: "
            f"{error}") from error


def _parse_native(path: str) -> Iterator[TraceRecord]:
    """Records of a ``gap address R|W`` file: record *i* sits at cycle
    ``cycle_{i-1} + gap_i + 1`` (the first at its gap), so replay gives
    back every gap but the first, which replays as 0."""
    from .record import read_trace  # record imports this module

    cycle = -1
    count = 0
    try:
        with open_trace(path) as stream:
            for count, (gap, address, is_write) in enumerate(
                    read_trace(stream), start=1):
                cycle += gap + 1
                yield TraceRecord(cycle, address, is_write)
    except (EOFError, gzip.BadGzipFile) as error:
        raise _gzip_error(path, f"record {count}", error) from error
