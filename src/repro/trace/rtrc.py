"""``.rtrc`` — the repo's compact random-access on-disk trace format.

Parsed k6, mase and native traces (see :mod:`repro.trace.ingest`) are
stored as a columnar, block-compressed file so that
multi-hundred-megabyte text traces become a few megabytes on disk and
replay with bounded memory: readers hold one decoded block at a time,
and the block index makes any block reachable without scanning.

Layout (all integers little-endian; full byte-by-byte spec in
``docs/TRACES.md``)::

    offset  size  field
    0       4     magic b"RTRC"
    4       2     format version (currently 1)
    6       1     flags (reserved, 0)
    7       1     source format code (0 = k6, 1 = mase, 2 = native)
    8       4     records per block (the last block may be short)
    12      4     block count
    16      8     total record count
    24      8     byte offset of the block index
    32      32    sha256 of the canonical record stream
    64      ...   blocks (zlib streams), back to back
    index   32*n  one entry per block:
                    8  byte offset of the block's zlib stream
                    4  compressed size in bytes
                    4  records in this block
                    8  cycle of the block's first record
                    8  address of the block's first record

Each block's uncompressed payload is three concatenated sections over
its ``n`` records: cycle deltas (unsigned LEB128 varints, first record
relative to the index entry's ``first_cycle``, so every delta of a
valid trace is >= 0), address deltas (zigzag LEB128 varints relative to
``first_address``: a delta ``d >= 0`` is stored as ``2d``, a ``d < 0``
as ``-2d - 1``), and an ``is_write`` bitmap (``ceil(n / 8)`` bytes,
record *i* at bit ``i & 7`` of byte ``i >> 3``).  A block decodes from
its index entry alone — no other block needs to be touched.

The sha256 **content hash** is computed over the canonical text form of
every record (``"<cycle:x> <address:x> <w>\\n"``), *not* over the
compressed bytes: two imports of the same requests hash identically
regardless of source format, gzip container or block size.  The runner
folds this hash into its cache key, so file-backed results are
content-addressed exactly like synthetic ones (DESIGN.md §13).
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional

from .ingest import FIELD_LIMIT, TraceFormatError, TraceRecord

#: File magic and current format version.
MAGIC = b"RTRC"
VERSION = 1

#: Default records per block: small enough that a decoded block is a
#: few hundred KB, large enough that zlib sees real redundancy.
DEFAULT_BLOCK_RECORDS = 4096

#: Source-format codes stored in the header.
SOURCE_CODES = {"k6": 0, "mase": 1, "native": 2}
SOURCE_NAMES = {code: name for name, code in SOURCE_CODES.items()}

_HEADER = struct.Struct("<4sHBBIIQQ32s")
_INDEX_ENTRY = struct.Struct("<QIIQQ")
assert _HEADER.size == 64
assert _INDEX_ENTRY.size == 32


class BlockInfo(NamedTuple):
    """One block-index entry (everything needed to decode the block)."""

    offset: int
    compressed_size: int
    records: int
    first_cycle: int
    first_address: int


def _write_varint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _zigzag(value: int) -> int:
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) if (value & 1) == 0 else -((value + 1) >> 1)


def _read_varints(data: bytes, start: int, count: int) -> "tuple":
    """Decode ``count`` LEB128 varints from ``data`` at ``start``."""
    values = []
    append = values.append
    position = start
    for _ in range(count):
        shift = 0
        value = 0
        while True:
            byte = data[position]
            position += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        append(value)
    return values, position


def _canonical_line(record: TraceRecord) -> bytes:
    return (f"{record.cycle:x} {record.address:x} "
            f"{1 if record.is_write else 0}\n").encode("ascii")


def _encode_block(block: List[TraceRecord]) -> bytes:
    """Compress one block of records into its on-disk payload."""
    cycles = bytearray()
    addresses = bytearray()
    bitmap = bytearray((len(block) + 7) // 8)
    previous_cycle = block[0].cycle
    previous_address = block[0].address
    for index, record in enumerate(block):
        delta = record.cycle - previous_cycle
        if delta < 0:
            raise TraceFormatError(
                f"record {index} of block runs backwards in time "
                f"(cycle {record.cycle} after {previous_cycle})")
        _write_varint(cycles, delta)
        _write_varint(addresses, _zigzag(record.address - previous_address))
        if record.is_write:
            bitmap[index >> 3] |= 1 << (index & 7)
        previous_cycle = record.cycle
        previous_address = record.address
    return zlib.compress(bytes(cycles) + bytes(addresses) + bytes(bitmap), 6)


def write_rtrc(records: Iterable[TraceRecord], path: "Path | str",
               source_format: str = "native",
               block_records: int = DEFAULT_BLOCK_RECORDS) -> Dict[str, object]:
    """Stream records into an ``.rtrc`` file; returns its info dict.

    Memory stays bounded at one block of records.  Raises
    :class:`TraceFormatError` on an empty record stream, on cycles that
    run backwards (defence in depth — the parsers already reject them)
    and on a cycle or address outside the unsigned 64-bit range (a
    native trace's cycles sum its gaps, so in-range fields can still
    overflow).  The header is back-patched last, so an interrupted write
    leaves a zero header that :class:`RtrcReader` refuses;
    :func:`repro.trace.library.import_trace` writes to a temporary file
    and renames it into place.
    """
    if block_records <= 0:
        raise ValueError("block_records must be positive")
    path = Path(path)
    source_code = SOURCE_CODES.get(source_format)
    if source_code is None:
        raise ValueError(f"unknown source format {source_format!r} "
                         f"(known: {', '.join(SOURCE_CODES)})")
    digest = hashlib.sha256()
    index: List[BlockInfo] = []
    total_records = 0
    previous_cycle: Optional[int] = None
    with path.open("wb") as stream:
        stream.write(b"\0" * _HEADER.size)
        block: List[TraceRecord] = []

        def flush() -> None:
            nonlocal total_records
            if not block:
                return
            payload = _encode_block(block)
            index.append(BlockInfo(stream.tell(), len(payload), len(block),
                                   block[0].cycle, block[0].address))
            stream.write(payload)
            total_records += len(block)
            block.clear()

        for record in records:
            record = TraceRecord(*record)
            if not (0 <= record.cycle < FIELD_LIMIT
                    and 0 <= record.address < FIELD_LIMIT):
                raise TraceFormatError(
                    f"record {total_records + len(block)}: cycle "
                    f"{record.cycle} or address {record.address:#x} does "
                    f"not fit in 64 bits")
            if previous_cycle is not None and record.cycle < previous_cycle:
                raise TraceFormatError(
                    f"record {total_records + len(block)}: cycle "
                    f"{record.cycle} runs backwards (previous "
                    f"{previous_cycle})")
            previous_cycle = record.cycle
            digest.update(_canonical_line(record))
            block.append(record)
            if len(block) >= block_records:
                flush()
        flush()
        if total_records == 0:
            raise TraceFormatError(
                f"refusing to write {path}: the trace contains no records")
        index_offset = stream.tell()
        for entry in index:
            stream.write(_INDEX_ENTRY.pack(*entry))
        stream.seek(0)
        stream.write(_HEADER.pack(MAGIC, VERSION, 0, source_code,
                                  block_records, len(index), total_records,
                                  index_offset, digest.digest()))
    return {
        "path": str(path),
        "records": total_records,
        "blocks": len(index),
        "block_records": block_records,
        "source_format": source_format,
        "content_hash": digest.hexdigest(),
        "file_bytes": path.stat().st_size,
    }


class RtrcReader:
    """Random-access streaming reader over one ``.rtrc`` file.

    The constructor reads only the 64-byte header and the block index;
    record decoding happens lazily, one block at a time, in
    :meth:`records`.
    """

    def __init__(self, path: "Path | str") -> None:
        self.path = Path(path)
        with self.path.open("rb") as stream:
            header = stream.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise TraceFormatError(
                    f"{self.path}: too short to be an .rtrc file")
            (magic, version, _flags, source_code, self.block_records,
             block_count, self.records_total, index_offset,
             self._hash) = _HEADER.unpack(header)
            if magic != MAGIC:
                raise TraceFormatError(
                    f"{self.path}: bad magic {magic!r} (not an .rtrc file)")
            if version != VERSION:
                raise TraceFormatError(
                    f"{self.path}: unsupported .rtrc version {version} "
                    f"(this build reads version {VERSION})")
            if self.records_total == 0 or block_count == 0:
                raise TraceFormatError(f"{self.path}: empty .rtrc file")
            stream.seek(index_offset)
            index_bytes = stream.read(_INDEX_ENTRY.size * block_count)
            if len(index_bytes) < _INDEX_ENTRY.size * block_count:
                raise TraceFormatError(
                    f"{self.path}: truncated block index "
                    f"({len(index_bytes)} bytes for {block_count} blocks)")
        self.source_format = SOURCE_NAMES.get(source_code, f"#{source_code}")
        self.blocks: List[BlockInfo] = [
            BlockInfo(*_INDEX_ENTRY.unpack_from(index_bytes, i))
            for i in range(0, len(index_bytes), _INDEX_ENTRY.size)]

    @property
    def content_hash(self) -> str:
        """Hex sha256 of the canonical record stream."""
        return self._hash.hex()

    def info(self) -> Dict[str, object]:
        """Header summary (the ``repro trace info`` payload)."""
        return {
            "path": str(self.path),
            "records": self.records_total,
            "blocks": len(self.blocks),
            "block_records": self.block_records,
            "source_format": self.source_format,
            "content_hash": self.content_hash,
            "file_bytes": self.path.stat().st_size,
            "first_cycle": self.blocks[0].first_cycle,
        }

    def read_block(self, block_index: int) -> List[TraceRecord]:
        """Decode one block by index (random access)."""
        if not 0 <= block_index < len(self.blocks):
            raise IndexError(
                f"block {block_index} out of range "
                f"(file has {len(self.blocks)})")
        entry = self.blocks[block_index]
        with self.path.open("rb") as stream:
            stream.seek(entry.offset)
            payload = stream.read(entry.compressed_size)
        if len(payload) < entry.compressed_size:
            raise TraceFormatError(
                f"{self.path}: truncated block {block_index}")
        try:
            data = zlib.decompress(payload)
        except zlib.error as error:
            raise TraceFormatError(
                f"{self.path}: corrupt block {block_index}: "
                f"{error}") from error
        count = entry.records
        cycle_deltas, position = _read_varints(data, 0, count)
        address_deltas, position = _read_varints(data, position, count)
        bitmap = data[position:position + ((count + 7) // 8)]
        records: List[TraceRecord] = []
        append = records.append
        cycle = entry.first_cycle
        address = entry.first_address
        for i in range(count):
            cycle += cycle_deltas[i]
            address += _unzigzag(address_deltas[i])
            if address < 0:
                raise TraceFormatError(
                    f"{self.path}: block {block_index} decodes to a "
                    f"negative address: an older import stored address "
                    f"deltas of 2^63 or more wrongly; import the source "
                    f"trace again")
            append(TraceRecord(
                cycle, address, bool(bitmap[i >> 3] & (1 << (i & 7)))))
        # Defensive: the first record's deltas are zero by construction,
        # so decoding must land exactly on the index entry's base values.
        if records and (records[0].cycle != entry.first_cycle
                        or records[0].address != entry.first_address):
            raise TraceFormatError(
                f"{self.path}: block {block_index} decodes inconsistently "
                f"with its index entry")
        return records

    def __iter__(self) -> Iterator[TraceRecord]:
        """Stream records block by block (bounded memory)."""
        for block_index in range(len(self.blocks)):
            yield from self.read_block(block_index)

    def __len__(self) -> int:
        return self.records_total


def records_to_accesses(records: Iterable[TraceRecord],
                        wrap_bytes: Optional[int] = None,
                        ) -> Iterator["tuple"]:
    """Convert trace records to the hot path's ``(gap, address, is_write)``.

    The instruction gap before a reference is derived from the cycle
    delta to its predecessor: ``gap = max(0, cycle - prev_cycle - 1)``
    (the reference itself accounts for one instruction; the first
    record replays with gap 0).  ``wrap_bytes`` folds addresses into
    ``[0, wrap_bytes)`` so traces recorded on machines with more
    physical memory than the simulated device still map to valid rows;
    the runner passes the device capacity (DESIGN.md §13 records the
    folding rule as part of the determinism contract).
    """
    previous_cycle: Optional[int] = None
    for cycle, address, is_write in records:
        gap = 0 if previous_cycle is None else max(0, cycle
                                                   - previous_cycle - 1)
        previous_cycle = cycle
        if wrap_bytes is not None:
            address %= wrap_bytes
        yield (gap, address, is_write)
