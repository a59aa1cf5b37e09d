"""Recorded post-cache streams: walk the hierarchy once, replay its outcome.

The hierarchy is timing-free, so on one core the outcome of each
reference (the level it hits and the dirty lines it spills) depends
only on the trace and the hierarchy configuration, never on the DRAM
design behind them.
:func:`record_cache_stream` walks a fresh one-core
:class:`~repro.cache.hierarchy.CacheHierarchy` once and keeps every
reference with its outcome in compact read-only columns: the stream a
DRAMSim2 k6 trace holds.  A :class:`RecordedHierarchy` stands in for the
live hierarchy in any number of runs over that stream: it answers each
reference with its recorded outcome and counts outcomes for the
``[caches]`` statistics.  Writeback fills count no hits or misses in the
live caches, so those counts are exact.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Dict, Iterable, Iterator

from ..common.config import HierarchyConfig
from ..trace.record import AccessTuple
from .hierarchy import L1, L2, LLC, MEMORY, CacheHierarchy, caches_group

#: Levels in code order.  A reference's code is its level's index plus
#: four times the number of lines it spills (at most three: the L1
#: victim's chain into the LLC, the L2 victim and the LLC victim).
_LEVELS = (L1, L2, LLC, MEMORY)
_LEVEL_INDEX = {level: index for index, level in enumerate(_LEVELS)}
#: ``bytes.translate`` table from a code to its level index.
_CODE_LEVEL = bytes(code & 3 for code in range(256))


class CacheRecording:
    """One core's references and their outcomes, as read-only columns.

    ``gaps`` and ``addresses`` hold unsigned 64-bit values (the width of
    a DRAMSim2 cycle or address), ``writes`` 0 or 1, ``codes`` one byte
    per reference and ``writebacks`` the spilled line addresses of every
    reference in order.  A value outside its column's range raises
    ``OverflowError`` while recording; nothing wraps.
    """

    __slots__ = ("config", "gaps", "addresses", "writes", "codes",
                 "writebacks")

    def __init__(self, config: HierarchyConfig, gaps: array,
                 addresses: array, writes: array, codes: array,
                 writebacks: array) -> None:
        self.config = config
        self.gaps = memoryview(gaps).toreadonly()
        self.addresses = memoryview(addresses).toreadonly()
        self.writes = memoryview(writes).toreadonly()
        self.codes = memoryview(codes).toreadonly()
        self.writebacks = memoryview(writebacks).toreadonly()

    def __len__(self) -> int:
        return len(self.codes)

    def references(self) -> Iterator[AccessTuple]:
        """A fresh ``(gap, address, is_write)`` iterator over the stream
        (``is_write`` is 0 or 1)."""
        return zip(self.gaps, self.addresses, self.writes)

    def hierarchy(self) -> "RecordedHierarchy":
        """A fresh stand-in hierarchy positioned at the first reference."""
        return RecordedHierarchy(self)


def record_cache_stream(config: HierarchyConfig,
                        trace: Iterable[AccessTuple],
                        references: int) -> CacheRecording:
    """Walk the first ``references`` accesses of ``trace`` through a fresh
    one-core hierarchy and record each with its outcome.

    The per-reference columns are allocated once at ``references``
    entries and cut to the length recorded: grown by appends, they left
    about their own size again in freed heap, which stays resident.
    """
    access = CacheHierarchy(config, 1).access_tuple
    gaps = array("Q", [0]) * references
    addresses = array("Q", [0]) * references
    writes = array("B", [0]) * references
    codes = array("B", [0]) * references
    writebacks = array("Q")
    spill = writebacks.extend
    level_index = _LEVEL_INDEX
    recorded = 0
    for gap, address, is_write in islice(trace, references):
        level, _latency, _fill, spilled = access(0, address, is_write)
        gaps[recorded] = gap
        addresses[recorded] = address
        writes[recorded] = is_write
        if spilled:
            spill(spilled)
            codes[recorded] = level_index[level] | len(spilled) << 2
        else:
            codes[recorded] = level_index[level]
        recorded += 1
    for column in (gaps, addresses, writes, codes):
        del column[recorded:]
    return CacheRecording(config, gaps, addresses, writes, codes, writebacks)


class RecordedHierarchy:
    """A one-core :class:`~repro.cache.hierarchy.CacheHierarchy` stand-in
    that answers from a :class:`CacheRecording`.

    ``access_tuple`` must be called once per reference of
    :meth:`CacheRecording.references`, in order, as ``Core.advance``
    does; it returns what the live hierarchy returned for that
    reference.  Statistics count the codes between the last
    :meth:`reset_stats` and the current reference.
    """

    def __init__(self, recording: CacheRecording) -> None:
        config = recording.config
        self._codes = recording.codes
        self._writebacks = recording.writebacks
        #: References answered, writebacks handed out, and the reference
        #: count at the last statistics reset.
        self._position = 0
        self._spilled = 0
        self._reset_at = 0
        self._llc_latency = config.llc.latency_cycles
        self._line_align = ~(config.l1.line_bytes - 1)
        latencies = (config.l1.latency_cycles, config.l2.latency_cycles,
                     config.llc.latency_cycles)
        #: Outcomes of the L1, L2 and LLC hits that spill nothing.
        self._hits = tuple((level, latency, None, ())
                           for level, latency in zip(_LEVELS, latencies))

    def access_tuple(self, core: int, address: int, is_write: bool):
        """The recorded ``(level, latency_cycles, demand_fill,
        writebacks)`` of the next reference (``address`` gives the
        demand fill's line, as in the live hierarchy)."""
        position = self._position
        self._position = position + 1
        code = self._codes[position]
        if code < 3:
            return self._hits[code]
        if code == 3:
            return (MEMORY, self._llc_latency, address & self._line_align, ())
        start = self._spilled
        self._spilled = end = start + (code >> 2)
        writebacks = tuple(self._writebacks[start:end])
        level = code & 3
        if level == 3:
            return (MEMORY, self._llc_latency, address & self._line_align,
                    writebacks)
        hit = self._hits[level]
        return (hit[0], hit[1], None, writebacks)

    def _level_counts(self):
        """References per level (L1, L2, LLC, MEM) since the last reset."""
        window = self._codes[self._reset_at:self._position].tobytes()
        levels = window.translate(_CODE_LEVEL)
        return [levels.count(index) for index in range(len(_LEVELS))]

    def total_llc_misses(self) -> int:
        """Demand LLC misses since the last reset."""
        return self._level_counts()[3]

    def stats_group(self) -> Dict[str, Dict[str, object]]:
        """The live hierarchy's ``[caches]`` subtree: a reference probes
        L1, then L2 on an L1 miss, then the LLC on an L2 miss."""
        l1, l2, llc, memory = self._level_counts()
        return caches_group((("l1", l1, l2 + llc + memory),
                             ("l2", l2, llc + memory),
                             ("llc", llc, memory)), memory)

    def reset_stats(self) -> None:
        """Start counting at the current reference."""
        self._reset_at = self._position
