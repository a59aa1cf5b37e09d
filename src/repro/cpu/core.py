"""Trace-driven out-of-order core model.

The model substitutes Marss86 (see DESIGN.md): a 4-wide, 192-entry-ROB core
that exposes realistic memory-level parallelism.  Instructions are fetched
at ``issue_width`` per cycle; loads that miss to DRAM occupy the ROB until
their data returns, and the ROB's in-order retirement stalls fetch once the
window fills behind an outstanding miss.  Cache-hit latencies advance the
in-order retirement floor directly (they never dominate a stall).

Stores and writebacks are posted (write-buffer semantics) and never block
retirement, but their line fills and writebacks do consume DRAM bandwidth.

The core cooperates with :class:`repro.controller.MemorySystem` through the
conservative co-simulation protocol: ``advance()`` runs the core forward
until it either finishes its trace or *blocks* on an unresolved DRAM load,
and ``bound()`` publishes a non-decreasing lower bound on the core's next
action so the controller never schedules ahead of an unknown arrival.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, Optional, Tuple

from ..cache.hierarchy import CacheHierarchy, MEMORY
from ..common.config import CoreConfig
from ..common.units import Frequency
from ..controller.controller import MemorySystem
from ..controller.request import Request
from ..trace.record import AccessTuple


class Core:
    """One trace-driven core."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        trace: Iterator[AccessTuple],
        hierarchy: CacheHierarchy,
        memory: MemorySystem,
        max_references: int,
        direct_resolve: bool = False,
    ) -> None:
        if max_references <= 0:
            raise ValueError("max_references must be positive")
        self.core_id = core_id
        self.config = config
        self.trace = trace
        self.hierarchy = hierarchy
        self.memory = memory
        self.max_references = max_references
        #: Single-core fast path: blocked loads are resolved synchronously
        #: by the controller instead of round-tripping through the
        #: conservative multi-core protocol (safe only with one core).
        self.direct_resolve = direct_resolve
        frequency = Frequency.from_ghz(config.frequency_ghz)
        self._cycle_ns = frequency.period_ns
        self._slot_ns = self._cycle_ns / config.issue_width
        self._rob = config.rob_entries
        # Progress state.
        self.fetch_ns = 0.0
        self.retire_floor_ns = 0.0
        self.instructions = 0
        self.references = 0
        self.finished = False
        #: Outstanding DRAM loads as (instruction_index, request).
        self._outstanding: Deque[Tuple[int, Request]] = deque()
        #: The DRAM load the core is blocked on, or None.
        #: ``MultiCoreSimulator.run`` skips ``advance()`` until it completes.
        self.blocked_on: Optional[Request] = None
        #: Reference consumed from the trace but not yet issued (the core
        #: blocked while making ROB room for it).
        self._pending_ref: Optional[Tuple[int, bool]] = None
        # Fetch-stall accounting: episodes where the full ROB forced fetch
        # to wait for a retiring DRAM load, and the time fetch lost.
        self.rob_stalls = 0
        self.stall_ns = 0.0
        #: Optional event tracer (attached by repro.sim.system.simulate).
        self.tracer = None
        # Measurement window (set at the warmup boundary).
        self.measure_start_ns = 0.0
        self.measure_start_instructions = 0
        self.measure_start_references = 0

    # ------------------------------------------------------------------
    # Co-simulation protocol
    # ------------------------------------------------------------------

    def bound(self) -> float:
        """Lower bound on this core's next memory-system interaction."""
        if self.finished:
            return float("inf")
        if self.blocked_on is not None:
            return self.memory.lower_bound(self.blocked_on)
        return self.fetch_ns

    def advance(self, until_references: Optional[int] = None) -> None:
        """Run until the trace ends or the core blocks on a DRAM load.

        ``until_references`` optionally pauses the core once it has
        consumed that many references (used for the warmup boundary in
        single-core fast-path runs).

        This is the simulator's innermost loop (one iteration per trace
        reference).  Progress state lives in locals and is synced back in
        the ``finally`` block; cache hits take a path with no allocations
        and no ROB mutation (the ROB only ever holds DRAM loads, so a hit
        can at most advance the retire floor).
        """
        if self.finished:
            return
        # Loop-invariant bindings.
        trace_next = self.trace.__next__
        access = self.hierarchy.access_tuple
        memory = self.memory
        submit = memory.submit
        outstanding = self._outstanding
        core_id = self.core_id
        slot_ns = self._slot_ns
        cycle_ns = self._cycle_ns
        rob = self._rob
        max_references = self.max_references
        direct_resolve = self.direct_resolve
        memory_level = MEMORY
        # Progress state mirrored into locals for the duration of the call.
        fetch_ns = self.fetch_ns
        retire_floor_ns = self.retire_floor_ns
        instructions = self.instructions
        references = self.references
        rob_stalls = self.rob_stalls
        stall_ns = self.stall_ns
        try:
            while True:
                blocked = self.blocked_on
                if blocked is not None:
                    completion = blocked.completion_ns
                    if completion is None:
                        return
                    self.blocked_on = None
                    if completion > retire_floor_ns:
                        retire_floor_ns = completion
                    if fetch_ns < retire_floor_ns:
                        stall = retire_floor_ns - fetch_ns
                        rob_stalls += 1
                        stall_ns += stall
                        if self.tracer is not None:
                            self.tracer.emit(fetch_ns, "core", "rob_stall",
                                             dur_ns=stall, tid=core_id,
                                             core=core_id)
                        fetch_ns = retire_floor_ns
                pending = self._pending_ref
                if pending is None:
                    if until_references is not None \
                            and references >= until_references:
                        return
                    if references >= max_references:
                        self.finished = True
                        return
                    try:
                        gap, address, is_write = trace_next()
                    except StopIteration:
                        self.finished = True
                        return
                    references += 1
                    slots = gap + 1
                    instructions += slots
                    fetch_ns += slots * slot_ns
                else:
                    address, is_write = pending
                    self._pending_ref = None
                # Retire loads that must leave the ROB before this
                # instruction can enter (in-order retirement).
                if outstanding:
                    boundary = instructions - rob
                    while outstanding and outstanding[0][0] <= boundary:
                        _inst, request = outstanding.popleft()
                        completion = request.completion_ns
                        if completion is None:
                            if direct_resolve:
                                completion = memory.resolve(request)
                            else:
                                self.blocked_on = request
                                self._pending_ref = (address, is_write)
                                return
                        if completion > retire_floor_ns:
                            retire_floor_ns = completion
                        if fetch_ns < retire_floor_ns:
                            stall = retire_floor_ns - fetch_ns
                            rob_stalls += 1
                            stall_ns += stall
                            if self.tracer is not None:
                                self.tracer.emit(fetch_ns, "core",
                                                 "rob_stall", dur_ns=stall,
                                                 tid=core_id, core=core_id)
                            fetch_ns = retire_floor_ns
                level, latency, demand_fill, writebacks = access(
                    core_id, address, is_write)
                if writebacks:
                    for writeback in writebacks:
                        submit(fetch_ns, writeback, True, core_id)
                if level != memory_level:
                    if not is_write:
                        completion = fetch_ns + latency * cycle_ns
                        if completion > retire_floor_ns:
                            retire_floor_ns = completion
                    continue
                miss_time = fetch_ns + latency * cycle_ns
                request = submit(miss_time, demand_fill, False, core_id)
                if not is_write:
                    outstanding.append((instructions, request))
        finally:
            self.fetch_ns = fetch_ns
            self.retire_floor_ns = retire_floor_ns
            self.instructions = instructions
            self.references = references
            self.rob_stalls = rob_stalls
            self.stall_ns = stall_ns

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def start_measurement(self) -> None:
        """Mark the warmup boundary: subsequent metrics start here."""
        self.measure_start_ns = max(self.fetch_ns, self.retire_floor_ns)
        self.measure_start_instructions = self.instructions
        self.measure_start_references = self.references

    def finish_time_ns(self) -> float:
        """Time the last instruction retires (requires a flushed memory
        system so all outstanding completions are resolved)."""
        latest = max(self.fetch_ns, self.retire_floor_ns)
        for _inst, request in self._outstanding:
            if request.resolved and request.completion_ns > latest:
                latest = request.completion_ns
        blocked = self.blocked_on
        if blocked is not None and blocked.resolved:
            latest = max(latest, blocked.completion_ns)
        return latest

    def measured_time_ns(self) -> float:
        """Wall time of the measurement window."""
        return self.finish_time_ns() - self.measure_start_ns

    def measured_instructions(self) -> int:
        """Instructions retired after the warmup window."""
        return self.instructions - self.measure_start_instructions

    def ipc(self) -> float:
        """Instructions per cycle over the measurement window."""
        time_ns = self.measured_time_ns()
        if time_ns <= 0:
            return 0.0
        cycles = time_ns / self._cycle_ns
        return self.measured_instructions() / cycles

    def stats_group(self) -> Dict[str, object]:
        """Per-core statistics (whole-run counters plus windowed scalars)."""
        return {
            "instructions": self.instructions,
            "references": self.references,
            "rob_stalls": self.rob_stalls,
            "stall_ns": self.stall_ns,
            "measured_time_ns": self.measured_time_ns(),
            "ipc": self.ipc(),
        }
