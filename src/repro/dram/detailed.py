"""Command-level, cycle-stepped DRAM channel model (validation reference).

The production engine (`repro.controller`) schedules each request's
commands atomically — fast, but an approximation.  This module is the
reference it is validated against: a single-channel model stepped in DRAM
clock cycles, issuing at most one command per cycle on the command bus,
with per-bank state machines and explicit inter-command constraints.

It deliberately supports only what the cross-validation needs — read
requests under open-page FR-FCFS on one rank — and is exercised by
``tests/test_detailed_engine.py``, which drives random request streams
through both engines and bounds their divergence.  DESIGN.md's
"request-level engine" modelling decision cites that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .timing import SLOW, TimingParams

#: Bank states.
IDLE = "idle"
ACTIVATING = "activating"
ACTIVE = "active"
PRECHARGING = "precharging"


@dataclass
class DetailedRequest:
    """One read request for the reference model."""

    arrival_ns: float
    bank: int
    row: int
    request_id: int = 0
    completion_ns: Optional[float] = None


@dataclass
class _BankState:
    state: str = IDLE
    open_row: Optional[int] = None
    #: Cycle the current state transition completes.
    ready_cycle: int = 0
    #: Cycle of the last ACT (for tRAS/tRC).
    act_cycle: int = -(10**9)
    #: Earliest cycle a precharge may issue (tRAS / tRTP).
    pre_allowed_cycle: int = 0


class DetailedChannel:
    """Cycle-stepped single-channel, single-rank read-only DRAM model."""

    def __init__(
        self,
        num_banks: int,
        params: TimingParams,
        classify: Optional[Callable[[int, int], str]] = None,
        timings: Optional[Dict[str, TimingParams]] = None,
        io_delay_ns: float = 5.0,
        starvation_cap_ns: float = 500.0,
    ) -> None:
        if num_banks <= 0:
            raise ValueError("need at least one bank")
        self.params = params
        self.classify = classify
        self.timings = timings or {SLOW: params}
        self.tck = params.tCK
        self.io_delay_ns = io_delay_ns
        self.starvation_cap = self._cycles(starvation_cap_ns)
        self.banks = [_BankState() for _ in range(num_banks)]
        #: Cycle the shared data bus frees.
        self.data_bus_free = 0
        #: Cycle the next column command may issue (tCCD).
        self.next_column = 0
        # Rank activation window (tRRD / tFAW).
        self.last_act_cycle = -(10**9)
        self.act_window: List[int] = []

    def _cycles(self, ns: float) -> int:
        return int(math.ceil(ns / self.tck - 1e-9))

    def _params_for(self, bank: int, row: int) -> TimingParams:
        if self.classify is None:
            return self.params
        return self.timings[self.classify(bank, row)]

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def run(self, requests: List[DetailedRequest]) -> None:
        """Simulate until every request completes (fills completion_ns)."""
        pending = sorted(requests, key=lambda r: r.arrival_ns)
        queue: List[DetailedRequest] = []
        cycle = 0
        remaining = len(pending)
        next_arrival = 0
        guard = 0
        while remaining > 0:
            guard += 1
            if guard > 10_000_000:
                raise RuntimeError("detailed model did not converge")
            # Admit arrivals.
            while (next_arrival < len(pending)
                   and pending[next_arrival].arrival_ns
                   <= cycle * self.tck + 1e-9):
                queue.append(pending[next_arrival])
                next_arrival += 1
            if not queue:
                if next_arrival < len(pending):
                    cycle = max(cycle, int(
                        pending[next_arrival].arrival_ns / self.tck))
                    cycle += 1
                    continue
                break
            issued = self._issue_one(queue, cycle)
            completed = [r for r in queue if r.completion_ns is not None]
            for request in completed:
                queue.remove(request)
                remaining -= 1
            if not issued and not completed:
                cycle += 1
            else:
                cycle += 1

    # ------------------------------------------------------------------
    # Per-cycle command selection (FR-FCFS)
    # ------------------------------------------------------------------

    def _issue_one(self, queue: List[DetailedRequest], cycle: int) -> bool:
        """Issue at most one command this cycle; returns True if issued."""
        queue.sort(key=lambda r: r.arrival_ns)
        oldest = queue[0]
        starving = (cycle - int(oldest.arrival_ns / self.tck)
                    > self.starvation_cap)
        # 1. Column command for a row hit (oldest first).
        candidates = [oldest] if starving else queue
        for request in candidates:
            bank = self.banks[request.bank]
            if (bank.state == ACTIVE and bank.open_row == request.row
                    and cycle >= bank.ready_cycle
                    and cycle >= self.next_column):
                params = self._params_for(request.bank, request.row)
                burst = self._cycles(params.tBURST)
                data_start = max(cycle + self._cycles(params.tCL),
                                 self.data_bus_free)
                if data_start > cycle + self._cycles(params.tCL):
                    continue  # bus busy: try other commands
                data_end = data_start + burst
                self.data_bus_free = data_end
                self.next_column = cycle + self._cycles(params.tCCD)
                bank.pre_allowed_cycle = max(
                    bank.pre_allowed_cycle,
                    cycle + self._cycles(params.tRTP))
                request.completion_ns = (data_end * self.tck
                                         + self.io_delay_ns)
                return True
        # 2. ACT for a request whose bank is idle.
        for request in candidates:
            bank = self.banks[request.bank]
            if bank.state == IDLE and self._can_activate(cycle, bank):
                params = self._params_for(request.bank, request.row)
                self._do_activate(bank, request.row, cycle, params)
                return True
        # 3. PRE for a conflicting oldest-first request.
        for request in candidates:
            bank = self.banks[request.bank]
            if (bank.state == ACTIVE and bank.open_row != request.row
                    and not self._row_wanted(queue, request.bank,
                                             bank.open_row)
                    and cycle >= bank.pre_allowed_cycle
                    and cycle >= bank.act_cycle + self._cycles(
                        self._params_for(request.bank,
                                         bank.open_row).tRAS)):
                params = self._params_for(request.bank, bank.open_row)
                bank.state = PRECHARGING
                bank.ready_cycle = cycle + self._cycles(params.tRP)
                bank.open_row = None
                return True
        # 4. Complete in-flight transitions.
        for bank in self.banks:
            if bank.state == ACTIVATING and cycle >= bank.ready_cycle:
                bank.state = ACTIVE
            elif bank.state == PRECHARGING and cycle >= bank.ready_cycle:
                bank.state = IDLE
        return False

    def _row_wanted(self, queue: List[DetailedRequest], bank_index: int,
                    row: Optional[int]) -> bool:
        """True when any queued request still wants the open row."""
        return any(r.bank == bank_index and r.row == row for r in queue)

    def _can_activate(self, cycle: int, bank: _BankState) -> bool:
        params = self.params
        if cycle < bank.ready_cycle:
            return False
        if cycle < bank.act_cycle + self._cycles(params.tRC):
            return False
        if cycle < self.last_act_cycle + self._cycles(params.tRRD):
            return False
        window = [c for c in self.act_window
                  if c > cycle - self._cycles(params.tFAW)]
        if len(window) >= 4:
            return False
        return True

    def _do_activate(self, bank: _BankState, row: int, cycle: int,
                     params: TimingParams) -> None:
        bank.state = ACTIVATING
        bank.open_row = row
        bank.act_cycle = cycle
        bank.ready_cycle = cycle + self._cycles(params.tRCD)
        bank.pre_allowed_cycle = cycle + self._cycles(params.tRAS)
        self.last_act_cycle = cycle
        self.act_window = [c for c in self.act_window
                           if c > cycle - self._cycles(params.tFAW)]
        self.act_window.append(cycle)
