"""Scheduling policies for the memory controller.

FR-FCFS (first-ready, first-come-first-served): requests whose target row
is already open in their bank are served first (oldest such request wins);
otherwise the oldest request is served.  A starvation cap bounds how long
row hits may bypass an older request.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

from ..dram.device import DRAMDevice
from .request import Request

#: Maximum time a request may be bypassed by younger row hits before the
#: scheduler falls back to strict age order (ns).
STARVATION_CAP_NS = 500.0

_BY_ARRIVAL = attrgetter("arrival_ns")


class FRFCFSScheduler:
    """First-ready FCFS with a starvation cap."""

    name = "frfcfs"

    def __init__(self, device: DRAMDevice, window: int = 32) -> None:
        if window <= 0:
            raise ValueError("scheduler window must be positive")
        self.device = device
        self.window = window

    def pick(self, ready: Sequence[Request], now: float) -> Request:
        """Choose the next request among ``ready`` (non-empty).

        Preference order (emulating per-command interleaving in the
        request-atomic engine):

        1. the oldest request, once it has been bypassed too long
           (starvation cap);
        2. the oldest row hit on a currently idle bank;
        3. the request whose bank can service it soonest (so a request to
           a busy/migrating bank never blocks the shared data bus for
           requests other banks could serve now), ties broken by age.
        """
        if not ready:
            raise ValueError("pick() requires a non-empty ready list")
        if len(ready) == 1:
            # Singleton ready set: every preference rule picks it.
            return ready[0]
        window = sorted(ready, key=_BY_ARRIVAL)[: self.window]
        oldest = window[0]
        if now - oldest.arrival_ns > STARVATION_CAP_NS:
            return oldest
        banks = self.device.banks
        best = None
        best_key = (0.0, 0.0)
        for request in window:
            bank = banks[request.flat_bank]
            if (bank.open_row == request.row and bank.busy_until <= now
                    and not bank.pending_migrations):
                return request
            service = bank.earliest_service(request.row)
            if service < now:
                service = now
            key = (service, request.arrival_ns)
            if best is None or key < best_key:
                best = request
                best_key = key
        assert best is not None
        return best


class FCFSScheduler:
    """Strict arrival order (baseline for ablation)."""

    name = "fcfs"

    def __init__(self, device: DRAMDevice, window: int = 32) -> None:
        self.device = device
        self.window = window

    def pick(self, ready: Sequence[Request], now: float) -> Request:
        """Choose the next request to issue (oldest first)."""
        if not ready:
            raise ValueError("pick() requires a non-empty ready list")
        return min(ready, key=_BY_ARRIVAL)


def make_scheduler(name: str, device: DRAMDevice, window: int):
    """Factory mapping a scheduler name to an instance."""
    if name == "frfcfs":
        return FRFCFSScheduler(device, window)
    if name == "fcfs":
        return FCFSScheduler(device, window)
    raise ValueError(f"unknown scheduler {name!r}")
