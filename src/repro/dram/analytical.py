"""Closed-form idle-system DRAM latencies, for validation.

For an idle channel (no queueing, no bank contention) the latency of a
read is a pure function of the row-buffer state and the subarray class:

* row hit        : tCL + tBURST (+ I/O)
* row closed     : tRCD + tCL + tBURST (+ I/O)
* row conflict   : tRP + tRCD + tCL + tBURST (+ I/O), plus any residual
  tRAS the open row still owes.

These expressions cross-check the event-driven engine: the test suite
drives single requests through a fresh system and asserts the measured
latency equals the analytical one.  ``validate_device`` packages the
check as a callable self-test for users who modify timing code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .channel import IO_DELAY_NS
from .timing import TimingParams

#: Row-buffer states.
ROW_HIT = "hit"
ROW_CLOSED = "closed"
ROW_CONFLICT = "conflict"


def idle_read_latency_ns(params: TimingParams, state: str,
                         include_io: bool = True) -> float:
    """Latency of a single read on an otherwise idle system."""
    io = IO_DELAY_NS if include_io else 0.0
    data = params.tCL + params.tBURST + io
    if state == ROW_HIT:
        return data
    if state == ROW_CLOSED:
        return params.tRCD + data
    if state == ROW_CONFLICT:
        return params.tRP + params.tRCD + data
    raise ValueError(f"unknown row-buffer state {state!r}")


def idle_write_latency_ns(params: TimingParams, state: str) -> float:
    """Time until write data is on the bus, idle system (no I/O leg)."""
    data = params.tCWL + params.tBURST
    if state == ROW_HIT:
        return data
    if state == ROW_CLOSED:
        return params.tRCD + data
    if state == ROW_CONFLICT:
        return params.tRP + params.tRCD + data
    raise ValueError(f"unknown row-buffer state {state!r}")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_device`."""

    checks: Dict[str, bool]

    @property
    def passed(self) -> bool:
        """True when every check held."""
        return all(self.checks.values())

    def failures(self):
        """The checks that did not hold."""
        return [name for name, ok in self.checks.items() if not ok]


def validate_device(device, tolerance_ns: float = 1e-6) -> ValidationReport:
    """Self-check a DRAM device's bank timing against the closed forms.

    Drives canonical single-request sequences through bank 0 of a *copy*
    of the device's configuration (the device itself is not mutated) and
    compares against :func:`idle_read_latency_ns`.
    """
    from .bank import Bank
    from .channel import Channel
    from .rank import Rank
    from .timing import FAST, SLOW

    checks: Dict[str, bool] = {}
    reference_bank = device.banks[0]
    every_row = device.geometry.rows_per_bank
    for class_name, params in device.timings.items():
        def fresh_bank() -> Bank:
            return Bank(device.timings,
                        every_row if class_name == FAST else 0,
                        Rank(device.timings[SLOW]), Channel(),
                        subarray_of=reference_bank.subarray_of)

        # Closed bank.
        bank = fresh_bank()
        op = bank.schedule(1, False, 0.0)
        measured = op.data_end_ns
        expected = idle_read_latency_ns(params, ROW_CLOSED,
                                        include_io=False)
        checks[f"{class_name}:closed"] = abs(measured
                                             - expected) <= tolerance_ns
        # Row hit (well after the activation settles).
        settle = params.tRC * 2
        op = bank.schedule(1, False, settle)
        measured = op.data_end_ns - settle
        expected = idle_read_latency_ns(params, ROW_HIT,
                                        include_io=False)
        checks[f"{class_name}:hit"] = abs(measured
                                          - expected) <= tolerance_ns
        # Conflict, after all restore obligations have lapsed.
        start = settle + params.tRC * 2
        op = bank.schedule(2, False, start)
        measured = op.data_end_ns - start
        expected = idle_read_latency_ns(params, ROW_CONFLICT,
                                        include_io=False)
        checks[f"{class_name}:conflict"] = abs(measured
                                               - expected) <= tolerance_ns
    return ValidationReport(checks)
