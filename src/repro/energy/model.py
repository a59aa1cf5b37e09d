"""Event-based DRAM energy accounting (paper Section 7.7).

The paper argues power qualitatively: DAS-DRAM serves most accesses from
the fast level (short bitlines charge less capacitance per activation) and
migrates rarely, so it consumes less array energy than a static asymmetric
design.  This meter makes the argument quantitative: per-command energies
by subarray class, plus a per-swap migration energy.

Absolute values are representative DDR3 array energies (activation ~2 nJ
per bank activate); only the fast/slow ratio and the migration term drive
the paper's conclusion, and both are first-order bitline-length effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..dram.bank import BankOp
from ..dram.timing import FAST, SLOW


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies in nanojoules."""

    #: ACT + restore + PRE of a slow (512-cell bitline) subarray row.
    activate_slow_nj: float = 2.0
    #: Same for a fast (128-cell bitline) subarray: a quarter of the cells
    #: per bitline and shorter wires — scaled accordingly.
    activate_fast_nj: float = 0.7
    #: One read burst through the column path and I/O.
    read_nj: float = 1.2
    #: One write burst.
    write_nj: float = 1.3
    #: One promotion swap: Figure 6's four steps = six half-row movements
    #: through migration rows, dominated by three row-cycle energies.
    migration_swap_nj: float = 5.0
    #: Background power per device (peripheral + standby), in watts.
    background_w: float = 0.1


class EnergyMeter:
    """Accumulates energy per command class during a run."""

    def __init__(self, params: EnergyParams = EnergyParams()) -> None:
        self.params = params
        self.activate_energy_nj = 0.0
        self.column_energy_nj = 0.0
        self.migration_energy_nj = 0.0
        self.activations: Dict[str, int] = {FAST: 0, SLOW: 0}
        self.reads = 0
        self.writes = 0
        self.migrations = 0

    def record_op(self, op: BankOp, is_write: bool) -> None:
        """Account one scheduled request's commands."""
        params = self.params
        if op.activated:
            self.activations[op.subarray_class] += 1
            if op.subarray_class == FAST:
                self.activate_energy_nj += params.activate_fast_nj
            else:
                self.activate_energy_nj += params.activate_slow_nj
        if is_write:
            self.writes += 1
            self.column_energy_nj += params.write_nj
        else:
            self.reads += 1
            self.column_energy_nj += params.read_nj

    def record_migration(self, _duration_ns: float) -> None:
        """Account one promotion swap."""
        self.migrations += 1
        self.migration_energy_nj += self.params.migration_swap_nj

    def dynamic_energy_nj(self) -> float:
        """Total dynamic (event) energy so far."""
        return (self.activate_energy_nj + self.column_energy_nj
                + self.migration_energy_nj)

    def total_energy_nj(self, elapsed_ns: float) -> float:
        """Dynamic energy plus background over an elapsed window."""
        if elapsed_ns < 0:
            raise ValueError("elapsed time must be non-negative")
        background_nj = self.params.background_w * elapsed_ns
        return self.dynamic_energy_nj() + background_nj

    def energy_per_access_nj(self) -> float:
        """Mean dynamic energy per demand access."""
        accesses = self.reads + self.writes
        return self.dynamic_energy_nj() / accesses if accesses else 0.0

    def breakdown(self) -> Dict[str, float]:
        """Dynamic-energy breakdown by component (nJ)."""
        return {
            "activate_nj": self.activate_energy_nj,
            "column_nj": self.column_energy_nj,
            "migration_nj": self.migration_energy_nj,
        }

    def reset(self) -> None:
        """Zero all accumulators (warmup boundary)."""
        self.activate_energy_nj = 0.0
        self.column_energy_nj = 0.0
        self.migration_energy_nj = 0.0
        self.activations = {FAST: 0, SLOW: 0}
        self.reads = 0
        self.writes = 0
        self.migrations = 0
