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
from ..dram.timing import FAST


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


class EnergyMeter:
    """Accumulates energy per command class during a run."""

    def __init__(self, params: EnergyParams = EnergyParams()) -> None:
        self.params = params
        self.activate_energy_nj = 0.0
        self.column_energy_nj = 0.0
        self.migration_energy_nj = 0.0

    def record_op(self, op: BankOp, is_write: bool) -> None:
        """Account one scheduled request's commands."""
        params = self.params
        if op.activated:
            if op.subarray_class == FAST:
                self.activate_energy_nj += params.activate_fast_nj
            else:
                self.activate_energy_nj += params.activate_slow_nj
        if is_write:
            self.column_energy_nj += params.write_nj
        else:
            self.column_energy_nj += params.read_nj

    def record_migration(self) -> None:
        """Account one promotion swap."""
        self.migration_energy_nj += self.params.migration_swap_nj

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
