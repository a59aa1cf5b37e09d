"""Asymmetric-subarray organisation and migration groups.

Each bank mixes fast subarrays (short 128-cell bitlines) and slow subarrays
(commodity 512-cell bitlines) in the paper's 1:2 reduced-interleaving
arrangement.  We model the physical row space of a bank as::

    [0, fast_rows)                -> fast subarray rows
    [fast_rows, rows_per_bank)    -> slow subarray rows

Logical rows of a bank are partitioned into *migration groups* of
``group_rows`` rows; each group owns ``fast_per_group`` fast slots and the
rest slow slots.  A logical row may only be remapped within its group
(paper Section 5.2: bounded migration freedom keeps one translation entry
to a single byte).  Group-local slot ``s`` maps to a physical row via
:meth:`physical_row`.

The reduced-interleaving arrangement also keeps every migration path short
(fast and slow subarrays of a group are physically adjacent); we model the
cost purely through the migration latency parameter.
"""

from __future__ import annotations

from ..common.config import AsymmetricConfig, DRAMGeometry


class AsymmetricOrganization:
    """Geometry of fast/slow subarrays and migration groups in one bank.

    The same layout applies to every bank (flat-bank symmetric).
    """

    def __init__(self, geometry: DRAMGeometry, config: AsymmetricConfig) -> None:
        self.geometry = geometry
        self.config = config
        rows = geometry.rows_per_bank
        group_rows = config.migration_group_rows
        if group_rows > rows:
            raise ValueError("migration group larger than a bank")
        if rows % group_rows != 0:
            raise ValueError("bank rows must be a multiple of the group size")
        self.group_rows = group_rows
        self.groups_per_bank = rows // group_rows
        self.fast_per_group = config.fast_rows_per_group()
        if self.fast_per_group >= group_rows:
            raise ValueError("fast slots must be fewer than the group size")
        self.slow_per_group = group_rows - self.fast_per_group
        self.fast_rows_per_bank = self.fast_per_group * self.groups_per_bank
        # Translation-table storage: enough slow rows at the top of the bank
        # to hold one byte per logical row (paper Section 5.2).
        table_bytes = rows * config.translation_entry_bytes
        self.table_rows = max(1, -(-table_bytes // geometry.row_bytes))

    #: Rows per physical subarray by class.  The paper's subarrays are
    #: 128 (fast) and 512 (slow) cells per bitline; at the repo's 1/32
    #: capacity scale we shrink subarrays by the same factor a bank
    #: shrinks, so each bank keeps the paper's *count* of independent
    #: subarrays (what migration-window contention depends on).  Timing
    #: already encodes the real bitline lengths.
    FAST_SUBARRAY_ROWS = 16
    SLOW_SUBARRAY_ROWS = 64

    def subarray_of(self, physical_row: int) -> int:
        """Physical subarray index of a row within its bank.

        Fast subarrays (128 rows each) occupy the low indices; slow
        subarrays (512 rows) follow.  Migration windows block only the
        subarrays they involve (the migration path is internal to two
        neighbouring subarrays), so accesses elsewhere in the bank proceed.
        """
        if physical_row < self.fast_rows_per_bank:
            return physical_row // self.FAST_SUBARRAY_ROWS
        fast_subarrays = -(-self.fast_rows_per_bank // self.FAST_SUBARRAY_ROWS)
        return (fast_subarrays
                + (physical_row - self.fast_rows_per_bank)
                // self.SLOW_SUBARRAY_ROWS)

    def physical_row(self, group: int, slot: int) -> int:
        """Physical row of group-local slot ``slot``.

        Slots ``[0, fast_per_group)`` are the group's fast slots; the rest
        are its slow slots.
        """
        if not 0 <= group < self.groups_per_bank:
            raise ValueError(f"group {group} out of range")
        if not 0 <= slot < self.group_rows:
            raise ValueError(f"slot {slot} out of range")
        if slot < self.fast_per_group:
            return group * self.fast_per_group + slot
        return (self.fast_rows_per_bank
                + group * self.slow_per_group
                + (slot - self.fast_per_group))

    def table_row_for(self, bank_row: int) -> int:
        """Physical (slow) row holding the translation entry of a logical
        row.  The table occupies the top rows of the bank's slow region."""
        geometry = self.geometry
        entries_per_row = (geometry.row_bytes
                           // self.config.translation_entry_bytes)
        index = (bank_row // entries_per_row) % self.table_rows
        return geometry.rows_per_bank - 1 - index

    def area_overhead_fraction(self, row_buffer_fraction: float = 1.0 / 6.0) -> float:
        """Silicon-area overhead versus a homogeneous slow device.

        Fast subarrays raise the sense-amplifier-to-cell ratio: a fast
        subarray of 128-cell bitlines needs a row buffer per 128 rows
        instead of per 512.  With the paper's assumption that a row buffer
        costs ``row_buffer_fraction`` of a (512-row) subarray, the 1:2
        fast:slow arrangement yields ~6.6% overhead for the 1/8 ratio.
        """
        slow_bitline_cells = 512
        fast_bitline_cells = 128
        extra_buffers_per_fast_row = (1.0 / fast_bitline_cells
                                      - 1.0 / slow_bitline_cells)
        overhead_rows = (self.fast_rows_per_bank * extra_buffers_per_fast_row
                         * slow_bitline_cells * row_buffer_fraction)
        return overhead_rows / self.geometry.rows_per_bank
