"""Physical address mapping.

The mapping places bits, from least significant upward, as::

    [line offset | column(line) | channel | bank | rank | row]

so that consecutive lines in a row stay in one row buffer (open-page
friendly) while consecutive rows interleave across channels, banks and
ranks (parallelism friendly).  This is the conventional open-page mapping
and matches the paper's open-page FR-FCFS controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..common.config import DRAMGeometry
from ..common.units import log2_exact


@dataclass(frozen=True)
class DecodedAddress:
    """A physical byte address decoded into DRAM coordinates."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int

    def flat_bank(self, geometry: DRAMGeometry) -> int:
        """Globally unique bank index across channels and ranks."""
        per_channel = geometry.ranks_per_channel * geometry.banks_per_rank
        return (self.channel * per_channel
                + self.rank * geometry.banks_per_rank
                + self.bank)


class AddressMapping:
    """Decode byte addresses into (channel, rank, bank, row, column).

    The row index goes through a per-bank bijective hash that emulates
    OS physical-page placement: a workload whose trace addresses are
    dense still occupies rows spread uniformly across each bank, the way
    resident sets of real processes spread across physical memory.
    Without it, dense synthetic footprints would collapse into the first
    few migration groups of every bank and artificially thrash the fast
    level.  The hash preserves row-buffer locality exactly (bits below
    the row index are untouched).
    """

    #: Odd multiplier for the bijective row hash (any odd value is
    #: invertible modulo a power of two).
    _ROW_HASH_MULTIPLIER = 0x9E37_79B1

    def __init__(self, geometry: DRAMGeometry) -> None:
        self.geometry = geometry
        rows = geometry.rows_per_bank
        self._row_hash_inverse = pow(self._ROW_HASH_MULTIPLIER, -1, rows)
        self._line_shift = log2_exact(geometry.line_bytes)
        self._column_bits = log2_exact(geometry.lines_per_row)
        self._channel_bits = log2_exact(geometry.channels)
        self._bank_bits = log2_exact(geometry.banks_per_rank)
        self._rank_bits = log2_exact(geometry.ranks_per_channel)
        self._column_mask = geometry.lines_per_row - 1
        self._channel_mask = geometry.channels - 1
        self._bank_mask = geometry.banks_per_rank - 1
        self._rank_mask = geometry.ranks_per_channel - 1
        self._row_mask = geometry.rows_per_bank - 1
        self.capacity_mask = geometry.capacity_bytes - 1
        # Fused shifts/strides for the decode_flat hot path.
        self._chan_shift = self._line_shift + self._column_bits
        self._bank_shift = self._chan_shift + self._channel_bits
        self._rank_shift = self._bank_shift + self._bank_bits
        self._banks_per_rank = geometry.banks_per_rank
        self._per_channel = (geometry.ranks_per_channel
                             * geometry.banks_per_rank)

    def decode(self, address: int) -> DecodedAddress:
        """Decode a byte address (wraps at capacity)."""
        bits = (address & self.capacity_mask) >> self._line_shift
        column = bits & self._column_mask
        bits >>= self._column_bits
        channel = bits & self._channel_mask
        bits >>= self._channel_bits
        bank = bits & self._bank_mask
        bits >>= self._bank_bits
        rank = bits & self._rank_mask
        bits >>= self._rank_bits
        flat_bank = ((channel * self.geometry.ranks_per_channel + rank)
                     * self.geometry.banks_per_rank + bank)
        row = ((bits & self._row_mask) * self._ROW_HASH_MULTIPLIER
               + flat_bank * 0x3D) & self._row_mask
        return DecodedAddress(channel, rank, bank, row, column)

    def decode_flat(self, address: int) -> Tuple[int, int, int]:
        """Hot-path decode to ``(channel, flat_bank, row)`` without
        allocating a :class:`DecodedAddress`.

        Identical bit math to :meth:`decode` + ``flat_bank`` (same scatter
        hash), fused into one pass; the column is not needed by the
        controller's request path.
        """
        bits = (address & self.capacity_mask) >> self._chan_shift
        channel = bits & self._channel_mask
        bits >>= self._channel_bits
        bank = bits & self._bank_mask
        bits >>= self._bank_bits
        rank = bits & self._rank_mask
        row = (bits >> self._rank_bits) & self._row_mask
        flat_bank = (channel * self._per_channel
                     + rank * self._banks_per_rank + bank)
        row = (row * self._ROW_HASH_MULTIPLIER
               + flat_bank * 0x3D) & self._row_mask
        return (channel, flat_bank, row)

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode` (column-aligned byte address)."""
        flat_bank = decoded.flat_bank(self.geometry)
        bits = ((decoded.row - flat_bank * 0x3D) * self._row_hash_inverse
                ) & self._row_mask
        bits = (bits << self._rank_bits) | decoded.rank
        bits = (bits << self._bank_bits) | decoded.bank
        bits = (bits << self._channel_bits) | decoded.channel
        bits = (bits << self._column_bits) | decoded.column
        return bits << self._line_shift

    def global_row(self, address: int) -> int:
        """A globally unique row identifier (bank-major) for an address.

        Used for footprint accounting and as the logical-row key of the
        DAS translation layer.
        """
        _channel, flat_bank, row = self.decode_flat(address)
        return flat_bank * self.geometry.rows_per_bank + row
