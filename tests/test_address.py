"""Tests for the physical address mapping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import DRAMGeometry
from repro.dram.address import AddressMapping, DecodedAddress


@pytest.fixture
def mapping(tiny_geometry):
    return AddressMapping(tiny_geometry)


class TestDecode:
    def test_fields_in_range(self, mapping, tiny_geometry):
        for address in range(0, tiny_geometry.capacity_bytes, 4096):
            d = mapping.decode(address)
            assert 0 <= d.channel < tiny_geometry.channels
            assert 0 <= d.rank < tiny_geometry.ranks_per_channel
            assert 0 <= d.bank < tiny_geometry.banks_per_rank
            assert 0 <= d.row < tiny_geometry.rows_per_bank
            assert 0 <= d.column < tiny_geometry.lines_per_row

    def test_line_locality(self, mapping):
        # Bytes in the same line decode identically.
        assert mapping.decode(0) == mapping.decode(63)

    def test_consecutive_lines_share_row(self, mapping):
        # The row hash reads only the row and bank bits, so a row's
        # lines stay together in one row buffer.
        a = mapping.decode(0)
        b = mapping.decode(64)
        assert (a.channel, a.rank, a.bank, a.row) == (
            b.channel, b.rank, b.bank, b.row)
        assert b.column == a.column + 1

    def test_wraps_at_capacity(self, mapping, tiny_geometry):
        assert mapping.decode(0) == mapping.decode(
            tiny_geometry.capacity_bytes)


class TestEncodeRoundtrip:
    @given(st.integers(min_value=0, max_value=(1 << 19) - 1))
    @settings(max_examples=200)
    def test_roundtrip(self, line_address):
        geometry = DRAMGeometry(channels=1, ranks_per_channel=1,
                                banks_per_rank=2, rows_per_bank=128,
                                row_bytes=2048, line_bytes=64)
        mapping = AddressMapping(geometry)
        address = (line_address * 64) % geometry.capacity_bytes
        decoded = mapping.decode(address)
        assert mapping.encode(decoded) == address


class TestScatter:
    def test_scatter_is_bijective_per_bank(self, mapping, tiny_geometry):
        # The hash leaves channel, rank, bank and column as the address
        # bits give them, so this sweeps every row of (channel 0, rank 0,
        # bank 0) once.
        rows_seen = []
        for address in range(0, tiny_geometry.capacity_bytes, 64):
            d = mapping.decode(address)
            if (d.channel, d.rank, d.bank, d.column) == (0, 0, 0, 0):
                rows_seen.append(d.row)
        assert sorted(rows_seen) == list(range(tiny_geometry.rows_per_bank))

    def test_scatter_spreads_dense_footprint(self, mapping, tiny_geometry):
        rows = {mapping.decode(a).row
                for a in range(0, 32 * tiny_geometry.row_bytes,
                               tiny_geometry.row_bytes)}
        # A dense footprint should not collapse into a dense row range.
        assert max(rows) - min(rows) > len(rows)


class TestGlobalRow:
    def test_unique_per_row(self, mapping, tiny_geometry):
        rows = set()
        for address in range(0, tiny_geometry.capacity_bytes, 2048):
            rows.add(mapping.global_row(address))
        assert len(rows) == tiny_geometry.total_rows

    def test_within_range(self, mapping, tiny_geometry):
        for address in range(0, tiny_geometry.capacity_bytes, 8192):
            assert 0 <= mapping.global_row(address) < tiny_geometry.total_rows


class TestFlatBank:
    def test_flat_bank_unique(self, tiny_geometry):
        seen = set()
        for channel in range(tiny_geometry.channels):
            for rank in range(tiny_geometry.ranks_per_channel):
                for bank in range(tiny_geometry.banks_per_rank):
                    decoded = DecodedAddress(channel, rank, bank, 0, 0)
                    seen.add(decoded.flat_bank(tiny_geometry))
        assert seen == set(range(tiny_geometry.total_banks))
