"""DRAM device: channels, ranks and banks assembled from a geometry.

The device is design-agnostic: every bank's rows below ``first_slow_row``
use the fast timing class and the rest the slow one, so homogeneous
(standard: 0, FS: every row) and asymmetric (SAS / CHARM / DAS: the fast
rows of the organisation) designs share this substrate.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..common.config import DRAMGeometry
from .address import AddressMapping
from .bank import Bank
from .channel import Channel
from .rank import Rank
from .timing import SLOW, TimingParams, build_timing_tables


class DRAMDevice:
    """A multi-channel DRAM device with per-row timing classes."""

    def __init__(
        self,
        geometry: DRAMGeometry,
        timings: Dict[str, TimingParams],
        first_slow_row: int = 0,
        subarray_of: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.geometry = geometry
        self.timings = timings
        # One flat timing table per subarray class, shared by every bank
        # (the tables are immutable; per-bank copies would waste cache).
        self.tables = build_timing_tables(timings)
        self.mapping = AddressMapping(geometry)
        self.channels: List[Channel] = [
            Channel() for _ in range(geometry.channels)
        ]
        self.ranks: List[List[Rank]] = [
            [Rank(timings[SLOW]) for _ in range(geometry.ranks_per_channel)]
            for _ in range(geometry.channels)
        ]
        self.banks: List[Bank] = [
            Bank(timings, first_slow_row, self.ranks[channel_id][rank_id],
                 self.channels[channel_id], subarray_of=subarray_of,
                 tables=self.tables)
            for channel_id in range(geometry.channels)
            for rank_id in range(geometry.ranks_per_channel)
            for _bank_id in range(geometry.banks_per_rank)
        ]
