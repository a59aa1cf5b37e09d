"""DRAM device: channels, ranks and banks assembled from a geometry.

The device is design-agnostic: the subarray class of each physical row is
supplied by a classifier callable, so homogeneous (standard / FS) and
asymmetric (SAS / CHARM / DAS) organisations share this substrate.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional

from ..common.config import DRAMGeometry
from .address import AddressMapping, DecodedAddress
from .bank import Bank
from .channel import Channel
from .rank import Rank
from .timing import SLOW, TimingParams, build_timing_tables

#: Classifier signature: (flat_bank_index, physical_row) -> subarray class.
RowClassifier = Callable[[int, int], str]


def homogeneous_classifier(subarray_class: str) -> RowClassifier:
    """Classifier for a homogeneous device (standard or FS DRAM)."""

    def classify(_flat_bank: int, _row: int) -> str:
        """Latency class of a physical row."""
        return subarray_class

    return classify


class DRAMDevice:
    """A multi-channel DRAM device with per-row timing classes."""

    def __init__(
        self,
        geometry: DRAMGeometry,
        timings: Dict[str, TimingParams],
        classify: RowClassifier = homogeneous_classifier(SLOW),
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
        self.banks: List[Bank] = []
        per_channel = geometry.ranks_per_channel * geometry.banks_per_rank
        for channel_id in range(geometry.channels):
            for rank_id in range(geometry.ranks_per_channel):
                for bank_id in range(geometry.banks_per_rank):
                    flat = (channel_id * per_channel
                            + rank_id * geometry.banks_per_rank + bank_id)
                    self.banks.append(
                        Bank(
                            timings,
                            functools.partial(classify, flat),
                            self.ranks[channel_id][rank_id],
                            self.channels[channel_id],
                            subarray_of=subarray_of,
                            tables=self.tables,
                        )
                    )

    def bank(self, decoded: DecodedAddress) -> Bank:
        """The bank a decoded address targets."""
        return self.banks[decoded.flat_bank(self.geometry)]

    def bank_by_flat(self, flat_bank: int) -> Bank:
        """The bank with a given flat index."""
        return self.banks[flat_bank]
