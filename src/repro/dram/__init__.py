"""DRAM substrate: timing classes, address mapping, bank/rank/channel
state machines and the assembled device."""

from .address import AddressMapping, DecodedAddress
from .analytical import (
    ROW_CLOSED,
    ROW_CONFLICT,
    ROW_HIT,
    idle_read_latency_ns,
    idle_write_latency_ns,
    validate_device,
)
from .bank import Bank, BankOp
from .channel import IO_DELAY_NS, TURNAROUND_NS, Channel
from .device import DRAMDevice
from .rank import Rank
from .timing import (
    FAST,
    SLOW,
    TimingParams,
    charm_fast,
    ddr3_1600_fast,
    ddr3_1600_slow,
    migration_latency_ns,
)

__all__ = [
    "AddressMapping",
    "DecodedAddress",
    "ROW_CLOSED",
    "ROW_CONFLICT",
    "ROW_HIT",
    "idle_read_latency_ns",
    "idle_write_latency_ns",
    "validate_device",
    "Bank",
    "BankOp",
    "IO_DELAY_NS",
    "TURNAROUND_NS",
    "Channel",
    "DRAMDevice",
    "Rank",
    "FAST",
    "SLOW",
    "TimingParams",
    "charm_fast",
    "ddr3_1600_fast",
    "ddr3_1600_slow",
    "migration_latency_ns",
]
