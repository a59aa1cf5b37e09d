"""Channel-level data-bus state.

One data bus per channel carries every burst.
:meth:`~repro.dram.bank.Bank.schedule` serialises bursts on it, enforces
column-command spacing (tCCD) and charges a turnaround penalty when the
bus switches direction (read <-> write).
"""

from __future__ import annotations

from typing import Optional

#: Extra gap charged when the bus reverses direction (approximates
#: tWTR / tRTW bus turnaround at DDR3-1600).
TURNAROUND_NS = 2.5

#: Fixed DRAM-internal datapath + I/O transfer delay added between the end
#: of a burst and the controller observing the data (paper Section 3 treats
#: this as unchanged across designs).
IO_DELAY_NS = 5.0


class Channel:
    """Data-bus and column-command book-keeping for one channel."""

    __slots__ = ("bus_free", "next_column", "last_was_write")

    def __init__(self) -> None:
        #: End of the last burst on the data bus.
        self.bus_free = 0.0
        #: Earliest time the next column command may issue (tCCD).
        self.next_column = 0.0
        #: Direction of the last burst, or None before the first.
        self.last_was_write: Optional[bool] = None
