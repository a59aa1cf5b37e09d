"""Rank-level activation constraints: tRRD and the four-activate window."""

from __future__ import annotations

from collections import deque
from typing import Deque

from .timing import TimingParams


class Rank:
    """ACT issue history of one rank, shared by its banks.

    :meth:`~repro.dram.bank.Bank.schedule` places each ACT at least tRRD
    after the rank's last one and at least tFAW after the fourth most
    recent one, and records it here.  These constraints protect the
    shared charge-pump/power network and are interface-level, so they
    use the commodity (slow) timing class.
    """

    __slots__ = ("tRRD", "tFAW", "last_act", "act_window")

    def __init__(self, params: TimingParams) -> None:
        self.tRRD = params.tRRD
        self.tFAW = params.tFAW
        #: Time of the rank's last ACT.
        self.last_act = -1e18
        #: Times of the rank's last four ACTs, oldest first.
        self.act_window: Deque[float] = deque(maxlen=4)
