"""Memory request model shared by the controller and the management layer."""

from __future__ import annotations

from typing import Optional

#: Request kinds.
DEMAND_READ = "read"
DEMAND_WRITE = "write"
TRANSLATION_READ = "xlat"


class Request:
    """One DRAM transaction in flight.

    ``row`` is the *physical* row targeted after any address translation;
    ``logical_row`` is the pre-translation global row (for statistics).
    ``completion_ns`` stays None until the request is scheduled; the core
    model uses that to detect unresolved dependencies.
    """

    __slots__ = (
        "arrival_ns", "address", "is_write", "kind", "core",
        "channel", "flat_bank", "row", "logical_row",
        "completion_ns", "dependent", "parent", "extra_delay_ns", "op",
    )

    def __init__(
        self,
        arrival_ns: float,
        address: int,
        is_write: bool,
        core: int,
        kind: str = DEMAND_READ,
    ) -> None:
        self.arrival_ns = arrival_ns
        self.address = address
        self.is_write = is_write
        self.kind = kind
        self.core = core
        # Filled by the controller at submit time.
        self.channel = 0
        self.flat_bank = 0
        self.row = 0
        self.logical_row = 0
        self.completion_ns: Optional[float] = None
        #: A request to submit once this one completes (translation chain).
        self.dependent: Optional["Request"] = None
        #: The request this one waits on before entering the queues.
        self.parent: Optional["Request"] = None
        #: Latency added between this completion and the dependent's arrival.
        self.extra_delay_ns = 0.0
        self.op = None

    @property
    def resolved(self) -> bool:
        """True once the controller has scheduled this request."""
        return self.completion_ns is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"done@{self.completion_ns:.1f}" if self.resolved else "pending"
        return (f"Request({self.kind}, addr={self.address:#x}, "
                f"arr={self.arrival_ns:.1f}, {state})")
