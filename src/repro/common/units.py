"""Physical-unit helpers used throughout the simulator.

The simulator keeps **time in nanoseconds** (floats) as the single global
time base.  DRAM timing parameters are naturally specified in nanoseconds,
and CPU cycles are converted through :class:`Frequency`.

Capacities are kept in **bytes** (ints).  The ``KiB``/``MiB``/``GiB``
constants make configuration sites readable.
"""

from __future__ import annotations

from dataclasses import dataclass

#: One kibibyte in bytes.
KiB = 1024
#: One mebibyte in bytes.
MiB = 1024 * KiB
#: One gibibyte in bytes.
GiB = 1024 * MiB


@dataclass(frozen=True)
class Frequency:
    """A clock frequency and the length of its cycle in nanoseconds.

    >>> Frequency.from_ghz(2.0).period_ns
    0.5
    """

    hertz: float

    def __post_init__(self) -> None:
        if self.hertz <= 0:
            raise ValueError(f"frequency must be positive, got {self.hertz}")

    @classmethod
    def from_ghz(cls, ghz: float) -> "Frequency":
        """Build a frequency from a value in gigahertz."""
        return cls(ghz * 1e9)

    @property
    def period_ns(self) -> float:
        """Length of one clock cycle in nanoseconds."""
        return 1e9 / self.hertz


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return log2 of a power-of-two integer, raising otherwise.

    >>> log2_exact(64)
    6
    """
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a power of two")
    return value.bit_length() - 1


def format_bytes(num_bytes: int) -> str:
    """Render a byte count with a binary-unit suffix (e.g. ``'4.0 MiB'``)."""
    size = float(num_bytes)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if size < 1024 or suffix == "TiB":
            if suffix == "B":
                return f"{int(size)} {suffix}"
            return f"{size:.1f} {suffix}"
        size /= 1024
    raise AssertionError("unreachable")
