"""Host-speed probe: host seconds at a fixed reference machine speed.

On a shared machine the CPU's speed swings by up to 2x over seconds, so
raw wall time of identical work is not steady.  :class:`SpeedProbe` arms
an interval timer in the measured process.  Every :data:`PERIOD_S` of
wall time its ``SIGALRM`` handler runs a fixed, allocation-free,
pure-Python loop and records when it started and ended.  A stretch of
program time between two probes is weighted by
``REFERENCE_PROBE_S / duration of the nearer probe``: a stretch that ran
while the CPU was slow (a long probe) counts for less.  Probe time
itself is excluded from program time.

The loop does what the simulator's hot paths do: attribute loads on
slotted objects, a Python call, a small-dict lookup and a data-dependent
branch.  A tight arithmetic loop was tried first; under contention from
a busy neighbour it slowed about 1.8x while the simulator slowed about
1.45x, so it over-corrected slow stretches by up to 18%.

The probe is an interpreter loop, so a change that moves hot work into
C may respond to contention differently from it; callers keep the raw
seconds beside the normalised ones for that reason.
"""

from __future__ import annotations

import signal
from time import perf_counter

#: Wall-time period of the interval timer.
PERIOD_S = 0.010

#: Probe duration that defines the reference machine speed.  A program
#: stretch measured while one probe took exactly this long counts at
#: face value.
REFERENCE_PROBE_S = 85e-6


class _Node:
    __slots__ = ("a", "b", "c")

    def __init__(self, index: int) -> None:
        self.a = (index * 37) & 511
        self.b = (index * 101) & 255
        self.c = (index * 13) & 255


# Values stay below 256, which the interpreter caches, so the loop
# allocates nothing.
_NODES = tuple(_Node(index) for index in range(256)) * 4
_TABLE = {index: (index * 7) & 255 for index in range(512)}


def _pick(node: _Node, table: dict) -> int:
    if node.b > 127:
        return table[node.a] ^ node.c
    return node.b


def _spin(nodes=_NODES, table=_TABLE) -> int:
    acc = 0
    pick = _pick
    for node in nodes:
        acc ^= pick(node, table)
    return acc


class SpeedProbe:
    """Interval-timer speed probe for the current process."""

    def __init__(self) -> None:
        self.starts: list = []
        self.ends: list = []
        #: Optional ``callback(duration_s)`` run after each probe; the
        #: layer tracer uses it to keep probe time out of span self time.
        self.on_probe = None
        self._busy = False

    def _handler(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        _spin()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        if self.on_probe is not None:
            self.on_probe(end - start)
        self._busy = False

    def arm(self) -> None:
        """Start probing every :data:`PERIOD_S` seconds."""
        signal.signal(signal.SIGALRM, self._handler)
        # Restart interrupted system calls (file and database I/O)
        # instead of failing them with EINTR.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def disarm(self) -> None:
        """Stop the timer and restore the default signal action."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def durations(self) -> list:
        """Duration of every completed probe, in seconds."""
        return [end - start for start, end in zip(self.starts, self.ends)]

    def probe_time(self, lo: float, hi: float) -> float:
        """Seconds of ``[lo, hi]`` spent inside probes."""
        total = 0.0
        for start, end in zip(self.starts, self.ends):
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                total += overlap
        return total

    def normalised(self, lo: float, hi: float) -> float:
        """Program seconds of ``[lo, hi]`` at the reference speed.

        ``lo`` may precede the first probe (process launch happens
        before the timer can be armed); that stretch is weighted by the
        first probe.
        """
        starts, ends = self.starts, self.ends
        if not starts:
            raise RuntimeError("no speed probe completed inside the run")
        weights = [REFERENCE_PROBE_S / (end - start)
                   for start, end in zip(starts, ends)]

        def part(a: float, b: float, weight: float) -> float:
            a = max(a, lo)
            b = min(b, hi)
            return (b - a) * weight if b > a else 0.0

        total = part(float("-inf"), starts[0], weights[0])
        for i in range(1, len(starts)):
            gap_lo, gap_hi = ends[i - 1], starts[i]
            middle = 0.5 * (gap_lo + gap_hi)
            total += part(gap_lo, middle, weights[i - 1])
            total += part(middle, gap_hi, weights[i])
        total += part(ends[-1], float("inf"), weights[-1])
        return total
