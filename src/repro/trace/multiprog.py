"""Multi-programming workload mixes M1-M8 (Table 2), and the partition
rule every multi-member workload shares.

Each mix runs four SPEC CPU2006 benchmarks on four dedicated cores
(the paper binds each program to a core).  Physical address spaces are
statically partitioned: core *i*'s trace is offset into the *i*-th quarter
of physical memory, mirroring distinct processes with non-overlapping
resident sets.  ``tracemix:`` workloads (:mod:`repro.trace.library`)
are partitioned the same way, one share per member.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List

from ..common.rng import derive_seed
from .record import AccessTuple

if TYPE_CHECKING:
    from .library import Workload

#: Table 2 multi-programming mixes.
MIXES: Dict[str, List[str]] = {
    "M1": ["cactusADM", "mcf", "milc", "omnetpp"],
    "M2": ["cactusADM", "GemsFDTD", "lbm", "mcf"],
    "M3": ["cactusADM", "lbm", "leslie3d", "omnetpp"],
    "M4": ["astar", "cactusADM", "lbm", "milc"],
    "M5": ["astar", "libquantum", "omnetpp", "soplex"],
    "M6": ["GemsFDTD", "leslie3d", "libquantum", "soplex"],
    "M7": ["leslie3d", "libquantum", "milc", "soplex"],
    "M8": ["lbm", "libquantum", "mcf", "soplex"],
}

#: Reporting order.
MIX_ORDER: List[str] = ["M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8"]


def mix_names() -> List[str]:
    """The mix names in reporting order."""
    return list(MIX_ORDER)


def _offset_trace(
    trace: Iterator[AccessTuple], offset: int, region_bytes: int
) -> Iterator[AccessTuple]:
    """Translate a trace into a private physical region.

    Addresses beyond the region wrap inside it, guaranteeing disjointness
    between cores regardless of footprint.
    """
    for gap, address, is_write in trace:
        yield (gap, offset + (address % region_bytes), is_write)


def member_seed(seed: int, workload: str, index: int, member: str) -> int:
    """Seed of member ``index`` of a multi-member workload: the same
    benchmark in another mix or slot yields a different stream."""
    return derive_seed(seed, f"{workload}:{index}:{member}")


def build_mix_traces(
    workload: "str | Workload",
    seed: int,
    capacity_bytes: int,
    mode: str = "episode",
) -> List[Iterator[AccessTuple]]:
    """Build the per-core traces of a multi-member workload.

    The one partition rule, for ``M1``..``M8`` and ``tracemix:`` alike:
    member *i* is seeded by :func:`member_seed` and placed at
    ``offset + address % region`` in the *i*-th equal share of
    ``capacity_bytes``.
    """
    from .library import resolve_workload

    workload = resolve_workload(workload)
    region = capacity_bytes // len(workload.members)
    traces = []
    for index, member in enumerate(workload.members):
        trace = member.trace(
            member_seed(seed, workload.name, index, member.name), mode)
        traces.append(_offset_trace(trace, index * region, region))
    return traces
