"""The trace library: imported ``.rtrc`` files as first-class workloads.

``repro trace import`` converts a DRAMSim2-style source trace into the
compact ``.rtrc`` form (:mod:`repro.trace.rtrc`) and files it here under
a short name.  From then on the trace behaves exactly like a synthetic
benchmark everywhere a workload name is accepted:

* ``trace:<name>`` — replay the imported trace on one core;
* ``tracemix:<a>+<b>+...`` — a multi-programmed mix whose members may be
  imported traces *or* synthetic profiles (SPEC roster or extras),
  one core each, address-partitioned like the M1–M8 mixes.

The library directory defaults to ``.repro_traces/`` in the working
tree and is overridden with ``REPRO_TRACE_DIR``.

Determinism and caching: a file-backed workload's behaviour is a pure
function of the trace *content*, so :func:`workload_cache_token` folds
each file member's sha256 content hash into the runner's cache key.
Re-importing identical requests under the same name is a cache hit;
replacing the file under the same name changes the key and can never
alias a stale result (DESIGN.md §13).
"""

from __future__ import annotations

import os
import re
import shutil
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .ingest import TraceFormatError, detect_format, parse_trace
from .record import AccessTuple
from .rtrc import DEFAULT_BLOCK_RECORDS, RtrcReader, records_to_accesses, write_rtrc

#: Workload-name prefixes handled by this module.
TRACE_PREFIX = "trace:"
MIX_PREFIX = "tracemix:"

#: Valid imported-trace names: filename-safe, no workload metacharacters
#: (``:`` introduces the prefix, ``+`` separates mix members, ``@`` marks
#: the cache token).
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def trace_dir() -> Path:
    """The library directory (``REPRO_TRACE_DIR`` or ``.repro_traces``)."""
    return Path(os.environ.get("REPRO_TRACE_DIR", ".repro_traces"))


def trace_path(name: str) -> Path:
    """Where the library stores (or would store) trace ``name``."""
    return trace_dir() / f"{name}.rtrc"


def _validate_name(name: str) -> str:
    """Reject names that would break workload syntax or filenames."""
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid trace name {name!r}: use letters, digits, '_', '-' "
            f"and '.' only (':', '+' and '@' are workload syntax)")
    if _is_synthetic(name):
        raise ValueError(
            f"trace name {name!r} collides with a synthetic workload; "
            f"pick another name (repro trace import --name <other>)")
    return name


def _is_synthetic(name: str) -> bool:
    from .extras import EXTRA_PROFILES
    from .multiprog import MIXES
    from .spec2006 import PROFILES

    return name in PROFILES or name in MIXES or name in EXTRA_PROFILES


def default_name(source: "Path | str") -> str:
    """The import name derived from a source path's basename.

    ``traces/k6_stream.trc.gz`` imports as ``k6_stream``: the ``.gz``
    container and one trace extension are stripped, nothing else.
    """
    base = os.path.basename(str(source))
    if base.endswith(".gz"):
        base = base[:-3]
    root, ext = os.path.splitext(base)
    if ext.lower() in (".trc", ".trace", ".txt", ".out", ".rtrc"):
        base = root
    return base


def import_trace(source: "Path | str", name: Optional[str] = None,
                 fmt: Optional[str] = None,
                 block_records: int = DEFAULT_BLOCK_RECORDS,
                 ) -> Dict[str, object]:
    """Parse + convert ``source`` into the library; returns the info dict.

    ``source`` may be a k6/mase text trace (gzip ok; format from
    ``fmt``, the filename prefix, or content sniffing — see
    :func:`repro.trace.ingest.detect_format`) or an existing ``.rtrc``
    file, which is validated and copied.  Raises
    :class:`~repro.trace.ingest.TraceFormatError` on anything
    malformed and :class:`ValueError` on a bad or colliding name.
    """
    source = Path(source)
    if name is None:
        name = default_name(source)
    _validate_name(name)
    destination = trace_path(name)
    destination.parent.mkdir(parents=True, exist_ok=True)
    if _looks_like_rtrc(source):
        reader = RtrcReader(source)  # validates before we copy
        if source.resolve() != destination.resolve():
            shutil.copyfile(source, destination)
        info = RtrcReader(destination).info()
    else:
        if fmt is None:
            fmt = detect_format(str(source))
        try:
            info = write_rtrc(parse_trace(str(source), fmt), destination,
                              source_format=fmt,
                              block_records=block_records)
        except TraceFormatError:
            destination.unlink(missing_ok=True)
            raise
    info["name"] = name
    return info


def _looks_like_rtrc(path: Path) -> bool:
    from .rtrc import MAGIC

    if path.suffix == ".rtrc":
        return True
    try:
        with path.open("rb") as stream:
            return stream.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def list_traces() -> List[str]:
    """Names of every imported trace, sorted."""
    directory = trace_dir()
    if not directory.is_dir():
        return []
    return sorted(p.stem for p in directory.glob("*.rtrc"))


def open_trace(name: str) -> RtrcReader:
    """Open imported trace ``name`` (KeyError with a hint when absent)."""
    path = trace_path(name)
    if not path.is_file():
        known = ", ".join(list_traces()) or "<none imported>"
        raise KeyError(
            f"no imported trace named {name!r} in {trace_dir()} "
            f"(have: {known}); import one with 'repro trace import'")
    return RtrcReader(path)


def is_trace_workload(workload: str) -> bool:
    """True for ``trace:...`` and ``tracemix:...`` workload names."""
    return workload.startswith((TRACE_PREFIX, MIX_PREFIX))


def mix_members(workload: str) -> List[str]:
    """The member names of a ``tracemix:`` workload, in core order."""
    members = [m for m in workload[len(MIX_PREFIX):].split("+") if m]
    if len(members) < 2:
        raise ValueError(
            f"{workload!r}: a tracemix needs at least two '+'-separated "
            f"members (imported trace names or synthetic workload names)")
    return members


def workload_cache_token(workload: str) -> str:
    """Content-hash token the runner appends to trace workload cache keys.

    Empty for synthetic workloads.  For file-backed workloads it is
    ``@<hash12>[.<hash12>...]`` — the first 12 hex digits of each file
    member's sha256 content hash, in core order (synthetic mix members
    contribute nothing; their behaviour is already pinned by name +
    seed + code version).
    """
    if workload.startswith(TRACE_PREFIX):
        members = [workload[len(TRACE_PREFIX):]]
    elif workload.startswith(MIX_PREFIX):
        members = [m for m in mix_members(workload) if not _is_synthetic(m)]
    else:
        return ""
    hashes = [open_trace(name).content_hash[:12] for name in members]
    return "@" + ".".join(hashes) if hashes else ""


def resolve_trace_shape(workload: str, references: Optional[int],
                        default_single: int,
                        default_mix: int) -> Tuple[int, int]:
    """(num_cores, references) for a trace workload.

    A single ``trace:`` replay defaults to the imported record count,
    capped at the synthetic single-core default so huge traces do not
    silently explode run times; a ``tracemix:`` runs one core per
    member at the mix default length.
    """
    if workload.startswith(MIX_PREFIX):
        members = mix_members(workload)
        return len(members), (default_mix if references is None
                              else references)
    name = workload[len(TRACE_PREFIX):]
    if references is None:
        references = min(open_trace(name).records_total, default_single)
    return 1, references


def _file_trace(name: str, offset: int,
                region_bytes: int) -> Iterator[AccessTuple]:
    """One core's access stream from an imported trace.

    Addresses fold into ``region_bytes`` and shift by ``offset`` —
    identical to the partitioning rule the synthetic mixes use.
    """
    for gap, address, is_write in records_to_accesses(
            open_trace(name), wrap_bytes=region_bytes):
        yield (gap, offset + address, is_write)


def build_workload_traces(workload: str, seed: int, capacity_bytes: int,
                          mode: str = "episode",
                          ) -> List[Iterator[AccessTuple]]:
    """Per-core access iterators for a ``trace:``/``tracemix:`` workload.

    File-backed members are deterministic replays: ``seed`` and ``mode``
    only affect synthetic mix members (a file has no other "lifetime"
    to observe, so profiling passes replay the same requests).
    """
    from ..common.rng import derive_seed

    if workload.startswith(TRACE_PREFIX):
        return [_file_trace(workload[len(TRACE_PREFIX):], 0, capacity_bytes)]
    members = mix_members(workload)
    region = capacity_bytes // len(members)
    traces: List[Iterator[AccessTuple]] = []
    for index, member in enumerate(members):
        offset = index * region
        if _is_synthetic(member):
            traces.append(_synthetic_member(member, derive_seed(
                seed, f"{workload}:{index}:{member}"), offset, region, mode))
        else:
            traces.append(_file_trace(member, offset, region))
    return traces


def _synthetic_member(name: str, seed: int, offset: int, region: int,
                      mode: str) -> Iterator[AccessTuple]:
    """A synthetic profile as one mix member, offset into its region."""
    from .extras import EXTRA_PROFILES, build_extra_trace
    from .multiprog import _offset_trace
    from .spec2006 import PROFILES, build_trace

    if name in PROFILES:
        trace = build_trace(name, seed, mode=mode)
    elif name in EXTRA_PROFILES:
        trace = build_extra_trace(name, seed)
    else:
        raise KeyError(f"unknown tracemix member {name!r}: neither an "
                       f"imported trace nor a synthetic workload")
    return _offset_trace(trace, offset, region)
