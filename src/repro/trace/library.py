"""Workload names: the one resolver, and the trace library it reads.

:func:`resolve_workload` decides what a name stands for: its members
(one per core), hence its default length (:func:`workload_shape`), its
store-key token (:func:`workload_cache_token`) and its per-core traces
(:func:`build_workload_traces`).  Every run entry point goes through it,
and a bad name raises :class:`UnknownWorkload` before any key exists.
Besides the SPEC benchmarks, the M1–M8 mixes and the extra profiles,
imported traces are first-class workloads:

* ``trace:<name>`` — replay the imported trace on one core;
* ``tracemix:<a>+<b>+...`` — one core per member, each an imported
  trace, a SPEC benchmark or an extra profile, address-partitioned like
  the M1–M8 mixes.

``repro trace import`` converts a source trace — DRAMSim2 ``k6`` or
``mase``, or the ``gap address R|W`` text ``repro trace dump`` writes —
into the compact ``.rtrc`` form (:mod:`repro.trace.rtrc`) and files it
in the library directory: ``.repro_traces/`` in the working tree, or
``REPRO_TRACE_DIR``.  It is the one way a trace file becomes a
workload.

Determinism and caching: a file-backed workload's behaviour is a pure
function of the trace *content*, so :func:`workload_cache_token` folds
each file member's sha256 content hash into the runner's cache key.
Re-importing identical requests under the same name is a cache hit;
replacing the file under the same name changes the key and can never
alias a stale result (DESIGN.md §13).
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .extras import EXTRA_PROFILES, build_extra_trace
from .ingest import TraceFormatError, detect_format, parse_trace
from .multiprog import MIXES, build_mix_traces
from .record import AccessTuple
from .rtrc import (
    DEFAULT_BLOCK_RECORDS,
    MAGIC,
    RtrcReader,
    records_to_accesses,
    write_rtrc,
)
from .spec2006 import PROFILES, build_trace

#: Default run lengths (memory references per core): one core, and
#: several.
DEFAULT_SINGLE_REFS = 300_000
DEFAULT_MIX_REFS = 150_000

#: Workload-name prefixes of file-backed workloads.
TRACE_PREFIX = "trace:"
MIX_PREFIX = "tracemix:"

#: Valid imported-trace names: filename-safe, no workload metacharacters
#: (``:`` introduces the prefix, ``+`` separates mix members, ``@`` marks
#: the cache token), no path separators and no leading ``.``, so a name
#: never reaches outside the library directory.
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def trace_dir() -> Path:
    """The library directory (``REPRO_TRACE_DIR`` or ``.repro_traces``)."""
    return Path(os.environ.get("REPRO_TRACE_DIR", ".repro_traces"))


def trace_path(name: str) -> Path:
    """Where the library stores (or would store) trace ``name``."""
    return trace_dir() / f"{name}.rtrc"


def _bad_name(name: str) -> Optional[str]:
    """Why ``name`` breaks the trace-name rule, or None when it does not."""
    if _NAME_RE.fullmatch(name):
        return None
    return (f"invalid trace name {name!r}: use letters, digits, '_', '-' "
            f"and '.' only, starting with a letter or digit (':', '+' and "
            f"'@' are workload syntax)")


def _validate_name(name: str) -> str:
    """Reject names that would break workload syntax or filenames."""
    problem = _bad_name(name)
    if problem is not None:
        raise ValueError(problem)
    if name in PROFILES or name in MIXES or name in EXTRA_PROFILES:
        raise ValueError(
            f"trace name {name!r} collides with a synthetic workload; "
            f"pick another name (repro trace import --name <other>)")
    return name


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

    ``source`` may be a k6, mase or native (``repro trace dump``) text
    trace (gzip ok; format from ``fmt``, the filename prefix, or content
    sniffing — see :func:`repro.trace.ingest.detect_format`) or an
    existing ``.rtrc`` file, which is validated and copied.  The file is
    written under a temporary name and renamed into place, so a failed
    import leaves the library as it was.  Raises
    :class:`~repro.trace.ingest.TraceFormatError` on anything malformed
    and :class:`ValueError` on a bad or colliding name.
    """
    source = Path(source)
    if name is None:
        name = default_name(source)
    _validate_name(name)
    destination = trace_path(name)
    destination.parent.mkdir(parents=True, exist_ok=True)
    if source.suffix == ".rtrc" or _has_rtrc_magic(source):
        RtrcReader(source)  # validates before we copy
        if source.resolve() != destination.resolve():
            _write_into_place(destination, partial(shutil.copyfile, source))
    else:
        if fmt is None:
            fmt = detect_format(str(source))
        _write_into_place(destination, partial(
            write_rtrc, parse_trace(str(source), fmt), source_format=fmt,
            block_records=block_records))
    info = RtrcReader(destination).info()
    info["name"] = name
    return info


def _write_into_place(destination: Path,
                      write: Callable[[Path], object]) -> None:
    """``write`` a temporary file beside ``destination``, then rename it
    over ``destination``.  The temporary name ends in ``.tmp``, so
    :func:`list_traces` never sees it, and it is removed whatever
    happens; ``destination`` changes only when the write succeeded."""
    temporary = destination.with_name(
        f".{destination.name}.{os.getpid()}.tmp")
    try:
        write(temporary)
        os.replace(temporary, destination)
    finally:
        with contextlib.suppress(FileNotFoundError):
            temporary.unlink()


def _has_rtrc_magic(path: Path) -> bool:
    try:
        with open(path, "rb") as stream:
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
    """Open imported trace ``name``: a KeyError with a hint when it is
    absent or breaks the trace-name rule (a path such as ``../x`` never
    leaves the library)."""
    problem = _bad_name(name)
    if problem is not None:
        raise KeyError(problem)
    path = trace_path(name)
    if not path.is_file():
        known = ", ".join(list_traces()) or "<none imported>"
        raise KeyError(
            f"no imported trace named {name!r} in {trace_dir()} "
            f"(have: {known}); import one with 'repro trace import'")
    return RtrcReader(path)


class UnknownWorkload(KeyError):
    """A workload name that stands for nothing runnable (says why)."""

    def __init__(self, workload: str, reason: str) -> None:
        super().__init__(f"unknown workload {workload!r}: {reason}")

    def __str__(self) -> str:
        return self.args[0]


class Member(NamedTuple):
    """One core's program: a synthetic profile built from a seed, or an
    imported file whose ``replay(wrap_bytes)`` streams the same requests
    whatever the seed or mode, pinned by its ``content_hash``."""

    name: str
    replay: Optional[Callable[[Optional[int]], Iterator[AccessTuple]]] = None
    records: int = 0
    content_hash: str = ""

    def trace(self, seed: int, mode: str = "episode",
              wrap_bytes: Optional[int] = None) -> Iterator[AccessTuple]:
        """A fresh access stream of this member."""
        if self.replay is not None:
            return self.replay(wrap_bytes)
        if self.name in PROFILES:
            return build_trace(self.name, seed, mode=mode)
        return build_extra_trace(self.name, seed)  # extras have no episodes


class Workload(NamedTuple):
    """What a workload name stands for: one member per core."""

    name: str
    members: Tuple[Member, ...]


def resolve_workload(workload: "str | Workload") -> Workload:
    """Resolve a workload name (a resolved :class:`Workload` passes).

    SPEC and extra names are one member each, ``M1``..``M8`` their Table
    2 members, ``trace:<x>`` imported trace ``x``; a ``tracemix:<a>+<b>``
    needs two or more members, each a SPEC name, an extra name or an
    imported trace.  Anything else raises :class:`UnknownWorkload`.
    """
    if isinstance(workload, Workload):
        return workload
    if workload.startswith(TRACE_PREFIX):
        members = [_imported(workload, workload[len(TRACE_PREFIX):])]
    elif workload.startswith(MIX_PREFIX):
        names = [m for m in workload[len(MIX_PREFIX):].split("+") if m]
        if len(names) < 2:
            raise UnknownWorkload(workload, "a tracemix needs at least two "
                                  "'+'-separated members")
        members = [_mix_member(workload, name) for name in names]
    elif workload in MIXES:
        members = [Member(name) for name in MIXES[workload]]
    elif workload in PROFILES or workload in EXTRA_PROFILES:
        members = [Member(workload)]
    else:
        raise UnknownWorkload(
            workload, "not a SPEC benchmark, a mix M1-M8, an extra profile, "
            "trace:<name> or tracemix:<a>+<b>+...")
    return Workload(workload, tuple(members))


def _mix_member(workload: str, name: str) -> Member:
    if name in MIXES:
        raise UnknownWorkload(
            workload, f"member {name!r} is a mix; tracemix members are SPEC "
            f"benchmarks, extra profiles or imported traces")
    if name in PROFILES or name in EXTRA_PROFILES:
        return Member(name)
    return _imported(workload, name)


def _imported(workload: str, name: str) -> Member:
    try:
        reader = open_trace(name)
    except KeyError as error:
        raise UnknownWorkload(workload, error.args[0]) from None
    except (TraceFormatError, OSError) as error:
        raise UnknownWorkload(workload, str(error)) from None
    return Member(name, partial(records_to_accesses, reader),
                  reader.records_total, reader.content_hash)


def workload_shape(workload: "str | Workload",
                   references: Optional[int] = None) -> Tuple[int, int]:
    """(num_cores, references): one core per member; by default the mix
    length for several members, the record count capped at the single
    length for one file, and the single length otherwise."""
    members = resolve_workload(workload).members
    if references is None:
        references = DEFAULT_SINGLE_REFS
        if len(members) > 1:
            references = DEFAULT_MIX_REFS
        elif members[0].replay is not None:
            references = min(members[0].records, DEFAULT_SINGLE_REFS)
    return len(members), references


def workload_cache_token(workload: "str | Workload") -> str:
    """The store-key token of a workload: ``@<hash12>[.<hash12>...]``,
    the first 12 hex digits of each imported member's content hash in
    core order, or empty (synthetic behaviour is already pinned by name,
    seed and code version)."""
    hashes = [member.content_hash[:12]
              for member in resolve_workload(workload).members
              if member.content_hash]
    return "@" + ".".join(hashes) if hashes else ""


def build_workload_traces(workload: "str | Workload", seed: int,
                          capacity_bytes: int, mode: str = "episode",
                          ) -> List[Iterator[AccessTuple]]:
    """Fresh per-core access iterators for any workload.

    A lone member runs as built (a lone file folds at
    ``capacity_bytes``); several go through the one partition rule,
    :func:`repro.trace.multiprog.build_mix_traces`.  ``mode='lifetime'``
    is what the static designs' oracle profiling pass observes.
    """
    workload = resolve_workload(workload)
    if len(workload.members) > 1:
        return build_mix_traces(workload, seed, capacity_bytes, mode=mode)
    return [workload.members[0].trace(seed, mode, wrap_bytes=capacity_bytes)]
