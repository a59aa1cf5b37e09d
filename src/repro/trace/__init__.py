"""Workload traces: record model, synthetic generators, SPEC2006 profiles,
multi-programming mixes, and real-trace ingestion (k6/mase/native ->
.rtrc; see :mod:`repro.trace.ingest`, :mod:`repro.trace.rtrc` and
:mod:`repro.trace.library`)."""

from .ingest import TraceFormatError, TraceRecord, detect_format, parse_trace
from .multiprog import MIX_ORDER, MIXES, build_mix_traces, mix_names
from .record import AccessTuple, MemoryAccess, read_trace, write_trace
from .spec2006 import (
    PROFILES,
    SINGLE_PROGRAM_ORDER,
    BenchmarkProfile,
    benchmark_names,
    build_pattern,
    build_trace,
)
from .synthetic import (
    AddressPattern,
    GapModel,
    HotspotPattern,
    MixturePattern,
    PhasedPattern,
    PointerChase,
    SequentialStream,
    StridedPattern,
    UniformRandom,
    ZipfPattern,
    compose,
)

__all__ = [
    "TraceFormatError",
    "TraceRecord",
    "detect_format",
    "parse_trace",
    "MIX_ORDER",
    "MIXES",
    "build_mix_traces",
    "mix_names",
    "AccessTuple",
    "MemoryAccess",
    "read_trace",
    "write_trace",
    "PROFILES",
    "SINGLE_PROGRAM_ORDER",
    "BenchmarkProfile",
    "benchmark_names",
    "build_pattern",
    "build_trace",
    "AddressPattern",
    "GapModel",
    "HotspotPattern",
    "MixturePattern",
    "PhasedPattern",
    "PointerChase",
    "SequentialStream",
    "StridedPattern",
    "UniformRandom",
    "ZipfPattern",
    "compose",
]
