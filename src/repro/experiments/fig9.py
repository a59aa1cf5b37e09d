"""Figure 9: sensitivity studies.

* 9a — translation-cache capacity (paper: 32/64/128/256 KiB on the 8 GB
  system; 128 KiB — one byte per fast-level row — suffices).  At the
  repo's 1/32 scale the equivalent sweep is 1/2/4/8 KiB.
* 9b — migration-group size (8/16/32/64 rows; effect is subtle).
* 9c/9d — fast-level capacity ratio (1/32..1/4) under random and LRU
  replacement; 1/8 is the sweet spot and the two policies are within
  noise of each other (the fast level is large).
"""

from __future__ import annotations

from typing import List, Optional

from ..common.config import AsymmetricConfig
from ..common.units import KiB
from ..trace.spec2006 import benchmark_names
from .fig7 import SINGLE_REFS
from .study import Study, improvement_grid, over_standard

#: Translation-cache sizes: (label as in the paper, scaled bytes).
TC_SIZES = (("32KB", 1 * KiB), ("64KB", 2 * KiB),
            ("128KB", 4 * KiB), ("256KB", 8 * KiB))

#: Migration-group sizes in rows.
GROUP_SIZES = (8, 16, 32, 64)

#: Fast-level capacity ratios.
FAST_RATIOS = ((32, 1.0 / 32.0), (16, 1.0 / 16.0),
               (8, 1.0 / 8.0), (4, 1.0 / 4.0))


def _sweep(experiment_id: str, title: str, variants: List[tuple],
           references: Optional[int], workloads: Optional[List[str]],
           note: str) -> Study:
    """A DAS config sweep: variants are (label, AsymmetricConfig)."""
    refs = references or SINGLE_REFS
    return improvement_grid(
        experiment_id, title, workloads or benchmark_names(),
        {label: over_standard(refs, asym=asym) for label, asym in variants},
        ["values are % performance improvement over standard DRAM", note])


def fig9a(references: Optional[int] = None,
          workloads: Optional[List[str]] = None) -> Study:
    """Figure 9a: translation-cache capacity sensitivity."""
    return _sweep(
        "fig9a", "Translation-cache capacity sensitivity",
        [(label, AsymmetricConfig(translation_cache_bytes=size))
         for label, size in TC_SIZES],
        references, workloads,
        "labels are paper-equivalent sizes (scaled 1/32: 1/2/4/8 KiB); "
        "paper: 128KB achieves good performance")


def fig9b(references: Optional[int] = None,
          workloads: Optional[List[str]] = None) -> Study:
    """Figure 9b: migration-group size sensitivity."""
    return _sweep(
        "fig9b", "Migration-group size sensitivity",
        [(f"{rows}-row", AsymmetricConfig(migration_group_rows=rows))
         for rows in GROUP_SIZES],
        references, workloads, "paper: the effect is subtle")


def _ratio_sweep(experiment_id: str, replacement: str,
                 references: Optional[int],
                 workloads: Optional[List[str]]) -> Study:
    return _sweep(
        experiment_id,
        f"Fast-level capacity ratio ({replacement} replacement)",
        [(f"1/{denominator}",
          AsymmetricConfig(fast_ratio=ratio, replacement=replacement))
         for denominator, ratio in FAST_RATIOS],
        references, workloads,
        "paper: 1/8 maximises gain at 6.6% area overhead; below 1/8, "
        "large-footprint benchmarks (mcf, milc) suffer")


def fig9c(references: Optional[int] = None,
          workloads: Optional[List[str]] = None) -> Study:
    """Figure 9c: fast-level ratio sweep with random replacement."""
    return _ratio_sweep("fig9c", "random", references, workloads)


def fig9d(references: Optional[int] = None,
          workloads: Optional[List[str]] = None) -> Study:
    """Figure 9d: fast-level ratio sweep with LRU replacement."""
    return _ratio_sweep("fig9d", "lru", references, workloads)
