"""Common substrate: units, configuration, statistics, deterministic RNG."""

from .config import (
    AsymmetricConfig,
    CacheConfig,
    ControllerConfig,
    CoreConfig,
    DRAMGeometry,
    HierarchyConfig,
    SystemConfig,
)
from .rng import derive_seed, make_rng
from .statistics import Histogram, geometric_mean, gmean_improvement
from .units import Frequency, GiB, KiB, MiB, format_bytes, is_power_of_two, log2_exact

__all__ = [
    "AsymmetricConfig",
    "CacheConfig",
    "ControllerConfig",
    "CoreConfig",
    "DRAMGeometry",
    "HierarchyConfig",
    "SystemConfig",
    "derive_seed",
    "make_rng",
    "Histogram",
    "geometric_mean",
    "gmean_improvement",
    "Frequency",
    "GiB",
    "KiB",
    "MiB",
    "format_bytes",
    "is_power_of_two",
    "log2_exact",
]
