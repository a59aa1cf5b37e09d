"""Cache substrate: set-associative LRU caches and the three-level hierarchy."""

from .cache import Cache
from .hierarchy import L1, L2, LLC, MEMORY, CacheAccessResult, CacheHierarchy

__all__ = [
    "Cache",
    "L1",
    "L2",
    "LLC",
    "MEMORY",
    "CacheAccessResult",
    "CacheHierarchy",
]
