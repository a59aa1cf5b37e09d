"""Cache replacement: every level is LRU, and the config refuses others."""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import CacheConfig, HierarchyConfig


def level(replacement):
    return CacheConfig(256, 2, line_bytes=64, replacement=replacement)


class TestLRUPolicy:
    def test_victim_is_last_way(self):
        # One L1 set of two ways, kept most-recent-first: a third line
        # evicts the last way, the least recently used line.
        config = HierarchyConfig(level("lru"), level("lru"), level("lru"))
        hierarchy = CacheHierarchy(config, 1)
        for line in (0, 2, 0):
            hierarchy.access_tuple(0, line * 64, False)
        l1 = hierarchy.l1[0]
        assert l1.sets[0] == [0, 2]
        hierarchy.access_tuple(0, 4 * 64, False)
        assert l1.sets[0] == [4, 0]


class TestFactory:
    def test_lru(self):
        assert level("lru").replacement == "lru"

    def test_fifo(self):
        with pytest.raises(ValueError, match="LRU only"):
            level("fifo")

    def test_random_requires_rng(self):
        # Random replacement drew from per-level RNGs, which the LRU
        # caches no longer have.
        with pytest.raises(ValueError, match="LRU only"):
            level("random")

    def test_unknown(self):
        with pytest.raises(ValueError):
            level("plru")
