"""Cache replacement: every level is LRU."""

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import CacheConfig, HierarchyConfig


def level():
    return CacheConfig(256, 2, line_bytes=64)


class TestLRUPolicy:
    def test_victim_is_last_way(self):
        # One L1 set of two ways, kept most-recent-first: a third line
        # evicts the last way, the least recently used line.
        config = HierarchyConfig(level(), level(), level())
        hierarchy = CacheHierarchy(config, 1)
        for line in (0, 2, 0):
            hierarchy.access_tuple(0, line * 64, False)
        l1 = hierarchy.l1[0]
        assert l1.sets[0] == [0, 2]
        hierarchy.access_tuple(0, 4 * 64, False)
        assert l1.sets[0] == [4, 0]
