"""Tests for the LRU cache levels as the hierarchy walks them.

``CacheHierarchy.access_tuple`` probes, fills and evicts every level
itself.  :class:`ReferenceCache` and :class:`ReferenceHierarchy` keep the
per-level ``access``/``fill`` walk the hierarchy was written as before,
and the property test at the end requires the two to agree on every
outcome and every bit of level state after each access.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import L1, L2, LLC, MEMORY, CacheHierarchy
from repro.common.config import CacheConfig, HierarchyConfig

#: Tiny levels, so hits, dirty chains and shared-LLC evictions are
#: frequent: L1 2 sets x 2 ways, L2 4 x 2, LLC 4 x 4.
TINY = HierarchyConfig(
    l1=CacheConfig(256, 2, line_bytes=64, latency_cycles=4),
    l2=CacheConfig(512, 2, line_bytes=64, latency_cycles=12),
    llc=CacheConfig(1024, 4, line_bytes=64, latency_cycles=20),
)

#: Bytes between lines that share L1 set 0 (two L1 sets).
L1_STRIDE = 2 * 64


class ReferenceCache:
    """One LRU level with its own ``access`` and ``fill``."""

    def __init__(self, config):
        self.line_shift = config.line_bytes.bit_length() - 1
        self.set_mask = config.num_sets - 1
        self.ways = config.associativity
        self.sets = [[] for _ in range(config.num_sets)]
        self.dirty = set()
        self.hits = 0
        self.misses = 0

    def access(self, address, is_write):
        """``(hit, writeback_address)``; a miss allocates."""
        line = address >> self.line_shift
        set_list = self.sets[line & self.set_mask]
        if line in set_list:
            self.hits += 1
            if set_list[0] != line:
                set_list.remove(line)
                set_list.insert(0, line)
            if is_write:
                self.dirty.add(line)
            return (True, None)
        self.misses += 1
        writeback = self._fill(line, set_list)
        if is_write:
            self.dirty.add(line)
        return (False, writeback)

    def fill(self, address, dirty=False):
        """Insert a line arriving from the level above; a resident line
        only merges the dirty bit.  Returns a dirty victim's address."""
        line = address >> self.line_shift
        set_list = self.sets[line & self.set_mask]
        if line in set_list:
            if dirty:
                self.dirty.add(line)
            return None
        writeback = self._fill(line, set_list)
        if dirty:
            self.dirty.add(line)
        return writeback

    def _fill(self, line, set_list):
        writeback = None
        if len(set_list) >= self.ways:
            victim = set_list.pop()
            if victim in self.dirty:
                self.dirty.discard(victim)
                writeback = victim << self.line_shift
        set_list.insert(0, line)
        return writeback


class ReferenceHierarchy:
    """The hierarchy walk as calls into per-level reference caches."""

    def __init__(self, config, num_cores):
        self.l1 = [ReferenceCache(config.l1) for _ in range(num_cores)]
        self.l2 = [ReferenceCache(config.l2) for _ in range(num_cores)]
        self.llc = ReferenceCache(config.llc)
        self.llc_demand_misses = [0] * num_cores
        self.latency = {L1: config.l1.latency_cycles,
                        L2: config.l2.latency_cycles,
                        LLC: config.llc.latency_cycles,
                        MEMORY: config.llc.latency_cycles}
        self.line_align = ~(config.l1.line_bytes - 1)

    def access_tuple(self, core, address, is_write):
        hit, wb = self.l1[core].access(address, is_write)
        if hit:
            return (L1, self.latency[L1], None, ())
        writebacks = []
        if wb is not None:
            spill = self.l2[core].fill(wb, dirty=True)
            if spill is not None:
                spill = self.llc.fill(spill, dirty=True)
                if spill is not None:
                    writebacks.append(spill)
        hit, wb = self.l2[core].access(address, is_write)
        if hit:
            return (L2, self.latency[L2], None, tuple(writebacks))
        if wb is not None:
            spill = self.llc.fill(wb, dirty=True)
            if spill is not None:
                writebacks.append(spill)
        hit, wb = self.llc.access(address, is_write)
        if wb is not None:
            writebacks.append(wb)
        if hit:
            return (LLC, self.latency[LLC], None, tuple(writebacks))
        self.llc_demand_misses[core] += 1
        return (MEMORY, self.latency[MEMORY], address & self.line_align,
                tuple(writebacks))


def one_core(config=TINY):
    hierarchy = CacheHierarchy(config, 1)
    return hierarchy, (lambda address, is_write=False:
                       hierarchy.access_tuple(0, address, is_write))


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        _, access = one_core()
        assert access(0) == (MEMORY, 20, 0, ())
        assert access(0) == (L1, 4, None, ())

    def test_same_line_different_bytes_hit(self):
        _, access = one_core()
        access(0)
        assert access(63)[0] == L1

    def test_different_lines_miss(self):
        _, access = one_core()
        access(0)
        assert access(64)[0] == MEMORY

    def test_counts(self):
        hierarchy, access = one_core()
        access(0)
        access(0)
        access(64)
        l1 = hierarchy.l1[0]
        assert l1.hits == 1
        assert l1.misses == 2
        assert (hierarchy.llc.hits, hierarchy.llc.misses) == (0, 2)

    def test_reset_stats_preserves_contents(self):
        hierarchy, access = one_core()
        access(0)
        hierarchy.reset_stats()
        assert hierarchy.l1[0].misses == 0
        assert access(0)[0] == L1


class TestEvictionAndWriteback:
    def test_clean_eviction_no_writeback(self):
        hierarchy, access = one_core()
        for index in range(40):
            assert access(index * 64)[3] == ()
        assert hierarchy.llc.resident_lines() == 16

    def test_dirty_eviction_writes_back(self):
        # Lines 0, 4, 8, ... share set 0 of every level.  Line 0 is
        # written, then pushed out of L1, L2 and finally the LLC.
        _, access = one_core()
        access(0, True)
        writebacks = []
        for index in range(1, 8):
            writebacks.extend(access(index * 4 * 64)[3])
        assert writebacks == [0]

    def test_lru_victim_order(self):
        hierarchy, access = one_core()
        access(0)
        access(L1_STRIDE)
        access(0)                  # refresh line 0
        access(2 * L1_STRIDE)      # evicts the line at L1_STRIDE
        l1 = hierarchy.l1[0]
        assert l1.contains(0)
        assert not l1.contains(L1_STRIDE)

    def test_capacity_never_exceeded(self):
        hierarchy, access = one_core()
        for index in range(100):
            access(index * 64, index % 3 == 0)
        for cache, capacity in ((hierarchy.l1[0], 256), (hierarchy.l2[0], 512),
                                (hierarchy.llc, 1024)):
            assert cache.resident_lines() <= capacity // 64


class TestFillAndInvalidate:
    """A dirty victim is written into the level below it."""

    def test_fill_then_hit(self):
        # Line 0 stays in L1 (re-read) while L2 evicts it; when L1 then
        # evicts it, dirty, L2 allocates it again and the next read hits.
        hierarchy, access = one_core()
        access(0, True)
        access(4 * 64)
        access(0)
        access(8 * 64)
        l2 = hierarchy.l2[0]
        assert not l2.contains(0)
        access(12 * 64)
        assert l2.contains(0) and l2.is_dirty(0)
        assert access(0)[0] == L2

    def test_fill_merges_dirty(self):
        # Line 0 is clean in L2 and dirty only in L1; L1's victim write
        # marks the resident L2 copy dirty and leaves its recency alone.
        hierarchy, access = one_core()
        access(0)
        access(0, True)
        l2 = hierarchy.l2[0]
        assert not l2.is_dirty(0)
        access(2 * 64)
        access(4 * 64)
        assert not hierarchy.l1[0].contains(0)
        assert l2.is_dirty(0)
        assert l2.sets[0] == [4, 0]


class TestProperties:
    @given(st.lists(st.tuples(st.integers(0, 1 << 20), st.booleans()),
                    max_size=300))
    @settings(max_examples=40)
    def test_hits_plus_misses_equals_accesses(self, operations):
        hierarchy, access = one_core()
        for address, is_write in operations:
            access(address, is_write)
        l1 = hierarchy.l1[0]
        assert l1.hits + l1.misses == len(operations)

    @given(st.lists(st.tuples(st.integers(0, 1 << 16), st.booleans()),
                    max_size=300))
    @settings(max_examples=40)
    def test_immediate_reaccess_always_hits(self, operations):
        _, access = one_core()
        for address, is_write in operations:
            access(address, is_write)
            assert access(address)[0] == L1

    @given(st.lists(st.tuples(st.integers(0, 1 << 18), st.booleans()),
                    max_size=400))
    @settings(max_examples=40)
    def test_writebacks_only_for_written_lines(self, operations):
        _, access = one_core()
        written = set()
        for address, is_write in operations:
            if is_write:
                written.add(address // 64)
            for writeback in access(address, is_write)[3]:
                assert writeback // 64 in written

    @given(st.lists(st.integers(0, 1 << 18), max_size=400))
    @settings(max_examples=40)
    def test_resident_lines_bounded(self, addresses):
        hierarchy, access = one_core()
        for address in addresses:
            access(address)
        assert hierarchy.l1[0].resident_lines() <= 4
        assert hierarchy.llc.resident_lines() <= 16


def _level_state(cache):
    return (cache.sets, cache.dirty, cache.hits, cache.misses)


class TestAgainstReference:
    @given(cores=st.integers(1, 4),
           stream=st.binary(min_size=200, max_size=600))
    @settings(max_examples=200, deadline=None)
    def test_fused_walk_matches_per_level_walk(self, cores, stream):
        # Two bytes per access: core, write flag and one of 32 lines
        # (against 4 in each L1, 8 in each L2 and 16 in the LLC), then the
        # byte offset and whether to fold the line onto 8 hot ones, so
        # hits, writes to resident lines and dirty chains are all common.
        hierarchy = CacheHierarchy(TINY, cores)
        reference = ReferenceHierarchy(TINY, cores)
        for first, second in zip(stream[::2], stream[1::2]):
            core = (first & 3) % cores
            is_write = bool(first & 4)
            line = first >> 3
            if second & 64:
                line &= 7
            address = line * 64 + (second & 63)
            outcome = hierarchy.access_tuple(core, address, is_write)
            expected = reference.access_tuple(core, address, is_write)
            assert (*outcome[:3], tuple(outcome[3])) == expected
            for level, ref in ((hierarchy.l1, reference.l1),
                               (hierarchy.l2, reference.l2)):
                for cache, ref_cache in zip(level, ref):
                    assert _level_state(cache) == _level_state(ref_cache)
            assert (_level_state(hierarchy.llc)
                    == _level_state(reference.llc))
            assert (hierarchy.llc_demand_misses
                    == reference.llc_demand_misses)
