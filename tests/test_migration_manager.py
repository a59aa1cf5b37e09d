"""Tests for the migration engine and the DAS / static managers."""

import math
from itertools import islice

import pytest

from repro.common.config import AsymmetricConfig, ControllerConfig
from repro.common.rng import make_rng
from repro.controller.controller import MemorySystem
from repro.core.manager import DASManager, StaticAsymmetricManager
from repro.core.migration import MigrationEngine
from repro.core.organization import AsymmetricOrganization
from repro.core.promotion import make_promotion_policy
from repro.core.replacement import make_fast_replacement
from repro.core.translation import (
    LLCTranslationPartition,
    TranslationCache,
    TranslationTable,
)
from repro.core.variants import build_memory_system
from repro.dram.device import DRAMDevice
from repro.dram.timing import FAST, SLOW, ddr3_1600_fast, ddr3_1600_slow
from repro.sim.runner import make_config
from repro.trace.spec2006 import build_trace


@pytest.fixture
def organization(tiny_geometry):
    return AsymmetricOrganization(
        tiny_geometry, AsymmetricConfig(migration_group_rows=16))


def make_das_system(tiny_geometry, organization, swap_latency=146.25,
                    threshold=1):
    device = DRAMDevice(
        tiny_geometry,
        {SLOW: ddr3_1600_slow(), FAST: ddr3_1600_fast()},
        organization.fast_rows_per_bank, organization.subarray_of)
    manager = DASManager(
        organization,
        TranslationTable(organization),
        TranslationCache(64),
        LLCTranslationPartition(16384),
        make_promotion_policy(threshold),
        make_fast_replacement("lru", make_rng(1, "fr")),
        MigrationEngine(swap_latency),
        llc_latency_ns=6.67,
    )
    return MemorySystem(device, ControllerConfig(), manager), manager


def slow_slot_address(system, organization):
    """An address whose logical row currently maps to a slow slot."""
    table = system.manager.table
    for address in range(0, 1 << 20, 2048):
        decoded = system.device.mapping.decode(address)
        group = decoded.row // organization.group_rows
        local = decoded.row % organization.group_rows
        flat = decoded.flat_bank(system.device.geometry)
        if table.slot_of(flat, group, local) >= organization.fast_per_group:
            return address
    raise AssertionError("no slow-slot address found")


class TestMigrationEngine:
    def test_free_engine(self):
        engine = MigrationEngine.free()
        assert engine.swap_latency_ns == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MigrationEngine(-1.0)

    def test_free_swap_commits_immediately(self, tiny_geometry,
                                           organization):
        system, _ = make_das_system(tiny_geometry, organization,
                                    swap_latency=0.0)
        committed = []
        engine = MigrationEngine.free()
        assert engine.swap(system, 0, 0.0, frozenset(),
                           lambda: committed.append(1))
        assert committed == [1]
        assert engine.promotions == 1

    def test_window_summary_matches_the_accumulator_loop(self):
        class Queue:
            """A bank queue that accepts three migrations, then drops one."""

            def __init__(self):
                self.answers = [True, True, True, False]

            def queue_migration(self, *args):
                return self.answers.pop(0)

        engine = MigrationEngine(0.1)
        queue = Queue()
        accepted = [engine.swap(queue, 0, float(i)) for i in range(4)]
        assert accepted == [True, True, True, False]
        assert (engine.promotions, engine.dropped) == (3, 1)
        # The removed accumulator's loop over the three accepted windows.
        count, total, total_sq = 0, 0.0, 0.0
        for sample in (0.1, 0.1, 0.1):
            count += 1
            total += sample
            total_sq += sample * sample
        mean = total / count
        stdev = math.sqrt(max(total_sq / count - mean**2, 0.0))
        stats = engine.stats_group()
        assert stats["window_ns"] == {"count": count, "sum": total,
                                      "mean": mean, "min": 0.1, "max": 0.1,
                                      "stdev": stdev}
        assert stats["busy_time_ns"] == total
        assert engine.busy_time_ns == total


class TestDASPromotion:
    def test_slow_access_promotes(self, tiny_geometry, organization):
        system, manager = make_das_system(tiny_geometry, organization)
        address = slow_slot_address(system, organization)
        request = system.submit(0.0, address, False)
        system.resolve(request)
        assert manager.promotions == 1

    def test_promoted_row_eventually_fast(self, tiny_geometry,
                                          organization):
        system, manager = make_das_system(tiny_geometry, organization)
        address = slow_slot_address(system, organization)
        first = system.submit(0.0, address, False)
        system.resolve(first)
        # Touch another row in the same bank to let the swap commit, then
        # re-access: the row must now be served from a fast slot.
        mapping = system.device.mapping
        geometry = system.device.geometry
        target = mapping.decode(address)
        other_address = None
        for candidate in range(0, geometry.capacity_bytes, 2048):
            decoded = mapping.decode(candidate)
            if (decoded.flat_bank(geometry) == target.flat_bank(geometry)
                    and decoded.row != target.row):
                other_address = candidate
                break
        assert other_address is not None
        other = system.submit(first.completion_ns, other_address, False)
        system.resolve(other)
        again = system.submit(other.completion_ns + 1000, address, False)
        system.resolve(again)
        assert again.op.subarray_class == FAST

    def test_fast_access_never_promotes(self, tiny_geometry, organization):
        system, manager = make_das_system(tiny_geometry, organization)
        # Find a fast-slot address.
        table = manager.table
        for address in range(0, 1 << 20, 2048):
            decoded = system.device.mapping.decode(address)
            group = decoded.row // organization.group_rows
            local = decoded.row % organization.group_rows
            flat = decoded.flat_bank(system.device.geometry)
            if table.slot_of(flat, group, local) < organization.fast_per_group:
                break
        request = system.submit(0.0, address, False)
        system.resolve(request)
        assert manager.promotions == 0
        assert request.op.subarray_class == FAST

    def test_no_retrigger_while_inflight(self, tiny_geometry, organization):
        system, manager = make_das_system(tiny_geometry, organization)
        address = slow_slot_address(system, organization)
        first = system.submit(0.0, address, False)
        system.resolve(first)
        # Re-access before any other row closes the bank: swap is pending.
        second = system.submit(first.completion_ns, address, False)
        system.resolve(second)
        assert manager.promotions == 1

    def test_exclusive_invariant_after_promotions(self, tiny_geometry,
                                                  organization):
        system, manager = make_das_system(tiny_geometry, organization)
        for i in range(40):
            request = system.submit(float(i * 500), (i * 7919 * 2048), False)
            system.resolve(request)
        system.flush()
        table = manager.table
        per_bank = organization.groups_per_bank
        for index, entry in enumerate(table._groups):
            if entry is None:
                continue
            flat, group = divmod(index, per_bank)
            slots = [table.slot_of(flat, group, local)
                     for local in range(organization.group_rows)]
            assert sorted(slots) == list(range(organization.group_rows))

    def test_threshold_filter_delays_promotion(self, tiny_geometry,
                                               organization):
        system, manager = make_das_system(tiny_geometry, organization,
                                          threshold=3)
        address = slow_slot_address(system, organization)
        for i in range(2):
            request = system.submit(float(i) * 1000, address, True)
            system.resolve(request)
            system.flush()
        assert manager.promotions == 0

    def test_reset_stats(self, tiny_geometry, organization):
        system, manager = make_das_system(tiny_geometry, organization)
        address = slow_slot_address(system, organization)
        system.resolve(system.submit(0.0, address, False))
        manager.reset_stats()
        assert manager.promotions == 0
        assert manager.slow_level_accesses == 0


class TestTranslationFlow:
    def test_tc_hit_zero_delay(self, tiny_geometry, organization):
        system, manager = make_das_system(tiny_geometry, organization)
        manager.translation_cache.insert(0, 0)
        translation = manager.translate(0, 0, 0, False, 0.0)
        assert translation.delay_ns == 0.0
        assert translation.table_row is None

    def test_llc_partition_hit_costs_llc_latency(self, tiny_geometry,
                                                 organization):
        system, manager = make_das_system(tiny_geometry, organization)
        manager.llc_partition.insert(5)
        translation = manager.translate(5, 0, 5, False, 0.0)
        assert translation.delay_ns == pytest.approx(6.67)
        assert translation.table_row is None

    def test_full_miss_fetches_table(self, tiny_geometry, organization):
        system, manager = make_das_system(tiny_geometry, organization)
        translation = manager.translate(200, 0, 200 % 128, False, 0.0)
        assert translation.table_row is not None
        assert manager.table_fetches == 1

    def test_fetch_installs_both_levels(self, tiny_geometry, organization):
        system, manager = make_das_system(tiny_geometry, organization)
        manager.translate(0, 0, 0, False, 0.0)   # row 0 is a fast slot
        second = manager.translate(0, 0, 0, False, 0.0)
        assert second.table_row is None
        assert second.delay_ns == 0.0


class TestStaticManager:
    def test_assigns_hottest_per_group(self, tiny_geometry, organization):
        # Bank 0, group 0: locals 10 and 11 are hottest.
        rows_per_bank = tiny_geometry.rows_per_bank
        heat = {10: 100, 11: 90, 0: 1, 1: 1}
        manager = StaticAsymmetricManager(organization, heat)
        assert manager.table.slot_of(0, 0, 10) < organization.fast_per_group
        assert manager.table.slot_of(0, 0, 11) < organization.fast_per_group

    def test_without_profile_identity(self, organization):
        manager = StaticAsymmetricManager(organization, None)
        assert manager.table.slot_of(0, 0, 3) == 3

    def test_translate_is_static(self, organization):
        manager = StaticAsymmetricManager(organization, {10: 5})
        translation = manager.translate(10, 0, 10, False, 0.0)
        assert translation.delay_ns == 0.0
        assert translation.table_row is None

    def test_never_promotes(self, organization):
        manager = StaticAsymmetricManager(organization, {10: 5})
        assert manager.promotions == 0

    def test_permutation_preserved(self, tiny_geometry, organization):
        heat = {local: 100 - local for local in range(16)}
        manager = StaticAsymmetricManager(organization, heat)
        slots = [manager.table.slot_of(0, 0, local) for local in range(16)]
        assert sorted(slots) == list(range(16))


def _counters(tree, path=""):
    """Every counter a stats subtree exports, by dotted path: its int
    leaves, each summary's ``count`` included."""
    found = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            found.update(_counters(value, f"{path}{key}."))
        elif isinstance(value, int) and not isinstance(value, bool):
            found[f"{path}{key}"] = value
    return found


class TestResetStats:
    """``reset_stats()`` after traffic zeroes every counter that the
    manager's ``stats_group()`` exports, its components' included."""

    CASES = {
        "das-threshold": (
            "das", AsymmetricConfig(promotion_threshold=2,
                                    promotion_counters=8),
            ["slow_level_accesses", "fast_level_accesses", "table_fetches",
             "translation.translation_cache.hits",
             "translation.translation_cache.misses",
             "translation.llc_partition.hits",
             "translation.llc_partition.misses",
             "migration.promotions", "migration.window_ns.count",
             "promotion.triggered", "promotion.filtered",
             "promotion.counter_evictions"]),
        "sas": ("sas", None, ["slow_level_accesses", "fast_level_accesses"]),
        "das_incl": ("das_incl", None,
                     ["promotions", "clean_fills", "slow_level_accesses",
                      "fast_level_accesses"]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_reset_zeroes_every_exported_counter(self, case):
        design, asym, moved = self.CASES[case]
        system = build_memory_system(make_config(design, asym=asym),
                                     row_heat={})
        now = 0.0
        for _gap, address, is_write in islice(build_trace("mcf", 1), 2000):
            now += 10.0
            system.submit(now, address, is_write)
            system.drain(now)
        system.flush()
        manager = system.manager
        before = _counters(manager.stats_group())
        assert [name for name in moved if before[name] == 0] == []
        manager.reset_stats()
        after = manager.stats_group()
        assert _counters(after) == dict.fromkeys(before, 0)
        if "migration" in after:
            assert after["migration"]["window_ns"] == {
                "count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                "max": 0.0, "stdev": 0.0}
            assert after["migration"]["busy_time_ns"] == 0.0
