"""Tests for promotion filtering and fast-level replacement policies."""

import pytest

from repro.common.rng import make_rng
from repro.core.promotion import (
    AlwaysPromote,
    ThresholdFilter,
    make_promotion_policy,
)
from repro.core.replacement import (
    GlobalCounterReplacement,
    LRUReplacement,
    RandomReplacement,
    SequentialReplacement,
    make_fast_replacement,
)


class TestAlwaysPromote:
    def test_always_true(self):
        policy = AlwaysPromote()
        assert all(policy.should_promote(row) for row in range(10))


class TestThresholdFilter:
    def test_promotes_at_threshold(self):
        policy = ThresholdFilter(threshold=3)
        assert not policy.should_promote(7)
        assert not policy.should_promote(7)
        assert policy.should_promote(7)

    def test_counter_resets_after_promotion(self):
        policy = ThresholdFilter(threshold=2)
        policy.should_promote(7)
        assert policy.should_promote(7)
        assert not policy.should_promote(7)  # counting restarts

    def test_counters_bounded(self):
        policy = ThresholdFilter(threshold=4, num_counters=8)
        for row in range(100):
            policy.should_promote(row)
        assert len(policy._counts) <= 8

    def test_eviction_loses_history(self):
        policy = ThresholdFilter(threshold=2, num_counters=1)
        policy.should_promote(1)
        policy.should_promote(2)   # evicts row 1's counter
        assert not policy.should_promote(1)

    def test_forget(self):
        policy = ThresholdFilter(threshold=3)
        policy.should_promote(5)
        policy.forget(5)
        assert not policy.should_promote(5)
        assert not policy.should_promote(5)

    def test_threshold_one_promotes_immediately(self):
        assert ThresholdFilter(threshold=1).should_promote(3)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ThresholdFilter(0)
        with pytest.raises(ValueError):
            ThresholdFilter(2, num_counters=0)


class TestPromotionFactory:
    def test_threshold_one_is_always(self):
        assert isinstance(make_promotion_policy(1), AlwaysPromote)

    def test_larger_threshold_is_filter(self):
        policy = make_promotion_policy(4)
        assert isinstance(policy, ThresholdFilter)
        assert policy.threshold == 4


class TestLRUReplacement:
    def test_untouched_group_evicts_first_slot(self):
        policy = LRUReplacement()
        assert policy.victim(0, 0, 4) == 0

    def test_touch_protects_slot(self):
        policy = LRUReplacement()
        policy.victim(0, 0, 4)       # initialise order [1,2,3,0]
        policy.touch(0, 0, 1)
        assert policy.victim(0, 0, 4) == 2

    def test_groups_independent(self):
        policy = LRUReplacement()
        policy.victim(0, 0, 4)
        assert policy.victim(0, 1, 4) == 0

    def test_touches_after_the_first_victim_count(self):
        policy = LRUReplacement()
        policy.victim(0, 0, 4)
        for slot in (0, 1, 2, 0, 1, 2):
            policy.touch(0, 0, slot)
        assert policy.victim(0, 0, 4) == 3

    @pytest.mark.xfail(strict=True, reason=(
        "touch() drops every touch made before a group's first victim "
        "choice; fixing it moves promotions (ROADMAP item 10)"))
    def test_touches_before_the_first_victim_count(self):
        policy = LRUReplacement()
        for slot in (0, 1, 2, 0, 1, 2):
            policy.touch(0, 0, slot)
        assert policy.victim(0, 0, 4) == 3


class TestRandomReplacement:
    def test_in_range(self):
        policy = RandomReplacement(make_rng(1, "fr"))
        assert all(0 <= policy.victim(0, 0, 4) < 4 for _ in range(100))


class TestSequentialReplacement:
    def test_round_robin(self):
        policy = SequentialReplacement()
        victims = [policy.victim(0, 0, 3) for _ in range(6)]
        assert victims == [0, 1, 2, 0, 1, 2]

    def test_per_group_pointers(self):
        policy = SequentialReplacement()
        policy.victim(0, 0, 3)
        assert policy.victim(0, 1, 3) == 0


class TestGlobalCounterReplacement:
    def test_counter_shared_across_groups(self):
        policy = GlobalCounterReplacement()
        assert policy.victim(0, 0, 4) == 0
        assert policy.victim(0, 1, 4) == 1
        assert policy.victim(3, 9, 4) == 2


class TestReplacementFactory:
    @pytest.mark.parametrize("name,cls", [
        ("lru", LRUReplacement),
        ("random", RandomReplacement),
        ("sequential", SequentialReplacement),
        ("counter", GlobalCounterReplacement),
    ])
    def test_factory(self, name, cls):
        assert isinstance(make_fast_replacement(name, make_rng(1, "x")),
                          cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_fast_replacement("plru", make_rng(1, "x"))
