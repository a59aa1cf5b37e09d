"""Tests for the rank activation window and the channel data bus, as
``Bank.schedule`` applies them to the state its banks share.

:class:`ReferenceRank` and :class:`ReferenceChannel` keep the constraints
in ``activate_time`` and ``reserve`` methods, and :class:`ReferenceBank`
schedules through them as the simulator once did.  The property test at
the end requires both to agree on every op and every bit of bank, rank
and channel state, with several banks sharing each rank and several
ranks sharing the channel.
"""

from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dram.bank import Bank, BankOp
from repro.dram.channel import IO_DELAY_NS, TURNAROUND_NS, Channel
from repro.dram.rank import Rank
from repro.dram.timing import (FAST, SLOW, charm_fast, ddr3_1600_fast,
                               ddr3_1600_slow, migration_latency_ns)


def make_banks(ranks=2, banks_per_rank=2, timings=None, first_slow_row=0):
    """Banks of ``ranks`` ranks on one channel, rank-major."""
    timings = timings or {SLOW: ddr3_1600_slow()}
    channel = Channel()
    banks = []
    for _ in range(ranks):
        rank = Rank(timings[SLOW])
        banks.extend(Bank(timings, first_slow_row, rank, channel)
                     for _ in range(banks_per_rank))
    return banks


def act_time(bank, row, earliest):
    """Schedule a read to ``row`` and return its ACT time."""
    assert bank.schedule(row, False, earliest).activated
    return bank.rank.last_act


class TestRank:
    def test_first_activation_unconstrained(self):
        bank, = make_banks(1, 1)
        assert act_time(bank, 3, 10.0) == pytest.approx(10.0)

    def test_trrd_spacing(self):
        slow = ddr3_1600_slow()
        first, second = make_banks(1, 2)
        act1 = act_time(first, 3, 0.0)
        act2 = act_time(second, 3, 0.0)
        assert act2 - act1 >= slow.tRRD - 1e-9

    def test_tfaw_window(self):
        slow = ddr3_1600_slow()
        banks = make_banks(1, 5)
        times = [act_time(bank, 3, 0.0) for bank in banks]
        assert times[4] - times[0] >= slow.tFAW - 1e-9
        assert list(banks[0].rank.act_window) == times[1:]

    def test_spread_activations_unconstrained(self):
        banks = make_banks(1, 8)
        for index, bank in enumerate(banks):
            assert act_time(bank, 3, index * 100.0) == pytest.approx(
                index * 100.0)

    def test_ranks_keep_separate_windows(self):
        first, second = make_banks(2, 1)
        assert act_time(first, 3, 0.0) == act_time(second, 3, 0.0) == 0.0


class TestChannel:
    def test_first_reservation(self):
        slow = ddr3_1600_slow()
        bank, = make_banks(1, 1)
        op = bank.schedule(3, False, 0.0)
        assert op.data_start_ns == pytest.approx(slow.tRCD + slow.tCL)
        assert op.data_end_ns == pytest.approx(op.data_start_ns
                                               + slow.tBURST)
        assert bank.channel.bus_free == op.data_end_ns
        assert bank.channel.next_column == pytest.approx(slow.tRCD
                                                         + slow.tCCD)

    def test_bursts_serialise(self):
        first, second = make_banks(2, 1)
        end1 = first.schedule(3, False, 0.0).data_end_ns
        start2 = second.schedule(3, False, 0.0).data_start_ns
        assert start2 >= end1 - 1e-9

    def test_tccd_spacing(self):
        slow = ddr3_1600_slow()
        bank, = make_banks(1, 1)
        first = bank.schedule(3, False, 0.0)
        second = bank.schedule(3, False, 0.0)
        assert second.row_hit
        # A read's column command is its data start less tCL.
        assert second.data_start_ns - first.data_start_ns >= slow.tCCD - 1e-9

    def test_turnaround_penalty(self):
        first, second = make_banks(2, 1)
        read_end = first.schedule(3, False, 0.0).data_end_ns
        write_start = second.schedule(3, True, 0.0).data_start_ns
        assert write_start >= read_end + TURNAROUND_NS - 1e-9

    def test_same_direction_no_penalty(self):
        first, second = make_banks(2, 1)
        end1 = first.schedule(3, False, 0.0).data_end_ns
        start2 = second.schedule(3, False, 0.0).data_start_ns
        assert start2 == pytest.approx(end1)

    def test_io_delay_constant_positive(self):
        assert IO_DELAY_NS > 0


class ReferenceRank:
    """tRRD and tFAW as a method of the rank."""

    def __init__(self, params):
        self.tRRD = params.tRRD
        self.tFAW = params.tFAW
        self.last_act = -1e18
        self.act_window = deque(maxlen=4)

    def activate_time(self, ready):
        """Earliest ACT time >= ``ready`` respecting tRRD/tFAW; records it."""
        t = max(ready, self.last_act + self.tRRD)
        if len(self.act_window) == 4:
            t = max(t, self.act_window[0] + self.tFAW)
        self.last_act = t
        self.act_window.append(t)
        return t


class ReferenceChannel:
    """tCCD, turnaround and the burst as a method of the channel."""

    def __init__(self):
        self.bus_free = 0.0
        self.next_column = 0.0
        self.last_was_write = None

    def reserve(self, col_ready, is_write, params):
        """``(column_time, data_start, data_end)`` of a burst slot."""
        latency = params.tCWL if is_write else params.tCL
        earliest_data = self.bus_free
        if self.last_was_write is not None and self.last_was_write != is_write:
            earliest_data += TURNAROUND_NS
        col = max(col_ready, self.next_column, earliest_data - latency)
        data_start = col + latency
        data_end = data_start + params.tBURST
        self.bus_free = data_end
        self.next_column = col + params.tCCD
        self.last_was_write = is_write
        return (col, data_start, data_end)


class ReferenceBank(Bank):
    """A bank that classifies rows with a callable and schedules through
    :class:`ReferenceRank` and :class:`ReferenceChannel`."""

    __slots__ = ("classify", "tables")

    def schedule(self, row, is_write, earliest):
        open_row = self.open_row
        row_hit = open_row == row
        if not row_hit:
            if self.pending_migrations:
                self._start_pending_migrations()
                open_row = self.open_row
            if self.active_migrations:
                earliest = self._wait_for_migrations(row, earliest)
        if earliest < self.busy_until:
            earliest = self.busy_until
        row_class = self.classify(row)
        table = self.tables[row_class]
        activated = False
        precharged = False
        row_conflict = open_row is not None and not row_hit
        if row_hit:
            col_ready = self.column_ready
            if col_ready < earliest:
                col_ready = earliest
            first_cmd = col_ready
        else:
            if row_conflict:
                pre = self.next_precharge_ok
                if pre < earliest:
                    pre = earliest
                act_ready = pre + self._open_table.tRP
                if act_ready < self.next_activate:
                    act_ready = self.next_activate
                precharged = True
                first_cmd_lb = pre
            else:
                act_ready = self.next_activate
                if act_ready < earliest:
                    act_ready = earliest
                first_cmd_lb = act_ready
            act = self.rank.activate_time(act_ready)
            activated = True
            self.activations += 1
            if row_conflict:
                self.precharges += 1
            first_cmd = first_cmd_lb if first_cmd_lb < act else act
            self.open_row = row
            self._open_table = table
            self.next_precharge_ok = act + table.tRAS
            self.next_activate = act + table.tRC
            col_ready = self.column_ready = act + table.tRCD
        col, data_start, data_end = self.channel.reserve(
            col_ready, is_write, table)
        if is_write:
            pre_ok = data_end + table.tWR
        else:
            pre_ok = col + table.tRTP
        if pre_ok > self.next_precharge_ok:
            self.next_precharge_ok = pre_ok
        return BankOp(
            first_command_ns=first_cmd, data_start_ns=data_start,
            data_end_ns=data_end, row_hit=row_hit,
            row_conflict=row_conflict, activated=activated,
            precharged=precharged, subarray_class=row_class)


#: Each design's timing classes and the rows its banks treat as fast.
DESIGNS = {
    "standard": ({SLOW: ddr3_1600_slow()}, 0),
    "fs": ({SLOW: ddr3_1600_slow(), FAST: ddr3_1600_fast()}, 128),
    "das": ({SLOW: ddr3_1600_slow(), FAST: ddr3_1600_fast()}, 16),
    "charm": ({SLOW: ddr3_1600_slow(), FAST: charm_fast()}, 16),
}

#: Eight banks per rank, as in every geometry the experiments use, so a
#: burst of ACTs to one rank can meet the four-activate window.
RANKS, BANKS_PER_RANK = 2, 8


def build(design, reference):
    timings, first_slow_row = DESIGNS[design]
    channel = ReferenceChannel() if reference else Channel()
    banks = []
    for _ in range(RANKS):
        rank = ReferenceRank(timings[SLOW]) if reference else Rank(
            timings[SLOW])
        for _ in range(BANKS_PER_RANK):
            if reference:
                bank = ReferenceBank(timings, 0, rank, channel)
                bank.classify = (lambda row, bound=first_slow_row:
                                 FAST if row < bound else SLOW)
                bank.tables = {cls: table for cls, table in
                               ((SLOW, bank.slow), (FAST, bank.fast))}
            else:
                bank = Bank(timings, first_slow_row, rank, channel)
            banks.append(bank)
    return banks


def bank_state(bank):
    return (bank.open_row, bank.next_activate, bank.next_precharge_ok,
            bank.column_ready, bank.busy_until, bank.activations, bank.precharges, bank.migration_windows,
            len(bank.pending_migrations), bank.active_migrations)


def shared_state(banks):
    ranks = {id(bank.rank): bank.rank for bank in banks}.values()
    channel = banks[0].channel
    return ([(rank.last_act, list(rank.act_window)) for rank in ranks],
            (channel.bus_free, channel.next_column, channel.last_was_write))


_gaps = st.one_of(st.just(0.0), st.sampled_from([1.25, 2.5, 6.25]),
                  st.floats(min_value=0.0, max_value=150.0))

_ops = st.lists(
    st.tuples(
        st.sampled_from(["access"] * 6 + ["precharge", "migrate"]),
        st.integers(min_value=0, max_value=RANKS * BANKS_PER_RANK - 1),
        st.integers(min_value=0, max_value=40),    # row
        st.booleans(),                             # is_write
        _gaps,
    ),
    min_size=1, max_size=60,
)


@given(design=st.sampled_from(sorted(DESIGNS)), ops=_ops)
@example(design="standard",   # a fifth ACT meets tFAW
         ops=[("access", bank, 3, False, 0.0) for bank in range(5)])
@settings(max_examples=200, deadline=None)
def test_schedule_matches_rank_and_channel_methods(design, ops):
    banks = build(design, False)
    reference = build(design, True)
    swap_ns = migration_latency_ns(ddr3_1600_slow())
    now = 0.0
    for kind, index, row, is_write, gap in ops:
        now += gap
        bank, ref = banks[index], reference[index]
        if kind == "precharge":
            assert bank.precharge_now(now) == ref.precharge_now(now)
        elif kind == "migrate":
            assert (bank.defer_migration(now, swap_ns, frozenset({0, 1}))
                    == ref.defer_migration(now, swap_ns, frozenset({0, 1})))
        else:
            assert bank.earliest_service(row) == ref.earliest_service(row)
            assert (bank.schedule(row, is_write, now)
                    == ref.schedule(row, is_write, now))
        assert ([bank_state(bank) for bank in banks]
                == [bank_state(ref) for ref in reference])
        assert shared_state(banks) == shared_state(reference)
