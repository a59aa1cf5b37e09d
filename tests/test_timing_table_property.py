"""Property tests pinning the TimingTable fast path to the original
dataclass arithmetic.

The bank state machine reads every timing value from flat
:class:`TimingTable` slots precomputed at device build (DESIGN.md §9).
These properties assert the fast path is *exactly* the old arithmetic:

* every table slot equals the corresponding :class:`TimingParams` field
  for arbitrary generated parameters, and the precomputed ``tRC`` equals
  the property's ``tRAS + tRP`` (same expression, same operands, so the
  floats are bitwise equal);
* a :class:`Bank` driven through arbitrary (state, command) sequences on
  each design's timing classes makes identical scheduling decisions
  whether it reads precomputed tables or defers every lookup to the
  dataclass, recomputing derived values per access (the pre-table
  behaviour).
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.bank import Bank
from repro.dram.channel import Channel
from repro.dram.rank import Rank
from repro.dram.timing import (FAST, SLOW, TimingParams, TimingTable,
                               charm_fast, ddr3_1600_fast, ddr3_1600_slow,
                               migration_latency_ns)


class _ArithmeticTable:
    """Reference table: defers every attribute to the frozen dataclass,
    so derived values (``tRC``) are recomputed by the property on every
    access — the behaviour the precomputed tables replaced."""

    def __init__(self, params: TimingParams) -> None:
        self.params = params

    def __getattr__(self, name):
        return getattr(self.params, name)


#: The three committed timing-class layouts (standard, DAS, CHARM).
DESIGN_TIMINGS = {
    "standard": {SLOW: ddr3_1600_slow()},
    "das": {SLOW: ddr3_1600_slow(), FAST: ddr3_1600_fast()},
    "charm": {SLOW: ddr3_1600_slow(), FAST: charm_fast()},
}

_positive_ns = st.floats(min_value=0.25, max_value=400.0,
                         allow_nan=False, allow_infinity=False)


@st.composite
def timing_params(draw):
    values = {field.name: draw(_positive_ns)
              for field in dataclasses.fields(TimingParams)}
    return TimingParams(**values)


@given(params=timing_params())
@settings(max_examples=100, deadline=None)
def test_table_slots_equal_dataclass_fields(params):
    table = TimingTable(params)
    for field in dataclasses.fields(TimingParams):
        assert getattr(table, field.name) == getattr(params, field.name)
    assert table.tRC == params.tRC == params.tRAS + params.tRP
    assert table.params is params


_bank_ops = st.lists(
    st.tuples(
        st.sampled_from(["access"] * 4 + ["precharge", "migrate"]),
        st.integers(min_value=0, max_value=127),   # row
        st.booleans(),                             # is_write
        st.floats(min_value=0.0, max_value=150.0), # time gap
    ),
    min_size=1, max_size=40,
)


@given(design=st.sampled_from(sorted(DESIGN_TIMINGS)), ops=_bank_ops)
@settings(max_examples=120, deadline=None)
def test_bank_schedule_matches_dataclass_arithmetic(design, ops):
    timings = DESIGN_TIMINGS[design]
    first_slow_row = 64 if FAST in timings else 0
    table_bank = Bank(timings, first_slow_row, Rank(timings[SLOW]), Channel())
    reference = Bank(
        timings, first_slow_row, Rank(timings[SLOW]), Channel(),
        tables={cls: _ArithmeticTable(p) for cls, p in timings.items()})
    swap_ns = migration_latency_ns(timings[SLOW])
    now = 0.0
    for kind, row, is_write, gap in ops:
        now += gap
        if kind == "precharge":
            assert table_bank.precharge_now(now) == reference.precharge_now(now)
        elif kind == "migrate":
            queued = table_bank.defer_migration(
                now, swap_ns, frozenset({0, 1}))
            assert queued == reference.defer_migration(
                now, swap_ns, frozenset({0, 1}))
        else:
            assert (table_bank.earliest_service(row)
                    == reference.earliest_service(row))
            assert (table_bank.schedule(row, is_write, now)
                    == reference.schedule(row, is_write, now))
        assert table_bank.open_row == reference.open_row
        assert table_bank.next_activate == reference.next_activate
        assert table_bank.next_precharge_ok == reference.next_precharge_ok
        assert table_bank.column_ready == reference.column_ready
        assert table_bank.busy_until == reference.busy_until
        assert table_bank.activations == reference.activations
        assert table_bank.precharges == reference.precharges
