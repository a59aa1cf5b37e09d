"""Tests for the memory-system engine (controller)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ControllerConfig, DRAMGeometry
from repro.controller.controller import (
    ManagementPolicy,
    MemorySystem,
    Translation,
)
from repro.controller.request import (
    DEMAND_READ,
    DEMAND_WRITE,
    TRANSLATION_READ,
    Request,
)
from repro.dram.channel import IO_DELAY_NS
from repro.dram.device import DRAMDevice
from repro.dram.timing import SLOW, ddr3_1600_slow


def make_system(tiny_geometry, manager=None, **controller_kwargs):
    device = DRAMDevice(tiny_geometry, {SLOW: ddr3_1600_slow()})
    config = ControllerConfig(**controller_kwargs)
    return MemorySystem(device, config, manager)


class TestReadPath:
    def test_single_read_latency(self, tiny_geometry):
        system = make_system(tiny_geometry)
        slow = ddr3_1600_slow()
        request = system.submit(0.0, 0x1000, False)
        completion = system.resolve(request)
        expected = slow.tRCD + slow.tCL + slow.tBURST + IO_DELAY_NS
        assert completion == pytest.approx(expected)

    def test_row_hit_faster_than_cold(self, tiny_geometry):
        system = make_system(tiny_geometry)
        first = system.submit(0.0, 0x0, False)
        system.resolve(first)
        # Same row, next line.
        second = system.submit(first.completion_ns, 0x40, False)
        system.resolve(second)
        first_latency = first.completion_ns - 0.0
        second_latency = second.completion_ns - second.arrival_ns
        assert second_latency < first_latency

    def test_bank_parallelism(self, tiny_geometry):
        system = make_system(tiny_geometry)
        # Two reads to different banks submitted together overlap.
        a = system.submit(0.0, 0x0, False)
        decoded_a = system.device.mapping.decode(0x0)
        other = None
        for address in range(0, 1 << 18, 64):
            if (system.device.mapping.decode(address).flat_bank(
                    tiny_geometry) != decoded_a.flat_bank(tiny_geometry)):
                other = address
                break
        assert other is not None
        b = system.submit(0.0, other, False)
        system.resolve(a)
        system.resolve(b)
        serial = 2 * (a.completion_ns - 0.0)
        assert b.completion_ns < serial

    def test_flush_resolves_everything(self, tiny_geometry):
        system = make_system(tiny_geometry)
        requests = [system.submit(float(i), i * 4096, False)
                    for i in range(10)]
        system.flush()
        assert all(r.resolved for r in requests)
        assert system.pending_requests() == 0

    def test_stats_counted(self, tiny_geometry):
        system = make_system(tiny_geometry)
        system.submit(0.0, 0x0, False)
        system.submit(0.0, 0x40, False)
        system.submit(0.0, 0x2000, True)
        system.flush()
        assert system.reads == 2
        assert system.writes == 1
        assert system.demand_accesses == 3
        assert system.row_buffer_hits >= 1


class TestDrainSafety:
    def test_drain_respects_t_safe(self, tiny_geometry):
        system = make_system(tiny_geometry)
        request = system.submit(1000.0, 0x0, False)
        system.drain(500.0)
        assert not request.resolved
        system.drain(1001.0)
        assert request.resolved

    def test_lower_bound_monotone(self, tiny_geometry):
        system = make_system(tiny_geometry)
        request = system.submit(100.0, 0x0, False)
        bound1 = system.lower_bound(request)
        system.drain(50.0)
        bound2 = system.lower_bound(request)
        assert bound2 >= bound1 - 1e-9
        system.flush()
        assert system.lower_bound(request) == request.completion_ns


class TestWriteDrain:
    def test_writes_eventually_scheduled(self, tiny_geometry):
        system = make_system(tiny_geometry)
        writes = [system.submit(0.0, i * 4096, True) for i in range(8)]
        system.flush()
        assert all(w.resolved for w in writes)

    def test_reads_prioritised_over_writes(self, tiny_geometry):
        system = make_system(tiny_geometry, write_queue_entries=32)
        write = system.submit(0.0, 0x8000, True)
        read = system.submit(0.0, 0x0, False)
        system.resolve(read)
        # The read resolves without the write being forced first.
        assert read.resolved
        system.flush()
        assert write.resolved

    def test_high_watermark_triggers_drain(self, tiny_geometry):
        system = make_system(tiny_geometry, write_queue_entries=4,
                             write_drain_high=0.5, write_drain_low=0.25)
        for i in range(4):
            system.submit(0.0, (i * 64 + (1 << 16)), True)
        reads = [system.submit(float(i), i * 64, False) for i in range(20)]
        for read in reads:
            system.resolve(read)
        system.flush()
        assert system.writes == 4


class TestTranslationChain:
    class ChainManager(ManagementPolicy):
        """Forces a table fetch before every access to row >= 64."""

        def translate(self, logical_row, flat_bank, row, is_write, now):
            if row >= 64:
                return Translation(row, delay_ns=5.0, table_row=0)
            return Translation(row)

    def _address_with_row(self, system, predicate):
        for address in range(0, 1 << 18, 2048):
            if predicate(system.device.mapping.decode(address).row):
                return address
        raise AssertionError("no matching address found")

    def test_chained_request_serialises(self, tiny_geometry):
        chained = make_system(tiny_geometry, manager=self.ChainManager())
        plain = make_system(tiny_geometry)
        address = self._address_with_row(chained, lambda r: r >= 64)
        request = chained.submit(0.0, address, False)
        chained.resolve(request)
        reference = plain.submit(0.0, address, False)
        plain.resolve(reference)
        assert request.completion_ns > reference.completion_ns
        assert chained.xlat_reads == 1

    def test_untranslated_rows_unaffected(self, tiny_geometry):
        chained = make_system(tiny_geometry, manager=self.ChainManager())
        address = self._address_with_row(chained, lambda r: r < 64)
        request = chained.submit(0.0, address, False)
        chained.resolve(request)
        assert chained.xlat_reads == 0


class TestAccessLocations:
    def test_fractions_sum_to_one(self, tiny_geometry):
        system = make_system(tiny_geometry)
        for i in range(50):
            system.submit(float(i), (i % 7) * 4096, False)
        system.flush()
        fractions = system.access_location_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_empty_system_fractions(self, tiny_geometry):
        system = make_system(tiny_geometry)
        fractions = system.access_location_fractions()
        assert fractions == {"row_buffer": 0.0, "fast": 0.0, "slow": 0.0}


class TestFootprintAndReset:
    def test_footprint_counts_distinct_rows(self, tiny_geometry):
        system = make_system(tiny_geometry)
        system.submit(0.0, 0x0, False)
        system.submit(0.0, 0x40, False)   # same row
        system.flush()
        assert system.footprint_bytes() == tiny_geometry.row_bytes

    def test_reset_stats(self, tiny_geometry):
        system = make_system(tiny_geometry)
        system.submit(0.0, 0x0, False)
        system.flush()
        system.reset_stats()
        assert system.reads == 0
        assert system.footprint_bytes() == 0

    def test_stats_group_exports(self, tiny_geometry):
        system = make_system(tiny_geometry)
        system.submit(0.0, 0x0, False)
        system.flush()
        data = system.stats_group()
        assert data["reads"] == 1
        assert "mean_read_latency_ns" in data


class AppendOrderReference(MemorySystem):
    """Reference decision loop: append-order queues, a min-arrival scan
    and ready filtering, as the controller ran before its queues were
    kept in arrival order.  Test-only."""

    def submit(self, arrival_ns, address, is_write, core=0):
        channel, flat_bank, row = self._mapping.decode_flat(address)
        logical_row = flat_bank * self._rows_per_bank + row
        kind = DEMAND_WRITE if is_write else DEMAND_READ
        request = Request(arrival_ns, address, is_write, core, kind)
        request.channel = channel
        request.flat_bank = flat_bank
        request.logical_row = logical_row
        translation = self.manager.translate(
            logical_row, flat_bank, row, is_write, arrival_ns)
        request.row = translation.physical_row
        delay = translation.delay_ns
        if delay:
            request.arrival_ns = arrival_ns + delay
        table_row = translation.table_row
        if table_row is None:
            if is_write:
                self._write_q[channel].append(request)
            else:
                self._read_q[channel].append(request)
        else:
            parent = Request(arrival_ns, address, False, core,
                             TRANSLATION_READ)
            parent.channel = channel
            parent.flat_bank = flat_bank
            parent.row = table_row
            parent.logical_row = logical_row
            parent.dependent = request
            parent.extra_delay_ns = delay
            request.parent = parent
            self._read_q[channel].append(parent)
        self.touched_rows.add(logical_row)
        return request

    def _enqueue(self, request):
        if request.is_write:
            self._write_q[request.channel].append(request)
        else:
            self._read_q[request.channel].append(request)

    def _drain_channel(self, channel, t_safe, stop=None):
        reads = self._read_q[channel]
        writes = self._write_q[channel]
        progressed = False
        clock = self._clock
        draining = self._draining
        pick = self._scheduler.pick
        while reads or writes:
            if stop is not None and stop.completion_ns is not None:
                break
            if not writes and len(reads) == 1:
                request = reads[0]
                now = max(clock[channel], request.arrival_ns)
                if now > t_safe:
                    break
                if (self._refresh_enabled
                        and now >= self._refresh_min[channel]):
                    self._refresh_due(channel, now)
                draining[channel] = False
                del reads[0]
                self._issue(request, channel, now)
                progressed = True
                continue
            min_arrival = math.inf
            for req in reads + writes:
                if req.arrival_ns < min_arrival:
                    min_arrival = req.arrival_ns
            now = max(clock[channel], min_arrival)
            if now > t_safe:
                break
            if self._refresh_enabled and now >= self._refresh_min[channel]:
                self._refresh_due(channel, now)
            ready_reads = [r for r in reads if r.arrival_ns <= now]
            ready_writes = [w for w in writes if w.arrival_ns <= now]
            if draining[channel]:
                if len(writes) <= self._low_mark or not ready_writes:
                    draining[channel] = False
            elif len(writes) >= self._high_mark and ready_writes:
                draining[channel] = True
            if ready_writes and (draining[channel] or not ready_reads):
                request = (ready_writes[0] if len(ready_writes) == 1
                           else pick(ready_writes, now))
                writes.remove(request)
            else:
                request = (ready_reads[0] if len(ready_reads) == 1
                           else pick(ready_reads, now))
                reads.remove(request)
            self._issue(request, channel, now)
            progressed = True
        return progressed


class RandomChain(ManagementPolicy):
    """Translation keyed on the logical row: a random LLC-lookup delay
    and, for some rows, a chained table fetch."""

    def __init__(self, plan):
        self.plan = plan

    def translate(self, logical_row, flat_bank, row, is_write, now):
        delay, table_row = self.plan[logical_row % len(self.plan)]
        return Translation(row, delay_ns=delay, table_row=table_row)


#: Two channels (the ``tiny_geometry`` fixture has one).
TWO_CHANNELS = DRAMGeometry(channels=2, ranks_per_channel=1,
                            banks_per_rank=2, rows_per_bank=128,
                            row_bytes=2048, line_bytes=64)

#: Steps on a coarse grid make equal arrivals common; the long ones
#: cross tREFI so refreshes interleave with decisions.
_STEPS = [0.0, 0.0, 1.25, 2.5, 10.0, 40.0, 200.0, 1500.0]

chain_plans = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 1.25, 5.0, 20.0]),
              st.one_of(st.none(), st.integers(0, 127))),
    min_size=1, max_size=8)
operations = st.lists(
    st.tuples(st.sampled_from(["read", "read", "write", "drain"]),
              st.integers(0, TWO_CHANNELS.capacity_bytes // 64 - 1),
              st.sampled_from(_STEPS)),
    min_size=1, max_size=80)


def _controller_state(system):
    return (system.reads, system.writes, system.xlat_reads,
            system.row_buffer_hits, system.row_conflicts, system.row_closed,
            system.fast_accesses, system.slow_accesses, system.refreshes,
            system.read_latency_sum, system.read_count,
            list(system._clock), list(system._draining),
            system.pending_requests())


class TestArrivalOrderedQueues:
    """The arrival-ordered queues decide exactly as the reference does."""

    @pytest.mark.parametrize("scheduler", ["frfcfs", "fcfs"])
    @given(plan=chain_plans, ops=operations,
           window=st.sampled_from([2, 32]))
    @settings(max_examples=60, deadline=None)
    def test_same_decisions_as_append_order_scan(self, scheduler, plan,
                                                 ops, window):
        config = dict(scheduler=scheduler, queue_entries=window,
                      write_queue_entries=4, write_drain_high=0.5,
                      write_drain_low=0.25, refresh_enabled=True)
        systems = []
        for cls in (MemorySystem, AppendOrderReference):
            device = DRAMDevice(TWO_CHANNELS, {SLOW: ddr3_1600_slow()})
            systems.append(cls(device, ControllerConfig(**config),
                               RandomChain(plan)))
        system, reference = systems
        handles, reference_handles = [], []
        now = 0.0
        for kind, line, step in ops:
            now += step
            if kind == "drain":
                system.drain(now)
                reference.drain(now)
            else:
                handles.append(system.submit(now, line * 64, kind == "write"))
                reference_handles.append(
                    reference.submit(now, line * 64, kind == "write"))
            for queue in system._read_q + system._write_q:
                arrivals = [request.arrival_ns for request in queue]
                assert arrivals == sorted(arrivals)
            assert ([r.completion_ns for r in handles]
                    == [r.completion_ns for r in reference_handles])
            assert _controller_state(system) == _controller_state(reference)
        system.flush()
        reference.flush()
        assert ([r.completion_ns for r in handles]
                == [r.completion_ns for r in reference_handles])
        assert _controller_state(system) == _controller_state(reference)
