"""Cross-cutting property tests (hypothesis) over the full memory system.

These drive the controller and the DAS management layer with arbitrary
request streams and assert the invariants that must survive anything:
causality (completion after arrival), conservation (every request is
served exactly once), bus monotonicity, the exclusive-cache permutation
invariant, and run determinism.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import AsymmetricConfig
from repro.common.config import DRAMGeometry
from repro.core.variants import build_memory_system
from repro.common.config import SystemConfig
from repro.dram.channel import Channel
from repro.dram.timing import ddr3_1600_slow


def tiny_system(design="das", seed=3):
    config = SystemConfig(
        geometry=DRAMGeometry(channels=1, ranks_per_channel=1,
                              banks_per_rank=2, rows_per_bank=128,
                              row_bytes=2048, line_bytes=64),
        asym=AsymmetricConfig(migration_group_rows=16,
                              translation_cache_bytes=64),
        design=design,
        seed=seed,
    )
    return build_memory_system(config)


request_streams = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),   # inter-arrival gap
        st.integers(min_value=0, max_value=(1 << 19) - 64),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)


@st.composite
def stream_and_design(draw):
    stream = draw(request_streams)
    design = draw(st.sampled_from(["standard", "das", "das_fm", "fs",
                                   "das_incl"]))
    return stream, design


class TestSystemInvariants:
    @given(stream_and_design())
    @settings(max_examples=40, deadline=None)
    def test_causality_and_conservation(self, case):
        stream, design = case
        system = tiny_system(design)
        now = 0.0
        requests = []
        for gap, address, is_write in stream:
            now += gap
            requests.append((now, system.submit(now, address, is_write)))
        system.flush()
        for arrival, request in requests:
            assert request.resolved
            assert request.completion_ns >= arrival
        reads = sum(1 for _, r in requests if not r.is_write)
        writes = sum(1 for _, r in requests if r.is_write)
        assert system.reads == reads
        assert system.writes == writes
        assert system.pending_requests() == 0

    @given(stream_and_design())
    @settings(max_examples=25, deadline=None)
    def test_location_fractions_valid(self, case):
        stream, design = case
        system = tiny_system(design)
        now = 0.0
        for gap, address, is_write in stream:
            now += gap
            system.submit(now, address, is_write)
        system.flush()
        fractions = system.access_location_fractions()
        assert all(0.0 <= v <= 1.0 for v in fractions.values())
        assert sum(fractions.values()) == pytest.approx(1.0)

    @given(request_streams)
    @settings(max_examples=25, deadline=None)
    def test_determinism(self, stream):
        def run():
            system = tiny_system("das")
            now = 0.0
            completions = []
            for gap, address, is_write in stream:
                now += gap
                completions.append(system.submit(now, address, is_write))
            system.flush()
            return [r.completion_ns for r in completions]

        assert run() == run()

    @given(request_streams)
    @settings(max_examples=25, deadline=None)
    def test_exclusive_permutation_survives(self, stream):
        system = tiny_system("das")
        now = 0.0
        for gap, address, is_write in stream:
            now += gap
            system.submit(now, address, is_write)
        system.flush()
        manager = system.manager
        organization = manager.organization
        table = manager.table
        per_bank = organization.groups_per_bank
        for index, entry in enumerate(table._groups):
            if entry is None:
                continue
            flat, group = divmod(index, per_bank)
            slots = [table.slot_of(flat, group, local)
                     for local in range(organization.group_rows)]
            assert sorted(slots) == list(range(organization.group_rows))

    @given(request_streams)
    @settings(max_examples=20, deadline=None)
    def test_fs_never_slower_reads_than_standard(self, stream):
        """All-fast DRAM mean read latency never exceeds standard's on
        the identical request stream."""
        latencies = {}
        for design in ("standard", "fs"):
            system = tiny_system(design)
            now = 0.0
            for gap, address, is_write in stream:
                now += gap
                system.submit(now, address, is_write)
            system.flush()
            latencies[design] = system.mean_read_latency_ns
        assert latencies["fs"] <= latencies["standard"] + 1e-6


class TestChannelProperties:
    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100),
                              st.booleans()),
                    min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_bus_slots_never_overlap(self, reservations):
        channel = Channel()
        slow = ddr3_1600_slow()
        previous_end = 0.0
        for ready, is_write in reservations:
            _col, start, end = channel.reserve(ready, is_write, slow)
            assert start >= previous_end - 1e-9
            assert end - start == pytest.approx(slow.tBURST)
            previous_end = end
