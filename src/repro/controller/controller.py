"""The memory controller / memory system engine.

Event-driven, request-level: each channel has a *decision clock*; at every
decision the scheduler picks among requests that have already arrived and
issues all commands for one request atomically against the device state.
``drain(t_safe)`` advances decisions only while they happen at or before
``t_safe``, which lets the CPU co-simulation stay conservative (no request
is ever scheduled before all earlier arrivals are known) — see
``repro.sim.system`` for the protocol.

The management layer (address translation, promotion, migration) is a
plug-in for the managed designs: the controller calls ``manager.translate``
at submit time and ``manager.on_scheduled`` after issuing each demand
request.  A memory system built without a manager (``standard``, ``fs``)
calls neither; its rows are the decoded rows.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional

from ..common.config import ControllerConfig
from ..common.statistics import Histogram
from ..dram.bank import BankOp
from ..dram.channel import IO_DELAY_NS
from ..dram.device import DRAMDevice
from ..dram.timing import FAST, SLOW
from .request import DEMAND_READ, DEMAND_WRITE, TRANSLATION_READ, Request
from .scheduler import make_scheduler

#: Lower-bound nudge for blocked cores (ns); guarantees loop progress.
EPSILON_NS = 0.001

#: Sort key of the per-channel queues (see ``MemorySystem._drain_channel``).
_BY_ARRIVAL = attrgetter("arrival_ns")


@dataclass(slots=True)
class Translation:
    """Outcome of translating one request's logical location.

    ``physical_row`` replaces the decoded row.  ``delay_ns`` models a
    translation found outside the translation cache but inside the LLC.
    ``table_row`` (when not None) forces a chained DRAM read of the
    translation table in the same bank before the data access.

    Slotted: one is allocated per demand access of a managed design.
    """

    physical_row: int
    delay_ns: float = 0.0
    table_row: Optional[int] = None


class ManagementPolicy:
    """Interface for the (DAS) management layer plugged into the controller."""

    #: Optional event tracer, attached by ``repro.sim.system.simulate``.
    tracer = None

    def translate(self, logical_row: int, flat_bank: int, row: int,
                  is_write: bool, now: float) -> Translation:
        """Translate a bank-local row; default is the identity."""
        return Translation(physical_row=row)

    def on_scheduled(self, request: Request, op: BankOp,
                     controller: "MemorySystem") -> None:
        """Hook called after a demand request is issued (promotions)."""

    def stats_group(self) -> Optional[Dict[str, object]]:
        """Management statistics subtree, or None for stateless policies."""
        return None

    def reset_stats(self) -> None:
        """Zero management statistics at the warmup boundary."""


class MemorySystem:
    """Multi-channel memory controller plus the DRAM device it drives."""

    def __init__(
        self,
        device: DRAMDevice,
        config: ControllerConfig,
        manager: Optional[ManagementPolicy] = None,
        energy=None,
    ) -> None:
        self.device = device
        self.config = config
        #: Unmanaged designs (no manager) skip both hooks on the hot path.
        self._managed = manager is not None
        self.manager = manager or ManagementPolicy()
        self.energy = energy
        channels = device.geometry.channels
        self._read_q: List[List[Request]] = [[] for _ in range(channels)]
        self._write_q: List[List[Request]] = [[] for _ in range(channels)]
        self._clock: List[float] = [0.0] * channels
        self._draining: List[bool] = [False] * channels
        self._high_mark = max(
            1, int(config.write_queue_entries * config.write_drain_high))
        self._low_mark = int(
            config.write_queue_entries * config.write_drain_low)
        self._scheduler = make_scheduler(
            config.scheduler, device, config.queue_entries)
        self._closed_page = config.page_policy == "closed"
        self._command_slot_ns = device.timings[SLOW].tCK
        # Refresh bookkeeping: next refresh deadline per (channel, rank).
        slow = device.timings[SLOW]
        self._refresh_enabled = config.refresh_enabled
        self._tREFI = slow.tREFI
        self._tRFC = slow.tRFC
        self._next_refresh = {
            (channel, rank): slow.tREFI
            for channel in range(device.geometry.channels)
            for rank in range(device.geometry.ranks_per_channel)
        }
        # Earliest refresh deadline per channel: the drain loop skips the
        # per-rank scan entirely until a deadline is actually due.
        self._refresh_min = [slow.tREFI] * device.geometry.channels
        # Hot-path bindings (avoid repeated attribute chains per access).
        self._mapping = device.mapping
        self._banks = device.banks
        self._rows_per_bank = device.geometry.rows_per_bank
        self.refreshes = 0
        #: Optional event tracer (attached by repro.sim.system.simulate);
        #: None keeps the issue path branch-cheap.
        self.tracer = None
        # Hot-path statistics (plain ints/floats for speed).
        self.reads = 0
        self.writes = 0
        self.xlat_reads = 0
        self.row_buffer_hits = 0
        self.row_conflicts = 0
        self.row_closed = 0
        self.fast_accesses = 0
        self.slow_accesses = 0
        self.read_latency_sum = 0.0
        self.read_count = 0
        #: Read-latency distribution (5 ns buckets up to 2 us).
        self.read_latency_hist = Histogram(5.0, 400)
        self.touched_rows = set()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, arrival_ns: float, address: int, is_write: bool,
               core: int = 0) -> Request:
        """Submit one demand access; returns the request handle to await.

        The handle returned is the *data* request; if translation requires
        a DRAM table fetch, a parent request is chained in front of it
        transparently.
        """
        channel, flat_bank, row = self._mapping.decode_flat(address)
        logical_row = flat_bank * self._rows_per_bank + row
        kind = DEMAND_WRITE if is_write else DEMAND_READ
        request = Request(arrival_ns, address, is_write, core, kind)
        request.channel = channel
        request.flat_bank = flat_bank
        request.logical_row = logical_row
        table_row = None
        if self._managed:
            translation = self.manager.translate(
                logical_row, flat_bank, row, is_write, arrival_ns)
            row = translation.physical_row
            delay = translation.delay_ns
            if delay:
                request.arrival_ns = arrival_ns + delay
            table_row = translation.table_row
        request.row = row
        if table_row is None:
            queues = self._write_q if is_write else self._read_q
            insort_right(queues[channel], request, key=_BY_ARRIVAL)
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
            insort_right(self._read_q[channel], parent, key=_BY_ARRIVAL)
        self.touched_rows.add(logical_row)
        return request

    def _enqueue(self, request: Request) -> None:
        queues = self._write_q if request.is_write else self._read_q
        insort_right(queues[request.channel], request, key=_BY_ARRIVAL)

    # ------------------------------------------------------------------
    # Draining (scheduling decisions)
    # ------------------------------------------------------------------

    def drain(self, t_safe: float) -> None:
        """Advance every channel while decisions occur at or before t_safe."""
        reads = self._read_q
        writes = self._write_q
        for channel in range(len(self._clock)):
            if reads[channel] or writes[channel]:
                self._drain_channel(channel, t_safe)

    def resolve(self, request: Request) -> float:
        """Schedule a channel forward until ``request`` is resolved.

        Only valid when no *earlier* arrival can still appear — i.e. in
        single-core co-simulation, where a blocked core submits nothing
        until this very request completes.  Returns the completion time.
        """
        while request.completion_ns is None:
            parent = request.parent
            target = parent if parent is not None else request
            self._drain_channel(target.channel, math.inf, stop=target)
        return request.completion_ns

    def flush(self) -> None:
        """Schedule everything that remains (end of simulation)."""
        self.drain(math.inf)

    def pending_requests(self) -> int:
        """Requests still queued across all channels."""
        return (sum(len(q) for q in self._read_q)
                + sum(len(q) for q in self._write_q))

    def lower_bound(self, request: Request) -> float:
        """A non-decreasing lower bound on a request's completion time.

        Used by blocked cores to publish a safe next-event time.
        """
        completion = request.completion_ns
        if completion is not None:
            return completion
        parent = request.parent
        if parent is not None and parent.completion_ns is None:
            target = parent
        else:
            target = request
        base = target.arrival_ns
        clock = self._clock[target.channel]
        if clock > base:
            base = clock
        # Note: a tighter completion bound (e.g. + tCL + tBURST) would be
        # safe for the *schedule*, but the warmup reset and the timeline
        # sampler observe state at poll boundaries, so coarsening the
        # drain windows moves those snapshots — the epsilon step is part
        # of the deterministic contract.
        return base + EPSILON_NS

    def _drain_channel(self, channel: int, t_safe: float,
                       stop: Optional[Request] = None) -> bool:
        """Make scheduling decisions on one channel.

        Decisions are made in arrival order (each request's commands are
        then placed against live bank/bus state), with the scheduler's
        pick preferring row hits and earliest-serviceable banks among the
        arrived set.  The command-level reference model
        (repro.dram.detailed, tests/test_detailed_engine.py) bounds the
        pessimism of this request-atomic approximation; matching the
        paper's testbed behaviour (its Figure 7c row-buffer profile)
        takes precedence over closing that gap — see DESIGN.md.

        Both queues stay sorted by ``arrival_ns`` (``submit`` and
        ``_enqueue`` insert after equal arrivals, and a queued request's
        arrival never changes), so the earliest arrival is at a queue
        head and each arrived set is a prefix, in the order a stable sort
        of submission order would give.
        """
        reads = self._read_q[channel]
        writes = self._write_q[channel]
        progressed = False
        # Hot loop: every binding below saves an attribute chase per
        # decision (one decision per DRAM transaction).
        clock = self._clock
        draining = self._draining
        low_mark = self._low_mark
        high_mark = self._high_mark
        refresh_enabled = self._refresh_enabled
        refresh_min = self._refresh_min
        pick = self._scheduler.pick
        inf = math.inf
        while reads or writes:
            if stop is not None and stop.completion_ns is not None:
                break
            if not writes and len(reads) == 1:
                # Dominant single-core shape: exactly one queued read.
                # Skips the ready prefixes and write-drain hysteresis
                # (with no ready writes the general path would clear the
                # draining flag, so mirror that).
                request = reads[0]
                now = clock[channel]
                arrival = request.arrival_ns
                if arrival > now:
                    now = arrival
                if now > t_safe:
                    break
                if refresh_enabled and now >= refresh_min[channel]:
                    self._refresh_due(channel, now)
                if draining[channel]:
                    draining[channel] = False
                del reads[0]
                self._issue(request, channel, now)
                progressed = True
                continue
            first = reads[0].arrival_ns if reads else inf
            if writes and writes[0].arrival_ns < first:
                first = writes[0].arrival_ns
            now = clock[channel]
            if first > now:
                now = first
            if now > t_safe:
                break
            if refresh_enabled and now >= refresh_min[channel]:
                self._refresh_due(channel, now)
            ready_reads = bisect_right(reads, now, key=_BY_ARRIVAL)
            ready_writes = bisect_right(writes, now, key=_BY_ARRIVAL)
            # Write-drain hysteresis (high/low watermarks).
            if draining[channel]:
                if len(writes) <= low_mark or not ready_writes:
                    draining[channel] = False
            elif len(writes) >= high_mark and ready_writes:
                draining[channel] = True
            if ready_writes and (draining[channel] or not ready_reads):
                queue, ready = writes, ready_writes
            else:
                queue, ready = reads, ready_reads
            if ready == 1:
                request = queue.pop(0)
            else:
                request = pick(queue[:ready], now)
                queue.remove(request)
            self._issue(request, channel, now)
            progressed = True
        return progressed

    def _refresh_due(self, channel: int, now: float) -> None:
        """Issue any auto-refreshes whose tREFI deadline has passed.

        An all-bank refresh closes and blocks every bank of the rank for
        tRFC.  Deadlines are per rank and strictly periodic (the model
        does not postpone refreshes).
        """
        geometry = self.device.geometry
        next_refresh = self._next_refresh
        ranks = geometry.ranks_per_channel
        for rank in range(ranks):
            key = (channel, rank)
            while next_refresh[key] <= now:
                start = next_refresh[key]
                base = (channel * ranks + rank) * geometry.banks_per_rank
                for bank_index in range(geometry.banks_per_rank):
                    self._banks[base + bank_index].occupy(start, self._tRFC)
                self.refreshes += 1
                next_refresh[key] = start + self._tREFI
        self._refresh_min[channel] = min(
            next_refresh[(channel, rank)] for rank in range(ranks))

    def _issue(self, request: Request, channel: int, now: float) -> None:
        bank = self._banks[request.flat_bank]
        is_write = request.is_write
        op = bank.schedule(request.row, is_write, now)
        completion = op.data_end_ns
        if not is_write:
            completion += IO_DELAY_NS
        request.completion_ns = completion
        request.op = op
        if self._closed_page:
            # Auto-precharge after the column access (closed-page policy).
            bank.precharge_now(op.data_end_ns)
        clock = self._clock
        base = clock[channel]
        if now > base:
            base = now
        clock[channel] = base + self._command_slot_ns
        demand = request.kind != TRANSLATION_READ
        if not demand:
            self.xlat_reads += 1
        else:
            if is_write:
                self.writes += 1
            else:
                self.reads += 1
                latency = completion - request.arrival_ns
                self.read_latency_sum += latency
                self.read_latency_hist.add(latency)
                self.read_count += 1
            if op.row_hit:
                self.row_buffer_hits += 1
            else:
                if op.row_conflict:
                    self.row_conflicts += 1
                else:
                    self.row_closed += 1
                if op.subarray_class == FAST:
                    self.fast_accesses += 1
                else:
                    self.slow_accesses += 1
        if self.tracer is not None:
            if not demand:
                name = "xlat_read"
            elif is_write:
                name = "write"
            else:
                name = "read"
            self.tracer.emit(
                op.first_command_ns, "dram", name,
                dur_ns=op.data_end_ns - op.first_command_ns, tid=channel,
                bank=request.flat_bank, row=request.row,
                hit=op.row_hit, conflict=op.row_conflict, core=request.core)
        if self.energy is not None:
            self.energy.record_op(op, is_write)
        if demand and self._managed:
            self.manager.on_scheduled(request, op, self)
        child = request.dependent
        if child is not None:
            child.arrival_ns = max(child.arrival_ns,
                                   completion + request.extra_delay_ns)
            child.parent = None
            request.dependent = None
            self._enqueue(child)

    # ------------------------------------------------------------------
    # Migration support (called by the management layer)
    # ------------------------------------------------------------------

    def queue_migration(self, flat_bank: int, ready: float, duration: float,
                        subarrays=frozenset(), callback=None) -> bool:
        """Defer a promotion swap to the end of the bank's open burst (the
        model used for DAS promotions — see Bank.pending_migrations).

        ``subarrays`` scopes the window to the physical subarrays the swap
        involves; ``callback`` commits the swap's logical effect
        (translation-table update) when the window starts.  Returns False
        when the bank's bounded migration queue dropped the request.
        """
        accepted = self.device.banks[flat_bank].defer_migration(
            ready, duration, subarrays, callback)
        if accepted and self.energy is not None:
            self.energy.record_migration()
        return accepted

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def demand_accesses(self) -> int:
        """Demand (non-migration) accesses seen by the controller."""
        return self.reads + self.writes

    @property
    def mean_read_latency_ns(self) -> float:
        """Mean demand-read latency in nanoseconds."""
        return self.read_latency_sum / self.read_count if self.read_count else 0.0

    def read_latency_percentile(self, fraction: float) -> float:
        """Approximate read-latency percentile in ns (5 ns resolution)."""
        return self.read_latency_hist.percentile(fraction)

    def access_location_fractions(self) -> dict:
        """Fractions of demand accesses served by the row buffer, fast
        subarrays and slow subarrays (Figure 7c/7f)."""
        total = self.row_buffer_hits + self.fast_accesses + self.slow_accesses
        if total == 0:
            return {"row_buffer": 0.0, "fast": 0.0, "slow": 0.0}
        return {
            "row_buffer": self.row_buffer_hits / total,
            "fast": self.fast_accesses / total,
            "slow": self.slow_accesses / total,
        }

    def footprint_bytes(self) -> int:
        """Distinct logical rows touched times the row size."""
        return len(self.touched_rows) * self.device.geometry.row_bytes

    def reset_stats(self) -> None:
        """Zero all counters at the warmup boundary (state preserved)."""
        self.reads = 0
        self.writes = 0
        self.xlat_reads = 0
        self.row_buffer_hits = 0
        self.row_conflicts = 0
        self.row_closed = 0
        self.fast_accesses = 0
        self.slow_accesses = 0
        self.refreshes = 0
        self.read_latency_sum = 0.0
        self.read_count = 0
        self.read_latency_hist.reset()
        self.touched_rows = set()
        for bank in self.device.banks:
            bank.reset_stats()
        self.manager.reset_stats()
        if self.energy is not None:
            self.energy.reset()

    def stats_group(self) -> Dict[str, object]:
        """Export the controller's statistics tree.

        The counters are this controller's attributes (see ``_issue``);
        bank activity is aggregated into a ``[banks]`` child and the
        management layer's own tree (translation / migration /
        promotion for DAS) is the ``[manager]`` child.
        """
        total_row_ops = (self.row_buffer_hits + self.row_conflicts
                         + self.row_closed)
        activations = precharges = windows = 0
        for bank in self.device.banks:
            activations += bank.activations
            precharges += bank.precharges
            windows += bank.migration_windows
        group: Dict[str, object] = {
            "reads": self.reads,
            "writes": self.writes,
            "translation_reads": self.xlat_reads,
            "row_buffer_hits": self.row_buffer_hits,
            "row_conflicts": self.row_conflicts,
            "row_closed": self.row_closed,
            "fast_accesses": self.fast_accesses,
            "slow_accesses": self.slow_accesses,
            "refreshes": self.refreshes,
            "mean_read_latency_ns": self.mean_read_latency_ns,
            "read_latency_p50_ns": self.read_latency_percentile(0.50),
            "read_latency_p95_ns": self.read_latency_percentile(0.95),
            "read_latency_p99_ns": self.read_latency_percentile(0.99),
            "row_buffer_hit_rate": (self.row_buffer_hits / total_row_ops
                                    if total_row_ops else 0.0),
            "footprint_bytes": self.footprint_bytes(),
            "banks": {"activations": activations, "precharges": precharges,
                      "migration_windows": windows},
        }
        manager_stats = self.manager.stats_group()
        if manager_stats is not None:
            group["manager"] = manager_stats
        return group
