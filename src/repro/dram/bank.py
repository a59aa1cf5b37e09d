"""Bank timing state machine.

The engine is *request level*: all commands needed by one request
(PRE? ACT? RD/WR) are scheduled atomically against the bank's next-allowed
timestamps, the rank's activation window and the channel's data bus.  See
DESIGN.md "Modelling decisions" for the fidelity argument.

Every bank lays its rows out fast first: rows below the bank's first slow
row use the fast timing class, the rest the slow one.  Homogeneous banks
put that bound at 0 (standard) or past the last row (FS).

Hot path: :meth:`Bank.schedule` runs once per DRAM transaction.  All
timing parameters come from precomputed :class:`TimingTable` structures
(flat ``__slots__`` floats, derived values like tRC computed once at
device build) instead of re-deriving dataclass properties per access —
see DESIGN.md §9.  It applies the shared :class:`~repro.dram.rank.Rank`
and :class:`~repro.dram.channel.Channel` constraints in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .channel import TURNAROUND_NS, Channel
from .rank import Rank
from .timing import FAST, SLOW, TimingParams, TimingTable, build_timing_tables

_INF = math.inf


@dataclass(slots=True)
class BankOp:
    """One scheduled DRAM request's observable timing (one per request)."""

    first_command_ns: float
    data_start_ns: float
    data_end_ns: float
    row_hit: bool
    row_conflict: bool
    activated: bool
    precharged: bool
    subarray_class: str


class Bank:
    """One DRAM bank with per-subarray-class timing."""

    __slots__ = (
        "slow", "fast", "first_slow_row", "subarray_of", "rank", "channel",
        "open_row", "_open_table",
        "next_activate", "next_precharge_ok", "column_ready",
        "busy_until", "pending_migrations", "active_migrations",
        "row_timeout_ns", "last_column_ns",
        "activations", "precharges", "migration_windows",
    )

    def __init__(
        self,
        timings: Dict[str, TimingParams],
        first_slow_row: int,
        rank: Rank,
        channel: Channel,
        subarray_of: Optional[Callable[[int], int]] = None,
        tables: Optional[Dict[str, TimingTable]] = None,
    ) -> None:
        if SLOW not in timings:
            raise ValueError("bank requires at least the slow timing class")
        if first_slow_row > 0 and FAST not in timings:
            raise ValueError("fast rows require the fast timing class")
        if tables is None:
            tables = build_timing_tables(timings)
        #: Precomputed flat timing tables (shared across a device's banks).
        self.slow: TimingTable = tables[SLOW]
        self.fast: TimingTable = tables.get(FAST, self.slow)
        #: Rows below this one are fast, the rest slow.
        self.first_slow_row = first_slow_row
        #: Physical subarray index of a row (for migration-window scoping).
        self.subarray_of = subarray_of or (lambda row: row // 64)
        self.rank = rank
        self.channel = channel
        self.open_row: Optional[int] = None
        self._open_table: TimingTable = self.slow
        #: Earliest time a new ACT may issue on this bank.
        self.next_activate = 0.0
        #: Earliest time a PRE may issue (tRAS / tRTP / tWR constraints).
        self.next_precharge_ok = 0.0
        #: Earliest time a column command may issue to the open row.
        self.column_ready = math.inf
        #: End of any bank-occupying maintenance (migration) window.
        self.busy_until = 0.0
        #: Idle timeout for the controller's "timeout" page policy, or
        #: None for pure open-page (set by the memory system).
        self.row_timeout_ns: Optional[float] = None
        #: Time of the last column command (drives the idle timeout).
        self.last_column_ns = 0.0
        #: Deferred migrations: (ready_ns, duration_ns, subarrays, commit).
        #: A swap triggered by an access is *not* performed immediately: it
        #: waits until the open row's burst naturally ends (next non-hit
        #: access), because the source row buffer is in use until then.
        #: ``commit`` flips the translation table when the window starts —
        #: until the rows begin moving, the old mapping stays live.
        self.pending_migrations: List[Tuple[float, float, frozenset, object]] = []
        #: Running migration windows as (end_ns, subarrays).  Only accesses
        #: targeting an involved subarray wait; the rest of the bank keeps
        #: serving (the migration path is internal to two neighbouring
        #: subarrays and their shared half row buffers).
        #: Entries are ``(end_ns, subarray_tuple)`` — tuples, not sets:
        #: membership scans are over one or two elements.
        self.active_migrations: List[Tuple[float, tuple]] = []
        # Activity counters (aggregated into the controller's stats tree).
        self.activations = 0
        self.precharges = 0
        self.migration_windows = 0

    def reset_stats(self) -> None:
        """Zero activity counters at the warmup boundary."""
        self.activations = 0
        self.precharges = 0
        self.migration_windows = 0

    def schedule(self, row: int, is_write: bool, earliest: float) -> BankOp:
        """Schedule one read/write to ``row`` not before ``earliest``.

        Updates bank, rank and channel state; returns the op timing.  An
        ACT waits tRRD after the rank's last ACT and tFAW after its fourth
        most recent one.  The column command waits for tCCD after the
        channel's last one and for the data bus, plus the turnaround when
        the bus changes direction; the burst then holds the bus.
        """
        open_row = self.open_row
        if (self.row_timeout_ns is not None and open_row is not None
                and earliest - self.last_column_ns > self.row_timeout_ns):
            # Timeout policy: the idle row was auto-precharged at
            # last-use + timeout, so this access sees a closed bank.
            close = self.last_column_ns + self.row_timeout_ns
            if close < self.next_precharge_ok:
                close = self.next_precharge_ok
            open_row = self.open_row = None
            self.column_ready = _INF
            ready = close + self._open_table.tRP
            if ready > self.next_activate:
                self.next_activate = ready
        row_hit = open_row == row
        if not row_hit:
            if self.pending_migrations:
                # The open burst (if any) has ended: start deferred swaps.
                self._start_pending_migrations()
                open_row = self.open_row
            if self.active_migrations:
                earliest = self._wait_for_migrations(row, earliest)
        if earliest < self.busy_until:
            earliest = self.busy_until
        if row < self.first_slow_row:
            table = self.fast
            row_class = FAST
        else:
            table = self.slow
            row_class = SLOW
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
            rank = self.rank
            act = act_ready
            spaced = rank.last_act + rank.tRRD
            if spaced > act:
                act = spaced
            window = rank.act_window
            if len(window) == 4:
                spaced = window[0] + rank.tFAW
                if spaced > act:
                    act = spaced
            rank.last_act = act
            window.append(act)
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
        channel = self.channel
        latency = table.tCWL if is_write else table.tCL
        earliest_data = channel.bus_free
        last_was_write = channel.last_was_write
        if last_was_write is not None and last_was_write != is_write:
            earliest_data += TURNAROUND_NS
        col = col_ready
        if channel.next_column > col:
            col = channel.next_column
        bus_ready = earliest_data - latency
        if bus_ready > col:
            col = bus_ready
        data_start = col + latency
        data_end = data_start + table.tBURST
        channel.bus_free = data_end
        channel.next_column = col + table.tCCD
        channel.last_was_write = is_write
        self.last_column_ns = col
        if is_write:
            pre_ok = data_end + table.tWR
        else:
            pre_ok = col + table.tRTP
        if pre_ok > self.next_precharge_ok:
            self.next_precharge_ok = pre_ok
        return BankOp(
            first_command_ns=first_cmd,
            data_start_ns=data_start,
            data_end_ns=data_end,
            row_hit=row_hit,
            row_conflict=row_conflict,
            activated=activated,
            precharged=precharged,
            subarray_class=row_class,
        )

    def occupy(self, earliest: float, duration: float) -> Tuple[float, float]:
        """Block the bank for a maintenance window (row migration).

        The window starts once any open row can be precharged and closed.
        Returns ``(start, end)`` of the window.
        """
        if duration <= 0:
            raise ValueError("occupy duration must be positive")
        start = max(earliest, self.busy_until)
        if self.open_row is not None:
            pre = max(start, self.next_precharge_ok)
            start = pre + self._open_table.tRP
            self.open_row = None
            self.precharges += 1
        start = max(start, self.next_activate)
        end = start + duration
        self.busy_until = end
        self.next_activate = max(self.next_activate, end)
        self.next_precharge_ok = max(self.next_precharge_ok, end)
        self.column_ready = math.inf
        return (start, end)

    #: Bounded migration queue depth per bank: a controller implementation
    #: holds a small number of outstanding swaps; further promotions are
    #: dropped until a slot frees (they will re-trigger on a later access).
    MIGRATION_QUEUE_DEPTH = 2

    def _start_pending_migrations(self) -> None:
        """Convert deferred swaps into running windows and commit their
        logical effect (the burst that deferred them has ended).

        Following Figure 6 of the paper, the four-step swap occupies the
        source subarray during its first half (moving both rows into the
        migration rows) and the destination subarray during its second
        half (the parallel placements of steps 3-4), so each window blocks
        one subarray for only half the swap latency.
        """
        last_end = 0.0
        self.migration_windows += len(self.pending_migrations)
        windows = self.active_migrations
        for ready, duration, subarrays, commit in self.pending_migrations:
            start = max(ready, self.next_precharge_ok
                        if self.open_row is not None else 0.0, last_end)
            end = start + duration
            last_end = end
            ordered = sorted(subarrays)
            if len(ordered) >= 2:
                half = start + duration / 2.0
                windows.append((half, (ordered[0],)))
                windows.append((end, tuple(ordered[1:])))
            else:
                windows.append((end, tuple(ordered)))
            if commit is not None:
                commit()
        self.pending_migrations = []

    def _wait_for_migrations(self, row: int, earliest: float) -> float:
        """Delay an access while a migration involves its subarray; prune
        windows that have already finished."""
        subarray = self.subarray_of(row)
        live: List[Tuple[float, frozenset]] = []
        for end, subarrays in self.active_migrations:
            if end <= earliest:
                continue
            live.append((end, subarrays))
            if subarray in subarrays:
                earliest = end
        self.active_migrations = live
        return earliest

    def earliest_service(self, row: int) -> float:
        """Earliest time the first command for ``row`` could issue.

        Used by the controller's first-ready decision loop; does not
        mutate state.  Row hits can use the open row buffer immediately;
        other requests wait for precharge legality, the activate window
        and any migration involving their subarray.
        """
        if self.open_row == row and not self.pending_migrations:
            return max(self.column_ready, self.busy_until)
        if self.open_row is None:
            ready = max(self.next_activate, self.busy_until)
        else:
            ready = max(self.next_precharge_ok, self.busy_until)
        if self.active_migrations:
            subarray = self.subarray_of(row)
            for end, subarrays in self.active_migrations:
                if end > ready and subarray in subarrays:
                    ready = end
        return ready

    def defer_migration(self, ready: float, duration: float,
                        subarrays=frozenset(), callback=None) -> bool:
        """Queue a migration window to run when the current burst ends.

        ``subarrays`` are the physical subarray indices the swap involves
        (only accesses targeting them wait); ``callback`` (no-arg) commits
        the migration's logical effect when the window starts.  Returns
        False (dropping the request) when the bank's bounded migration
        queue is full.
        """
        if duration <= 0:
            raise ValueError("migration duration must be positive")
        if len(self.pending_migrations) >= self.MIGRATION_QUEUE_DEPTH:
            return False
        self.pending_migrations.append(
            (ready, duration, frozenset(subarrays), callback))
        return True

    def precharge_now(self, earliest: float) -> float:
        """Close the open row (used by closed-page policy / drain); returns
        the time the bank becomes ready for the next ACT."""
        if self.open_row is None:
            return max(earliest, self.next_activate)
        pre = max(earliest, self.next_precharge_ok)
        ready = pre + self._open_table.tRP
        self.open_row = None
        self.precharges += 1
        self.column_ready = math.inf
        self.next_activate = max(self.next_activate, ready)
        return ready
