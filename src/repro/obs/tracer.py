"""Low-overhead, ring-buffered event tracer.

Components hold ``self.tracer = None`` and guard every emission site with
an ``is not None`` check, so a disabled tracer costs one attribute load
per candidate event and allocates nothing.  When enabled, events land in
a bounded ``deque`` ring: a run that outgrows the ring keeps the most
recent ``capacity`` events and counts the rest as dropped (the tracer
never grows without bound and never throws away the end of the run,
which is usually the part being debugged).

Exports:

* ``chrome_trace()`` / ``write_chrome_trace()`` — the Chrome trace-event
  JSON format, loadable in Perfetto (https://ui.perfetto.dev) and
  chrome://tracing.  Durations become complete ("X") events; point
  events become instants ("i").
* ``timeline()`` — a plain-text, time-sorted listing for terminals.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List, NamedTuple, Optional


class TraceEvent(NamedTuple):
    """One recorded event (times in simulated nanoseconds)."""

    ts_ns: float
    category: str
    name: str
    dur_ns: float
    tid: int
    args: Optional[Dict[str, object]]


#: Track (Chrome "thread") ids for event lanes that are not per-core.
TRANSLATION_TID = 90
MIGRATION_TID = 91


class EventTracer:
    """Bounded ring buffer of :class:`TraceEvent` records."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self.emitted = 0

    def emit(self, ts_ns: float, category: str, name: str,
             dur_ns: float = 0.0, tid: int = 0, **args: object) -> None:
        """Record one event; oldest events fall out when the ring is full."""
        self.emitted += 1
        self._events.append(
            TraceEvent(ts_ns, category, name, dur_ns, tid,
                       args if args else None))

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events displaced from the ring by newer ones."""
        return self.emitted - len(self._events)

    def events(self) -> List[TraceEvent]:
        """All retained events in timestamp order.

        The ring holds events in emission order; consumers from different
        components interleave, so export sorts by timestamp (stable, so
        simultaneous events keep emission order).
        """
        return sorted(self._events, key=lambda event: event.ts_ns)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, object]:
        """The run as a Chrome trace-event JSON object.

        Timestamps are microseconds (the format's unit); one simulated
        nanosecond maps to one thousandth of a trace microsecond, so
        Perfetto's ruler reads simulated time directly.
        """
        trace_events: List[Dict[str, object]] = []
        tids = set()
        for event in self.events():
            tids.add(event.tid)
            record: Dict[str, object] = {
                "name": event.name,
                "cat": event.category,
                "ts": event.ts_ns / 1000.0,
                "pid": 0,
                "tid": event.tid,
            }
            if event.dur_ns > 0.0:
                record["ph"] = "X"
                record["dur"] = event.dur_ns / 1000.0
            else:
                record["ph"] = "i"
                record["s"] = "t"
            if event.args:
                record["args"] = event.args
            trace_events.append(record)
        metadata = [
            {"name": "process_name", "ph": "M", "pid": 0,
             "args": {"name": "repro simulation"}},
        ]
        for tid in sorted(tids):
            metadata.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "args": {"name": _lane_name(tid)},
            })
        return {
            "traceEvents": metadata + trace_events,
            "displayTimeUnit": "ns",
            "otherData": {
                "emitted": self.emitted,
                "dropped": self.dropped,
            },
        }

    def write_chrome_trace(self, path: str) -> None:
        """Write :meth:`chrome_trace` as JSON to ``path``."""
        with open(path, "w") as stream:
            json.dump(self.chrome_trace(), stream)

    def timeline(self, limit: Optional[int] = None) -> str:
        """Plain-text timeline, one time-sorted event per line."""
        lines: List[str] = []
        events = self.events()
        shown = events if limit is None else events[:limit]
        for event in shown:
            line = f"{event.ts_ns:14.3f} ns  {event.category:<12} {event.name}"
            if event.dur_ns > 0.0:
                line += f"  dur={event.dur_ns:.2f} ns"
            if event.args:
                detail = " ".join(f"{k}={v}" for k, v in event.args.items())
                line += f"  [{detail}]"
            lines.append(line)
        if limit is not None and len(events) > limit:
            lines.append(f"... {len(events) - limit} more events")
        if self.dropped:
            lines.append(f"({self.dropped} earlier events dropped by the "
                         f"{self.capacity}-event ring)")
        return "\n".join(lines)


def _lane_name(tid: int) -> str:
    """Human label for a trace lane (thread) id."""
    if tid == TRANSLATION_TID:
        return "translation"
    if tid == MIGRATION_TID:
        return "migration"
    if tid >= 64:
        return f"lane{tid}"
    return f"channel/core {tid}"
