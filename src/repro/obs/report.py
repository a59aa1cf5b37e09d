"""Self-contained HTML report over the run ledger: ``repro report``.

:func:`build_report` turns the ledger (:mod:`repro.obs.ledger`) into a
single HTML page — summary tiles, the recent-run table, per-design,
per-workload and per-origin breakdowns, and the latest validate
snapshot — with **zero external requests**: all CSS is one inline
``<style>`` block and there is no JavaScript at all.  The page can be
opened from a CI artifact tarball or e-mailed as-is.

Number formatting reuses :func:`repro.obs.render.format_number` so the
page agrees with the terminal reports; everything user-sourced passes
through :func:`html.escape`.
"""

from __future__ import annotations

import html
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .ledger import RunLedger, get_ledger
from .render import format_number

#: How many ledger rows the recent-runs table shows by default.
DEFAULT_RUN_LIMIT = 50

# One restrained inline stylesheet: neutral grays for chrome, a single
# accent hue for the fresh-run badge, status colors reserved for
# pass/fail badges.
_CSS = """
:root {
  --ink: #1a1d21; --ink-2: #55606b; --ink-3: #8a94a0;
  --line: #e3e7eb; --surface: #ffffff; --surface-2: #f6f8fa;
  --accent: #2563a8; --good: #1a7f37; --bad: #b42318;
}
* { box-sizing: border-box; }
body { margin: 2rem auto; max-width: 70rem; padding: 0 1rem;
       font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
       color: var(--ink); background: var(--surface); }
h1 { font-size: 1.4rem; margin-bottom: .25rem; }
h2 { font-size: 1.05rem; margin: 2rem 0 .5rem; }
.sub { color: var(--ink-2); margin-top: 0; }
.tiles { display: flex; flex-wrap: wrap; gap: .75rem; margin: 1rem 0; }
.tile { background: var(--surface-2); border: 1px solid var(--line);
        border-radius: 8px; padding: .6rem 1rem; min-width: 8rem; }
.tile .v { font-size: 1.3rem; font-weight: 600; }
.tile .k { color: var(--ink-2); font-size: .8rem; }
table { border-collapse: collapse; width: 100%; margin: .5rem 0; }
th, td { text-align: right; padding: .3rem .6rem;
         border-bottom: 1px solid var(--line); white-space: nowrap; }
th { color: var(--ink-2); font-weight: 600; font-size: .8rem;
     text-transform: uppercase; letter-spacing: .03em; }
th:first-child, td:first-child { text-align: left; }
.badge { display: inline-block; border-radius: 999px; padding: 0 .55em;
         font-size: .8rem; font-weight: 600; }
.badge.ok { color: var(--good); background: #e6f4ea; }
.badge.fail { color: var(--bad); background: #fbeae8; }
.badge.hit { color: var(--ink-2); background: var(--surface-2); }
.badge.fresh { color: var(--accent); background: #e8f0f9; }
.note { color: var(--ink-3); font-size: .85rem; }
footer { margin-top: 3rem; color: var(--ink-3); font-size: .8rem;
         border-top: 1px solid var(--line); padding-top: .75rem; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: Optional[float], digits: Optional[int] = None) -> str:
    if value is None:
        return "-"
    if digits is not None:
        return f"{value:.{digits}f}"
    return format_number(float(value))


def _stamp(ts: Optional[float]) -> str:
    if ts is None:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(ts))


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]],
           raw: bool = False) -> str:
    """An HTML table; cells are escaped unless ``raw`` (pre-built HTML)."""
    cell = (lambda c: c) if raw else _esc
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell(c)}</td>" for c in row) + "</tr>"
        for row in rows)
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _tiles(stats: Dict[str, object],
           runs: List[Dict[str, object]]) -> str:
    fresh = sum(1 for r in runs if not r["cache_hit"])
    fresh_wall = sum(float(r["wall_s"]) for r in runs if not r["cache_hit"])
    tiles = [
        ("recorded runs", format_number(float(stats.get("runs", 0)))),
        ("fresh simulations", format_number(float(fresh))),
        ("fresh wall time", f"{fresh_wall:.1f}s"),
        ("validate runs", format_number(float(stats.get("validate_runs",
                                                        0)))),
    ]
    body = "".join(
        f'<div class="tile"><div class="v">{_esc(v)}</div>'
        f'<div class="k">{_esc(k)}</div></div>' for k, v in tiles)
    return f'<div class="tiles">{body}</div>'


def _runs_section(runs: List[Dict[str, object]], limit: int) -> str:
    rows = []
    for r in runs[:limit]:
        origin = _esc(r["origin"])
        source = ('<span class="badge hit">cache</span>' if r["cache_hit"]
                  else '<span class="badge fresh">fresh</span>')
        rows.append([
            _esc(_stamp(r["ts"])), _esc(r["workload"]), _esc(r["design"]),
            _esc(format_number(float(r["refs"]))), origin, source,
            _fmt(r["ipc"], 3),
            _fmt(r["row_buffer_hit_rate"], 3), _fmt(r["fast_hit_rate"], 3),
            _esc(_fmt(r["promotions"])), f'{float(r["wall_s"]):.3f}s',
        ])
    table = _table(
        ["when", "workload", "design", "refs", "origin", "source", "ipc",
         "rb hit", "fast hit", "promos", "wall"],
        rows, raw=True)
    note = ""
    if len(runs) > limit:
        note = (f'<p class="note">showing the {limit} most recent of '
                f'{len(runs)} rows — query the rest with '
                f'<code>repro ledger query</code>.</p>')
    return table + note


def _breakdown_section(groups: List[Dict[str, object]]) -> str:
    rows = [[_esc(g["name"]), _esc(format_number(float(g["runs"]))),
             _esc(format_number(float(g["fresh"] or 0))),
             f'{float(g["fresh_wall_s"] or 0.0):.1f}s',
             _fmt(g["mean_ipc"], 3), _fmt(g["mean_mpki"], 2)]
            for g in groups]
    return _table(["", "runs", "fresh", "fresh wall", "mean ipc",
                   "mean mpki"], rows, raw=True)


def _validate_section(latest: Optional[Dict[str, object]]) -> str:
    if latest is None:
        return '<p class="note">no validate runs recorded yet — run ' \
               '<code>repro validate</code>.</p>'
    badge = ('<span class="badge ok">PASS</span>' if latest["ok"]
             else '<span class="badge fail">FAIL</span>')
    row = [[_esc(_stamp(latest["ts"])), _esc(latest["scale"]),
            _esc(latest["source"]), badge,
            _esc(format_number(float(latest["passed"]))),
            _esc(format_number(float(latest["failed"]))),
            _esc(format_number(float(latest["skipped"]))),
            _esc(format_number(float(latest["errors"])))]]
    return _table(["when", "scale", "source", "result", "pass", "fail",
                   "skip", "error"], row, raw=True)


def build_report(ledger: Optional[RunLedger] = None,
                 limit: int = DEFAULT_RUN_LIMIT,
                 now: Optional[float] = None) -> str:
    """The full report page as one HTML string (no I/O besides SQLite)."""
    ledger = ledger if ledger is not None else get_ledger()
    stats = ledger.stats()
    runs = ledger.runs()
    generated = _stamp(now if now is not None else time.time())
    sections = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        '<meta name="viewport" content="width=device-width, initial-scale=1">',
        "<title>repro run report</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>repro run report</h1>",
        f'<p class="sub">generated {_esc(generated)} from '
        f'<code>{_esc(stats.get("path", "?"))}</code></p>',
        _tiles(stats, runs),
        "<h2>Recent runs</h2>", _runs_section(runs, limit),
        "<h2>By design</h2>", _breakdown_section(ledger.breakdown("design")),
        "<h2>By workload</h2>",
        _breakdown_section(ledger.breakdown("workload")),
        "<h2>By origin</h2>", _breakdown_section(ledger.breakdown("origin")),
        "<h2>Latest validation</h2>",
        _validate_section(ledger.latest_validate()),
        "<footer>self-contained report — inline CSS only, no scripts, "
        "no external requests.</footer>",
        "</body></html>",
    ]
    return "\n".join(sections)


def write_report(path: Path,
                 ledger: Optional[RunLedger] = None,
                 limit: int = DEFAULT_RUN_LIMIT) -> Path:
    """Render :func:`build_report` to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(build_report(ledger, limit=limit), encoding="utf-8")
    return path
