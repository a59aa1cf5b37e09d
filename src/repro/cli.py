"""Command-line interface: ``python -m repro`` / ``repro``.

Examples::

    repro list                     # show all experiments
    repro run table1               # print a table/figure
    repro run fig7a --refs 50000   # quicker, shorter run
    repro run all --jobs 8         # regenerate everything in parallel
    repro bench mcf --design das   # one ad-hoc workload run
    repro stats mcf --design das   # full nested statistics report
    repro stats mcf --timeline     # phase-resolved timeline sparklines
    repro compare mcf:das mcf:standard   # ranked cross-run stat deltas
    repro events mcf --out t.json  # capture a Perfetto-loadable trace
    repro validate --scale ci      # machine-check paper-fidelity claims
    repro validate --scale full --from-snapshot validation/results_full.json
    repro docs experiments --check # verify EXPERIMENTS.md regenerates
    repro cache stats              # the content-addressed result store
    repro cache gc --max-mb 100    # evict LRU entries past a size cap
    repro ledger ls                # recent runs from the run ledger
    repro ledger query --origin run --json   # filtered run history
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import List, Optional

from .core.variants import DESIGNS
from .exec.pool import DEFAULT_RETRIES
from .experiments.registry import (
    EXPERIMENTS,
    experiment_ids,
    run_experiments,
    study,
)
from .sim.runner import TraceTooShort, run_workload
from .trace.ingest import TraceFormatError
from .trace.library import MIX_PREFIX, TRACE_PREFIX, UnknownWorkload
from .trace.multiprog import mix_names
from .trace.spec2006 import benchmark_names


def _at_least(minimum, kind=int, maximum=None):
    """Argparse type: ``kind(text)``, rejecting values below ``minimum``,
    above ``maximum`` (when given) and, for floats, ``nan`` and ``inf``.

    Out-of-range values are otherwise misread further down: ``--refs 0``
    falls back to the full-scale default, a negative ``--limit`` drops
    rows off the end of a slice, a negative ``cache gc --max-mb`` or
    ``ledger prune --keep-last`` empties the store or the ledger,
    ``cache gc --max-mb 1e303`` overflows its byte count, and ``nan``
    compares false with every bound, so ``compare --threshold nan``
    reports nothing.
    Refusing them here exits 2 naming the flag.
    """
    def convert(text: str):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {text}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(
                f"must be <= {maximum}, got {text}")
        return value

    convert.__name__ = kind.__name__  # "invalid int value: ..." messages
    return convert


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAS-DRAM (MICRO 2015) reproduction harness")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment",
                     help="experiment id (see 'repro list') or 'all'")
    run.add_argument("--refs", type=_at_least(1), default=None,
                     help="memory references per core (default: full scale)")
    run.add_argument("--no-cache", action="store_true",
                     help="ignore and do not write the result cache")
    run.add_argument("--jobs", "-j", type=_at_least(1), default=1,
                     metavar="N",
                     help="run the experiments' simulations on N worker "
                          "processes (planner deduplicates shared runs; "
                          "tables are identical to --jobs 1)")
    run.add_argument("--retries", type=_at_least(0), default=DEFAULT_RETRIES,
                     help="retry budget per simulation on worker "
                          f"failure (default: {DEFAULT_RETRIES})")
    run.add_argument("--chart", action="store_true",
                     help="also render the result as ASCII bars")
    run.add_argument("--save", metavar="DIR", default=None,
                     help="also write each result as JSON into DIR")
    run.add_argument("--log-json", metavar="PATH", default=None,
                     help="write executor telemetry (cache hits, per-job "
                          "wall time and worker, failures, summary) as "
                          "JSON lines to PATH")

    trace = sub.add_parser(
        "trace", help="dump, import and inspect trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    dump = trace_sub.add_parser(
        "dump", help="write a one-core workload's trace to a file "
                     "('trace import' reads it back)")
    dump.add_argument("workload")
    dump.add_argument("--out", required=True, help="output trace file")
    dump.add_argument("--refs", type=_at_least(1), default=50_000)
    dump.add_argument("--seed", type=int, default=1)
    timport = trace_sub.add_parser(
        "import",
        help="ingest a DRAMSim2 k6/mase trace or a 'trace dump' file "
             "(gzip ok) into the trace library as .rtrc; run it with "
             "'bench trace:<name>'")
    timport.add_argument("path", help="source trace file")
    timport.add_argument("--name", default=None,
                         help="library name (default: source basename "
                              "without extensions)")
    timport.add_argument("--format", default=None, choices=["k6", "mase"],
                         help="source format (default: detect from the "
                              "filename prefix, then the content)")
    tinfo = trace_sub.add_parser(
        "info", help="print an imported trace's header")
    tinfo.add_argument("name", help="library trace name")
    trace_sub.add_parser("ls", help="list the trace library's contents")

    bench = sub.add_parser("bench", help="run one workload/design pair")
    bench.add_argument("workload",
                       help=f"one of {', '.join(benchmark_names())}, "
                            f"{', '.join(mix_names())}, an extra profile "
                            f"(see docs), or an imported trace "
                            f"(trace:<name> / tracemix:<a>+<b>+...)")
    bench.add_argument("--design", default="das", choices=DESIGNS)
    bench.add_argument("--refs", type=_at_least(1), default=None)
    bench.add_argument("--no-cache", action="store_true")

    stats = sub.add_parser(
        "stats", help="print a run's full nested statistics tree")
    stats.add_argument("workload",
                       help="benchmark or mix name (as for 'bench')")
    stats.add_argument("--design", default="das", choices=DESIGNS)
    stats.add_argument("--refs", type=_at_least(1), default=None)
    stats.add_argument("--seed", type=int, default=1)
    stats.add_argument("--no-cache", action="store_true")
    stats.add_argument("--timeline", action="store_true",
                       help="also render the phase-resolved timeline "
                            "(per-window IPC, hit rates, promotions) as "
                            "sparklines")
    stats.add_argument("--timeline-csv", metavar="PATH", default=None,
                       help="export the timeline windows as CSV")
    stats.add_argument("--timeline-json", metavar="PATH", default=None,
                       help="export the timeline series as JSON")

    compare = sub.add_parser(
        "compare",
        help="diff two cached runs' stats trees and timelines")
    compare.add_argument("run_a", metavar="A",
                         help="first run as workload[:design], "
                              "e.g. mcf:das (design defaults to das)")
    compare.add_argument("run_b", metavar="B",
                         help="second run as workload[:design]")
    compare.add_argument("--refs", type=_at_least(1), default=None)
    compare.add_argument("--seed", type=int, default=1)
    compare.add_argument("--threshold", type=_at_least(0, float),
                         default=1.0, metavar="PCT",
                         help="minimum |relative delta| percent to "
                              "report (default: 1.0)")
    compare.add_argument("--limit", type=_at_least(0), default=30,
                         help="maximum ranked deltas to print "
                              "(default: 30)")
    compare.add_argument("--no-cache", action="store_true")

    events = sub.add_parser(
        "events", help="re-simulate with event tracing; export the trace")
    events.add_argument("workload",
                        help="benchmark or mix name (as for 'bench')")
    events.add_argument("--design", default="das", choices=DESIGNS)
    events.add_argument("--refs", type=_at_least(1), default=None)
    events.add_argument("--seed", type=int, default=1)
    events.add_argument("--out", required=True, metavar="PATH",
                        help="Chrome-trace JSON output (open in "
                             "https://ui.perfetto.dev or chrome://tracing)")
    events.add_argument("--capacity", type=_at_least(1), default=65536,
                        help="event ring size; older events beyond this "
                             "are dropped (default: 65536)")
    events.add_argument("--timeline", type=_at_least(0), default=0,
                        metavar="N",
                        help="also print the first N events as text")

    validate = sub.add_parser(
        "validate",
        help="machine-check the paper-fidelity expectations ledger")
    validate.add_argument("--scale", default="ci", choices=["ci", "full"],
                          help="reference-count scale to simulate at "
                               "(default: ci; 'full' is the EXPERIMENTS.md "
                               "regeneration scale)")
    validate.add_argument("--only", default=None, metavar="IDS",
                          help="comma-separated expectation and/or "
                               "experiment ids to check")
    validate.add_argument("--json", action="store_true", dest="as_json",
                          help="emit the structured report as JSON")
    validate.add_argument("--jobs", "-j", type=_at_least(1), default=1,
                          metavar="N",
                          help="run the needed simulations on N worker "
                               "processes")
    validate.add_argument("--no-cache", action="store_true",
                          help="ignore and do not write the result cache")
    validate.add_argument("--ledger", default=None, metavar="PATH",
                          help="expectations file (default: "
                               "validation/expectations.json)")
    validate.add_argument("--from-snapshot", default=None, metavar="PATH",
                          dest="from_snapshot",
                          help="evaluate against a saved results snapshot "
                               "instead of simulating")
    validate.add_argument("--save-snapshot", default=None, metavar="PATH",
                          dest="save_snapshot",
                          help="run every experiment at --scale and save "
                               "the results as a snapshot for "
                               "--from-snapshot / 'repro docs'")
    validate.add_argument("--list", action="store_true", dest="list_only",
                          help="list the ledger's expectations and exit")

    docs = sub.add_parser(
        "docs",
        help="regenerate generated docs from the results snapshot")
    docs.add_argument("target", choices=["experiments", "output"],
                      help="experiments = EXPERIMENTS.md, "
                           "output = experiments_output.txt")
    docs.add_argument("--snapshot", default=None, metavar="PATH",
                      help="results snapshot (default: "
                           "validation/results_full.json)")
    docs.add_argument("--ledger", default=None, metavar="PATH",
                      help="expectations file (default: "
                           "validation/expectations.json)")
    docs.add_argument("--write", action="store_true",
                      help="write the rendered file in place")
    docs.add_argument("--check", action="store_true",
                      help="fail (exit 1) when the committed file differs "
                           "from regeneration")
    docs.add_argument("--out", default=None, metavar="PATH",
                      help="target file (default: EXPERIMENTS.md / "
                           "experiments_output.txt)")

    cache = sub.add_parser(
        "cache", help="inspect / garbage-collect the result store")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    c_stats = cache_sub.add_parser("stats", help="entry count and size")
    c_ls = cache_sub.add_parser("ls", help="list entries, LRU first")
    c_ls.add_argument("--limit", type=_at_least(1), default=None,
                      metavar="N", help="show at most N entries")
    c_gc = cache_sub.add_parser(
        "gc", help="evict by age and/or LRU size cap")
    # Capped so that the byte count (MB * 1e6) stays a finite float.
    c_gc.add_argument("--max-mb", type=_at_least(0, float, 1e300),
                      default=None, metavar="MB",
                      help="evict LRU entries until the store fits MB")
    c_gc.add_argument("--max-age-days", type=_at_least(0, float),
                      default=None, metavar="D",
                      help="evict entries older than D days")
    c_gc.add_argument("--dry-run", action="store_true",
                      help="print what the same bounds would evict "
                           "without touching anything")
    for c_cmd in (c_stats, c_ls, c_gc):
        c_cmd.add_argument("--dir", default=None, metavar="PATH",
                           help="store directory (default: "
                                "$REPRO_CACHE_DIR or .repro_cache)")
        c_cmd.add_argument("--json", action="store_true", dest="as_json")

    ledger = sub.add_parser(
        "ledger", help="query the durable run ledger (SQLite history of "
                       "every completed simulation)")
    ledger_sub = ledger.add_subparsers(dest="ledger_command", required=True)
    l_ls = ledger_sub.add_parser("ls", help="recent runs, newest first")
    l_ls.add_argument("--limit", type=_at_least(0), default=20,
                      metavar="N", help="rows to show (default: 20)")
    l_show = ledger_sub.add_parser("show", help="one run row, all fields")
    l_show.add_argument("id", type=int, help="row id (see 'ledger ls')")
    l_query = ledger_sub.add_parser(
        "query", help="filter runs by workload/design/origin/age")
    l_query.add_argument("--workload", default=None)
    l_query.add_argument("--design", default=None)
    l_query.add_argument("--origin", default=None,
                         help="run | validate")
    l_query.add_argument("--since", type=_at_least(0, float), default=None,
                         metavar="DAYS",
                         help="only rows recorded in the last DAYS days")
    l_query.add_argument("--limit", type=_at_least(0), default=None,
                         metavar="N")
    l_prune = ledger_sub.add_parser(
        "prune", help="delete old run rows (validate history stays)")
    l_prune.add_argument("--older-than-days", type=_at_least(0, float),
                         default=None, metavar="D", dest="older_than_days",
                         help="drop run rows older than D days")
    l_prune.add_argument("--keep-last", type=_at_least(0),
                         default=None, metavar="N", dest="keep_last",
                         help="then keep only the newest N run rows")
    l_prune.add_argument("--dry-run", action="store_true",
                         help="report what would be pruned, delete nothing")
    for l_cmd in (l_ls, l_show, l_query, l_prune):
        l_cmd.add_argument("--dir", default=None, metavar="PATH",
                           help="store directory holding ledger.db "
                                "(default: $REPRO_CACHE_DIR or "
                                ".repro_cache)")
        l_cmd.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _run_command(args) -> int:
    """Handle ``repro run``: plan, execute and tabulate the experiments.

    One path whatever ``--jobs``, ``--no-cache`` and ``--log-json`` say:
    the experiments' runs are planned as one deduplicated batch, executed
    (inline for ``--jobs 1``, on the worker pool otherwise; with
    ``--no-cache`` the results stay in memory) and each table is built
    from the batch's results.  Tables go to stdout, the plan and
    execution summaries to stderr.
    """
    from .exec import ExecutionError, JsonlLog, ProgressLine

    ids = (experiment_ids() if args.experiment == "all"
           else [args.experiment])
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    with (JsonlLog(args.log_json) if args.log_json is not None
          else contextlib.nullcontext()) as log:
        try:
            results = run_experiments(
                [study(i, args.refs) for i in ids], jobs=args.jobs,
                use_cache=not args.no_cache, retries=args.retries,
                progress=ProgressLine(), log=log,
                echo=lambda line: print(line, file=sys.stderr))
        except ExecutionError as error:
            print(f"execution failed: {error}", file=sys.stderr)
            return 1
    for experiment_id, result in zip(ids, results):
        print(result.render())
        if args.save is not None:
            import json
            from pathlib import Path

            directory = Path(args.save)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{experiment_id}.json"
            with path.open("w") as stream:
                json.dump(result.to_dict(), stream, indent=2)
        if args.chart:
            from .experiments.plotting import bar_chart

            try:
                print()
                print(bar_chart(result))
            except ValueError:
                pass  # non-numeric table (e.g. table1/table2)
        print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except (UnknownWorkload, TraceTooShort, TraceFormatError) as error:
        # Names resolve, and trace lengths are checked, before any key,
        # plan or simulation exists; a library file whose block does not
        # decode fails its run before anything is stored.
        print(error, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (``repro ... | head``): silence the
        # exit-time flush and exit 1 without a traceback, as the Python
        # signal docs recommend for SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _dispatch(args) -> int:
    """Run the parsed command; returns a process exit code."""
    if args.command == "list":
        width = max(len(i) for i in experiment_ids())
        for experiment_id in experiment_ids():
            description = EXPERIMENTS[experiment_id].description
            print(f"{experiment_id.ljust(width)}  {description}")
        return 0
    if args.command == "run":
        return _run_command(args)
    if args.command == "trace":
        return _trace_command(args)
    if args.command == "stats":
        return _stats_command(args)
    if args.command == "compare":
        return _compare_command(args)
    if args.command == "events":
        return _events_command(args)
    if args.command == "bench":
        return _bench_command(args)
    if args.command == "validate":
        return _validate_command(args)
    if args.command == "docs":
        return _docs_command(args)
    if args.command == "cache":
        return _cache_command(args)
    if args.command == "ledger":
        return _ledger_command(args)
    raise AssertionError("unreachable")


def _cache_command(args) -> int:
    """Handle ``repro cache stats|ls|gc``."""
    import json
    import time

    from .store import ResultStore

    store = ResultStore(args.dir)
    if args.cache_command == "stats":
        stats = store.stats()
        if args.as_json:
            print(json.dumps(stats, indent=2))
        else:
            print(f"store {stats['directory']}: {stats['entries']} "
                  f"entries, {int(stats['total_bytes']) / 1e6:.2f} MB")
        return 0
    if args.cache_command == "ls":
        entries = store.entries()
        if args.limit is not None:
            entries = entries[:args.limit]
        if args.as_json:
            print(json.dumps([e.to_dict() for e in entries], indent=2))
            return 0
        if not entries:
            print(f"store {store.directory}: empty")
            return 0
        now = time.time()
        for entry in entries:
            age_h = (now - entry.mtime) / 3600.0
            print(f"{entry.key}  {entry.size_bytes:>9} B  "
                  f"{age_h:8.2f} h old")
        return 0
    # gc
    if args.max_mb is None and args.max_age_days is None:
        print("cache gc: pass --max-mb and/or --max-age-days",
              file=sys.stderr)
        return 2
    evicted = store.gc(
        max_bytes=(int(args.max_mb * 1_000_000)
                   if args.max_mb is not None else None),
        max_age_s=(args.max_age_days * 86400.0
                   if args.max_age_days is not None else None),
        dry_run=args.dry_run)
    stats = store.stats()
    if args.as_json:
        print(json.dumps({"evicted": [e.to_dict() for e in evicted],
                          "dry_run": args.dry_run,
                          "stats": stats}, indent=2))
    elif args.dry_run:
        for eviction in evicted:
            print(f"would evict {eviction}")
        print(f"dry run: would evict {len(evicted)} of "
              f"{stats['entries']} entries (nothing touched)")
    else:
        for eviction in evicted:
            print(f"evicted {eviction}")
        print(f"evicted {len(evicted)} entries; {stats['entries']} "
              f"remain ({int(stats['total_bytes']) / 1e6:.2f} MB)")
    return 0


def _validate_command(args) -> int:
    """Handle ``repro validate``: check the expectations ledger."""
    import json
    from pathlib import Path

    from .validate import LedgerError, load_ledger, validate

    try:
        ledger = load_ledger(args.ledger)
    except LedgerError as error:
        print(f"ledger error: {error}", file=sys.stderr)
        return 2
    if args.list_only:
        width = max(len(e.id) for e in ledger.expectations)
        for expectation in ledger.expectations:
            scales = "/".join(expectation.scales)
            print(f"{expectation.id.ljust(width)}  "
                  f"[{expectation.experiment}, {expectation.kind}, "
                  f"{scales}]  {expectation.title}")
        return 0
    only = args.only.split(",") if args.only else None
    try:
        report = validate(
            ledger, scale=args.scale, only=only,
            use_cache=not args.no_cache, jobs=args.jobs,
            snapshot=(Path(args.from_snapshot)
                      if args.from_snapshot else None),
            snapshot_out=(Path(args.save_snapshot)
                          if args.save_snapshot else None))
    except (KeyError, ValueError, OSError) as error:
        message = error.args[0] if error.args else error
        print(f"validate: {message}", file=sys.stderr)
        return 2
    if args.save_snapshot:
        print(f"snapshot -> {args.save_snapshot}", file=sys.stderr)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _docs_command(args) -> int:
    """Handle ``repro docs``: render / verify the generated docs."""
    from pathlib import Path

    from .validate import LedgerError, load_ledger
    from .validate.docs import (
        check_rendered,
        render_experiments_md,
        render_output_txt,
    )
    from .validate.engine import DEFAULT_SNAPSHOT_PATH

    snapshot = Path(args.snapshot) if args.snapshot else DEFAULT_SNAPSHOT_PATH
    try:
        if args.target == "experiments":
            rendered = render_experiments_md(snapshot, load_ledger(args.ledger))
            default_out = "EXPERIMENTS.md"
        else:
            rendered = render_output_txt(snapshot)
            default_out = "experiments_output.txt"
    except (LedgerError, ValueError, OSError) as error:
        print(f"docs: {error}", file=sys.stderr)
        return 2
    out_path = Path(args.out) if args.out else Path(default_out)
    if args.check:
        message = check_rendered(rendered, out_path)
        if message is not None:
            print(f"docs drift: {message}", file=sys.stderr)
            return 1
        print(f"{out_path} matches regeneration")
        return 0
    if args.write:
        out_path.write_text(rendered)
        print(f"wrote {out_path}", file=sys.stderr)
        return 0
    print(rendered, end="")
    return 0


def _bench_command(args) -> int:
    """Handle ``repro bench``: one ad-hoc run."""
    metrics = run_workload(args.workload, args.design,
                           references=args.refs,
                           use_cache=not args.no_cache)
    print(f"workload={metrics.workload} design={metrics.design}")
    print(f"  time_ns={metrics.time_ns}")
    print(f"  ipc={[round(x, 3) for x in metrics.ipc]}")
    print(f"  mpki={metrics.mpki:.2f} ppkm={metrics.ppkm:.1f}")
    print(f"  footprint={metrics.footprint_bytes / 1e6:.1f} MB")
    locations = {k: round(v, 4)
                 for k, v in metrics.access_locations.items()}
    print(f"  access_locations={locations}")
    print(f"  mean_read_latency={metrics.mean_read_latency_ns:.1f} ns")
    return 0


def _stats_command(args) -> int:
    """Handle ``repro stats``: run (or recall) and print the full tree."""
    from .obs import render_stats, render_timeline, timeline_to_csv

    metrics = run_workload(args.workload, args.design,
                           references=args.refs, seed=args.seed,
                           use_cache=not args.no_cache)
    print(f"workload={metrics.workload} design={metrics.design} "
          f"references={metrics.references}")
    print(render_stats(metrics.stats))
    if args.timeline:
        print()
        print(render_timeline(metrics.timeline))
    if args.timeline_csv is not None:
        with open(args.timeline_csv, "w") as stream:
            stream.write(timeline_to_csv(metrics.timeline))
        print(f"timeline windows -> {args.timeline_csv}")
    if args.timeline_json is not None:
        import json

        with open(args.timeline_json, "w") as stream:
            json.dump(metrics.timeline, stream, indent=2)
        print(f"timeline series -> {args.timeline_json}")
    return 0


def _parse_run_spec(spec: str):
    """Split ``workload[:design]`` at the last ``:`` (design defaults to
    das); the ``:`` that ends a ``trace:`` or ``tracemix:`` prefix
    belongs to the workload."""
    workload, colon, design = spec.rpartition(":")
    if not colon or workload + colon in (TRACE_PREFIX, MIX_PREFIX):
        return spec, "das"
    return workload, (design or "das")


def _compare_command(args) -> int:
    """Handle ``repro compare``: ranked cross-run stat/timeline deltas."""
    from .obs import compare_runs
    from .trace.library import resolve_workload

    workload_a, design_a = _parse_run_spec(args.run_a)
    workload_b, design_b = _parse_run_spec(args.run_b)
    for workload, design in ((workload_a, design_a), (workload_b, design_b)):
        if design not in DESIGNS:
            print(f"unknown design {design!r} (choose from "
                  f"{', '.join(DESIGNS)})", file=sys.stderr)
            return 2
        resolve_workload(workload)  # both names resolve before either runs
    metrics_a = run_workload(workload_a, design_a, references=args.refs,
                             seed=args.seed, use_cache=not args.no_cache)
    metrics_b = run_workload(workload_b, design_b, references=args.refs,
                             seed=args.seed, use_cache=not args.no_cache)
    print(compare_runs(metrics_a, metrics_b,
                       label_a=f"{workload_a}:{design_a}",
                       label_b=f"{workload_b}:{design_b}",
                       threshold_percent=args.threshold,
                       limit=args.limit))
    return 0


def _ledger_command(args) -> int:
    """Handle ``repro ledger ls|show|query|prune`` (offline)."""
    import json
    import time

    from .obs.ledger import get_ledger
    from .obs.render import aligned_table

    path = None
    if args.dir is not None:
        from pathlib import Path

        path = Path(args.dir) / "ledger.db"
    ledger = get_ledger(path)

    def print_rows(rows) -> None:
        if args.as_json:
            print(json.dumps(rows, indent=2))
            return
        if not rows:
            print(f"ledger {ledger.path}: no matching runs")
            return
        table = []
        for r in rows:
            stamp = time.strftime("%m-%d %H:%M:%S",
                                  time.localtime(r["ts"]))
            table.append([
                str(r["id"]), stamp, r["workload"], r["design"],
                str(r["refs"]), r["origin"],
                "cache" if r["cache_hit"] else "fresh",
                "-" if r["ipc"] is None else f"{r['ipc']:.3f}",
                f"{r['wall_s']:.3f}s"])
        for line in aligned_table(
                ["id", "when", "workload", "design", "refs", "origin",
                 "source", "ipc", "wall"], table):
            print(line)

    if args.ledger_command == "ls":
        print_rows(ledger.runs(limit=args.limit))
        return 0
    if args.ledger_command == "query":
        since_ts = (time.time() - args.since * 86400.0
                    if args.since is not None else None)
        print_rows(ledger.runs(workload=args.workload, design=args.design,
                               origin=args.origin, since_ts=since_ts,
                               limit=args.limit))
        return 0
    if args.ledger_command == "show":
        row = ledger.run_by_id(args.id)
        if row is None:
            print(f"ledger {ledger.path}: no run with id {args.id}",
                  file=sys.stderr)
            return 1
        if args.as_json:
            print(json.dumps(row, indent=2))
            return 0
        width = max(len(k) for k in row)
        for key, value in row.items():
            if key == "ts":
                value = time.strftime("%Y-%m-%d %H:%M:%S",
                                      time.localtime(value))
            print(f"{key.ljust(width)}  {value}")
        return 0
    # prune
    if args.older_than_days is None and args.keep_last is None:
        print("ledger prune: pass --older-than-days and/or --keep-last",
              file=sys.stderr)
        return 2
    before_ts = (time.time() - args.older_than_days * 86400.0
                 if args.older_than_days is not None else None)
    result = ledger.prune(before_ts=before_ts, keep_last=args.keep_last,
                          dry_run=args.dry_run)
    if args.as_json:
        print(json.dumps({**result, "dry_run": args.dry_run,
                          "stats": ledger.stats()}, indent=2))
        return 0
    verb = "would prune" if args.dry_run else "pruned"
    print(f"{verb} {result['pruned']} run row(s) "
          f"({result['aged']} by age, {result['overflow']} over "
          f"--keep-last); {ledger.stats()['runs']} remain")
    return 0


def _events_command(args) -> int:
    """Handle ``repro events``: traced re-simulation + trace export."""
    from .obs import trace_workload
    from .sim.runner import run_cache_key

    # A bad name or a file too short to measure exits before the note.
    run_cache_key(args.workload, args.design, args.refs, args.seed)
    print("note: event tracing bypasses the result cache -- this run is "
          "re-simulated (its metrics match the cached run).")
    metrics, tracer = trace_workload(
        args.workload, design=args.design, references=args.refs,
        seed=args.seed, capacity=args.capacity)
    tracer.write_chrome_trace(args.out)
    if args.timeline:
        print(tracer.timeline(limit=args.timeline))
    print(f"workload={metrics.workload} design={metrics.design}: "
          f"{len(tracer)} events retained ({tracer.emitted} emitted, "
          f"{tracer.dropped} dropped) -> {args.out}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _reason(error: Exception) -> str:
    """An error's message (a KeyError's ``str`` would quote it)."""
    return error.args[0] if isinstance(error, KeyError) else str(error)


def _print_trace_info(info) -> None:
    """Render one trace info dict as aligned key/value lines."""
    for field in ("name", "path", "source_format", "records", "blocks",
                  "block_records", "file_bytes", "content_hash"):
        if field in info:
            print(f"  {field:13} {info[field]}")


def _trace_command(args) -> int:
    """Handle ``repro trace dump|import|info|ls``."""
    import itertools

    from .trace.library import import_trace, list_traces, open_trace
    from .trace.record import write_trace

    if args.trace_command == "import":
        try:
            info = import_trace(args.path, name=args.name, fmt=args.format)
        except (TraceFormatError, ValueError, OSError) as error:
            print(f"import failed: {error}", file=sys.stderr)
            return 2
        print(f"imported {args.path} as trace:{info['name']}")
        _print_trace_info(info)
        print(f"run it: repro bench trace:{info['name']} "
              f"--refs {info['records']}")
        return 0
    if args.trace_command == "info":
        try:
            info = open_trace(args.name).info()
        except (TraceFormatError, KeyError, OSError) as error:
            print(f"info failed: {_reason(error)}", file=sys.stderr)
            return 2
        _print_trace_info(info)
        return 0
    if args.trace_command == "ls":
        from .trace.library import trace_dir

        names = list_traces()
        if not names:
            print(f"trace library {trace_dir()} is empty "
                  f"(use 'repro trace import')")
            return 0
        broken = False
        for name in names:
            try:
                info = open_trace(name).info()
            except (TraceFormatError, KeyError, OSError) as error:
                print(f"trace:{name}  unreadable: {_reason(error)}")
                broken = True
                continue
            print(f"trace:{name}  {info['records']} records  "
                  f"{info['source_format']}  "
                  f"{info['content_hash'][:12]}")
        return 1 if broken else 0
    # dump
    from .common.config import SystemConfig
    from .trace.library import build_workload_traces

    traces = build_workload_traces(
        args.workload, args.seed, SystemConfig().geometry.capacity_bytes)
    if len(traces) != 1:
        print(f"trace dump writes one core's trace; {args.workload!r} "
              f"runs {len(traces)} cores", file=sys.stderr)
        return 2
    trace = itertools.islice(traces[0], args.refs)
    with open(args.out, "w") as stream:
        count = write_trace(trace, stream)
    print(f"wrote {count} references to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
