"""One benchmark repetition, in a fresh process.

    PERFBENCH_LAUNCH=<t> python3 perfbench/child.py MODE SEED OUT -- ARGS...

run from the checkout root with ``PYTHONPATH=src``.  ``MODE`` is
``plain`` (a timed run of ``repro ARGS...``), ``traced`` (the same with
per-layer spans, see ``layers.py``) or ``imports`` (time
``import repro.cli`` only; run it under ``python -X importtime`` for the
per-package split).  ``SEED`` is passed to every ``run_workload`` call
the command makes, or ``-`` to leave the command's own seed.  The JSON
record goes to ``OUT``.  ``PERFBENCH_LAUNCH`` is the parent's
``time.perf_counter()`` just before it started this process; on Linux
that clock is system-wide, so set-up time counts from process launch.
"""

import os
import sys
from time import perf_counter

from speed import SpeedProbe


def counters(metrics) -> dict:
    """The exact simulated counters the benchmark's output check compares.

    Read-latency statistics are left out on purpose: their definition
    is expected to change without the schedule changing.
    """
    stats = metrics.stats or {}
    cores = [stats.get(f"core{index}") or {}
             for index in range(len(metrics.time_ns))]
    return {
        "time_ns": list(metrics.time_ns),
        "instructions": [core.get("instructions") for core in cores],
        "references": [core.get("references") for core in cores],
        "measured_instructions": metrics.instructions,
        "measured_references": metrics.references,
        "llc_misses": metrics.llc_misses,
        "dram_accesses": metrics.dram_accesses,
        "promotions": metrics.promotions,
        "row_buffer_hits": (stats.get("controller") or {}).get(
            "row_buffer_hits"),
    }


def rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's name for ``original`` at
    ``replacement`` (modules bind imported functions by value)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def observe(seed, state: dict) -> None:
    """Mark the first simulated step, count simulations and capture the
    counters of every run result the command obtains."""
    from repro.cpu.multicore import MultiCoreSimulator
    from repro.sim import runner

    step = MultiCoreSimulator.run

    def run(self, *args, **kwargs):
        if state["first_step"] is None:
            state["first_step"] = perf_counter()
        state["sims"] += 1
        return step(self, *args, **kwargs)

    MultiCoreSimulator.run = run
    run_workload = runner.run_workload

    def seeded_run_workload(*args, **kwargs):
        if seed is not None:
            kwargs["seed"] = seed
        metrics = run_workload(*args, **kwargs)
        key = f"{metrics.workload}/{metrics.design}"
        found = counters(metrics)
        if state["digests"].setdefault(key, found) != found:
            state["conflicts"] += 1
        return metrics

    rebind(run_workload, seeded_run_workload)


def run_command(cli, probe: SpeedProbe, mode: str, seed, argv) -> dict:
    import contextlib
    import hashlib
    import io
    import resource

    state = {"first_step": None, "sims": 0, "digests": {}, "conflicts": 0}
    observe(seed, state)
    tracer = None
    if mode == "traced":
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
        probe.on_probe = tracer.on_probe
    output = io.StringIO()
    main_start = perf_counter()
    with contextlib.redirect_stdout(output):
        code = cli.main(argv)
    end = perf_counter()
    probe.disarm()
    first = state["first_step"]
    if first is None:
        raise RuntimeError("the command simulated nothing")
    record = {
        "exit_code": code,
        "first_step": first,
        "end": end,
        "run_s": probe.normalised(first, end),
        "run_raw_s": end - first,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sims": state["sims"],
        "digests": state["digests"],
        "conflicts": state["conflicts"],
        "stdout_sha256": hashlib.sha256(
            output.getvalue().encode()).hexdigest(),
    }
    if tracer is not None:
        # Spans exclude probe time; scale them by the run's mean speed.
        program = end - main_start - probe.probe_time(main_start, end)
        record["layers"] = tracer.report(
            probe.normalised(main_start, end) / program)
        record["missing_entry_points"] = tracer.missing_entry_points()
    return record


def main() -> int:
    launch = float(os.environ["PERFBENCH_LAUNCH"])
    mode, seed_arg, out_path = sys.argv[1:4]
    argv = sys.argv[5:]
    probe = SpeedProbe()
    probe.arm()
    import_start = perf_counter()
    import repro.cli as cli
    import_end = perf_counter()
    import json

    try:
        record = {}
        if mode != "imports":
            seed = None if seed_arg == "-" else int(seed_arg)
            record = run_command(cli, probe, mode, seed, argv)
        probe.disarm()
        first = record.get("first_step", import_end)
        durations = sorted(probe.durations())
        record.update({
            "import_s": probe.normalised(import_start, import_end),
            "import_raw_s": import_end - import_start,
            "setup_s": probe.normalised(launch, first),
            "setup_raw_s": first - launch,
            "probes": len(durations),
            "probe_median_s": durations[len(durations) // 2],
        })
    except Exception:
        import traceback

        record = {"error": traceback.format_exc()}
    with open(out_path, "w") as stream:
        json.dump(record, stream)
    return 1 if "error" in record else 0


if __name__ == "__main__":
    sys.exit(main())
