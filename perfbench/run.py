"""Repository benchmark entry point.

    python3 perfbench/run.py --workload mcf-das --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each repetition runs one ``repro``
command in a fresh process (``child.py``) with a fresh temporary
``REPRO_CACHE_DIR``, one at a time, and reports host times normalised to
a reference machine speed (``speed.py``).  Repetitions continue until
``--seconds`` are used up; the result is the median over repetitions.
``--trace 1`` alternates plain and traced repetitions and reports
per-layer metrics instead (``layers.py``).  See README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are per-repetition diagnostics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

#: name -> (``repro`` arguments, whether the benchmark seed applies).
#: ``{work}`` is the repetition's private directory.  ``--log-json``
#: sends ``--jobs 1`` down the plan / execute / tabulate path that
#: ``repro run --jobs N`` takes.
WORKLOADS = {
    "mcf-das": (["bench", "mcf", "--design", "das", "--no-cache"], True),
    "m8-standard": (["bench", "M8", "--design", "standard",
                     "--refs", "60000", "--no-cache"], True),
    "fig7a": (["run", "fig7a", "--refs", "6000", "--jobs", "1",
               "--log-json", "{work}/exec.jsonl"], False),
}

#: ``repro`` packages whose import time the traced run reports, the
#: eight largest when the benchmark was written.
IMPORT_PACKAGES = ("service", "exec", "common", "obs", "dram", "trace",
                   "experiments", "energy")

#: Each run must end well inside the 180 s a run is allowed.
RUN_LIMIT_S = 165.0


class Repetition:
    """One child process: its record, wall time and check outcome."""

    def __init__(self, mode: str, record: dict, wall_s: float,
                 stderr: str) -> None:
        self.mode = mode
        self.record = record
        self.wall_s = wall_s
        self.stderr = stderr
        self.problem = None

    @property
    def ok(self) -> bool:
        return self.problem is None


def child_env(work: Path) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "PYTHON"))}
    env.update({
        "PYTHONPATH": str(Path.cwd() / "src"),
        "PYTHONHASHSEED": "0",
        "REPRO_CACHE_DIR": str(work / "store"),
        "REPRO_TRACE_DIR": str(work / "traces"),
        "TMPDIR": str(work),
    })
    return env


def run_child(scratch: Path, mode: str, seed, argv, timeout_s: float,
              importtime: bool = False) -> Repetition:
    """Run one repetition in a fresh process with a fresh state dir."""
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        out = work / "record.json"
        argv = [arg.replace("{work}", str(work)) for arg in argv]
        command = [sys.executable]
        if importtime:
            command += ["-X", "importtime"]
        command += [str(HERE / "child.py"), mode,
                    "-" if seed is None else str(seed), str(out), "--",
                    *argv]
        env = child_env(work)
        with open(work / "stderr.txt", "w+") as stderr:
            started = perf_counter()
            env["PERFBENCH_LAUNCH"] = repr(perf_counter())
            process = subprocess.Popen(command, env=env,
                                       stdout=subprocess.DEVNULL,
                                       stderr=stderr)
            try:
                process.wait(timeout=max(1.0, timeout_s))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            wall = perf_counter() - started
            stderr.seek(0)
            errors = stderr.read()
        record = {}
        if out.exists():
            record = json.loads(out.read_text())
        repetition = Repetition(mode, record, wall, errors)
        if process.returncode != 0 or "error" in record:
            repetition.problem = (record.get("error")
                                  or f"exit code {process.returncode}: "
                                     f"{errors[-2000:]}")
        elif mode != "imports" and record.get("exit_code") != 0:
            repetition.problem = f"repro exited {record.get('exit_code')}"
        return repetition
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check(repetition: Repetition, workload: str, seed, expected: dict,
          reference: dict) -> None:
    """Compare a repetition's simulated counters with the recorded ones
    (or, for an unrecorded seed, with the first repetition's)."""
    if not repetition.ok:
        return
    record = repetition.record
    if record.get("conflicts"):
        repetition.problem = "one run returned two different results"
        return
    wanted = expected.get(workload, {})
    if workload == "fig7a":
        if record["stdout_sha256"] != wanted.get("table_sha256"):
            repetition.problem = "fig7a table differs from the recorded one"
            return
        runs = wanted.get("runs", {})
        if record["sims"] != len(runs):
            repetition.problem = (f"{record['sims']} simulations, "
                                  f"expected {len(runs)}")
            return
        for key, found in record["digests"].items():
            if runs.get(key) != found:
                repetition.problem = f"counters of {key} differ"
                return
        return
    recorded = wanted.get(str(seed))
    if recorded is None:
        recorded = reference.setdefault("digests", record["digests"])
    if record["digests"] != recorded:
        repetition.problem = "simulated counters differ"


def simulations(workload: str, expected: dict) -> int:
    """Simulations one repetition of ``workload`` performs."""
    if workload == "fig7a":
        return len(expected["fig7a"]["runs"])
    return 1


def spread(values) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def fold_imports(stderr: str) -> dict:
    """Self time (us) of ``-X importtime`` lines folded by the nearest
    enclosing ``repro.<package>`` module; modules outside ``repro``
    count for the ``repro`` module that imported them."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|", 2)
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(fields[0])))
    totals: dict = {}
    stack: list = []
    # Lines come children first; reversed, each parent precedes its
    # children, so the stack holds the enclosing imports.
    for depth, name, self_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parts = name.split(".")
        if parts[0] == "repro":
            owner = parts[1] if len(parts) > 1 else "repro"
        else:
            owner = stack[-1][1] if stack else None
        stack.append((depth, owner))
        if owner is not None:
            totals[owner] = totals.get(owner, 0) + self_us
    return totals


def median_of(repetitions, key: str) -> float:
    return statistics.median(r.record[key] for r in repetitions)


def end_to_end(reps) -> dict:
    return {
        "run_s": {"value": median_of(reps, "run_s"), "unit": "s"},
        "setup_s": {"value": median_of(reps, "setup_s"), "unit": "s"},
        "peak_rss_mb": {"value": median_of(reps, "peak_rss_mb"),
                        "unit": "MB"},
    }


def per_layer(plain, traced, imports) -> dict:
    metrics = {}
    for name in traced[0].record["layers"]:
        unit = ("count" if name.endswith(".calls") else
                "ratio" if name.endswith("_ratio") else "s")
        metrics[name] = {"value": statistics.median_low(
            r.record["layers"][name] for r in traced), "unit": unit}
    metrics["tracing.overhead"] = {
        "value": median_of(traced, "run_s") / median_of(plain, "run_s"),
        "unit": "ratio"}
    import_s = median_of(plain, "import_s")
    metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
    for package in IMPORT_PACKAGES:
        shares = []
        for repetition in imports:
            folded = repetition.record["folded"]
            total = sum(folded.values())
            shares.append(folded.get(package, 0) / total if total else 0.0)
        metrics[f"import.{package}_s"] = {
            "value": import_s * statistics.median(shares), "unit": "s"}
    return metrics


def describe(index: int, repetition: Repetition) -> str:
    record = repetition.record
    if not repetition.ok:
        return f"rep {index} {repetition.mode}: FAILED: {repetition.problem}"
    text = (f"rep {index} {repetition.mode}: "
            f"setup {record['setup_s']:.4f} s (raw "
            f"{record['setup_raw_s']:.4f}), ")
    if "run_s" in record:
        text += (f"run {record['run_s']:.4f} s (raw "
                 f"{record['run_raw_s']:.4f}), rss "
                 f"{record['peak_rss_mb']:.1f} MB, sims {record['sims']}, ")
    return text + (f"probes {record['probes']} "
                   f"(median {record['probe_median_s'] * 1e6:.1f} us)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begun = perf_counter()
    if not (Path.cwd() / "src" / "repro" / "cli.py").is_file():
        print("run.py: no src/repro here; run it from the root of a "
              "checkout", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    command, seeded = WORKLOADS[args.workload]
    seed = args.seed if seeded else None
    scratch = Path.cwd() / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    # Bytecode is compiled once per checkout and a discarded import
    # warms the file cache, so no timed run pays either.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    str(HERE)], check=True, stdout=subprocess.DEVNULL)
    run_child(scratch, "imports", None, [], 60.0)

    imports = []
    if args.trace:
        for _ in range(3):
            repetition = run_child(scratch, "imports", None, [], 60.0,
                                   importtime=True)
            repetition.record["folded"] = fold_imports(repetition.stderr)
            imports.append(repetition)
    modes = ["plain", "traced"] if args.trace else ["plain"]
    reps: list = []
    reference: dict = {}
    deadline = perf_counter() + args.seconds
    while True:
        mode = modes[len(reps) % len(modes)]
        limit = RUN_LIMIT_S - (perf_counter() - begun)
        repetition = run_child(scratch, mode, seed, command, limit)
        check(repetition, args.workload, seed, expected, reference)
        reps.append(repetition)
        print(describe(len(reps), repetition), flush=True)
        now = perf_counter()
        longest = max(r.wall_s for r in reps)
        if len(reps) >= len(modes) and now + longest > deadline:
            break
        if now - begun + longest > RUN_LIMIT_S:
            break

    per_rep = simulations(args.workload, expected)
    failed = sum(per_rep for r in reps if not r.ok)
    good = {mode: [r for r in reps if r.ok and r.mode == mode]
            for mode in modes}
    complete = all(good.values()) and all(r.ok for r in imports)
    result = {"correct": failed == 0 and complete,
              "attempted": per_rep * len(reps), "failed": failed}
    if not complete:
        result["metrics"] = {}
    elif args.trace:
        result["metrics"] = per_layer(good["plain"], good["traced"], imports)
        missing = good["traced"][0].record["missing_entry_points"]
        if missing:
            print(f"missing entry points, their layers' metrics left out: "
                  f"{', '.join(missing)}")
    else:
        result["metrics"] = end_to_end(good["plain"])
    plain = good["plain"]
    if plain:
        print(json.dumps({"diagnostics": {
            "repetitions": len(plain),
            "run_raw_s": median_of(plain, "run_raw_s"),
            "setup_raw_s": median_of(plain, "setup_raw_s"),
            "run_s_spread": spread([r.record["run_s"] for r in plain]),
            "run_raw_s_spread": spread([r.record["run_raw_s"]
                                        for r in plain]),
            "setup_s_spread": spread([r.record["setup_s"] for r in plain]),
            "setup_raw_s_spread": spread([r.record["setup_raw_s"]
                                          for r in plain]),
            "probe_median_s": median_of(plain, "probe_median_s"),
            "probes": median_of(plain, "probes"),
        }}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
