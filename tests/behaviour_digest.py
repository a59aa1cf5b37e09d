"""Behaviour digests: one sha256 per fixed run and per experiment table.

Each run case simulates one small run from scratch and hashes its
canonical ``RunMetrics.to_dict()`` (``json.dumps(..., sort_keys=True)``).
Each table case builds one registered experiment's table from scratch on
a reduced workload set and hashes its canonical
``ExperimentResult.to_dict()`` the same way.  Each trace case builds
one workload's per-core access streams and hashes the first
:data:`TRACE_REFS` accesses of every core.  The digests are committed
in ``behaviour_digests.json`` together with the ``CODE_VERSION`` they
were recorded at, so a change to *any* simulated number — counters,
stats tree, timeline, latency percentiles, energy — or to how a table
is built from its runs is caught at an unchanged version
(``tests/test_behaviour_digest.py``).

The run matrix covers every design, both mix shapes, write-drain mode,
the FCFS scheduler, refresh and an imported k6 trace; the table matrix
covers every experiment in the registry; the trace matrix covers every
workload name in episode mode, and one benchmark, one mix and one
``tracemix:`` in the lifetime mode the oracle profiling pass reads.  It needs only the standard
library, so it also runs without pytest::

    PYTHONPATH=src python tests/behaviour_digest.py           # check
    PYTHONPATH=src python tests/behaviour_digest.py --record  # re-record

Re-record only after bumping ``CODE_VERSION`` for a model change (and
re-recording ``validation/results_full.json``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

from repro.common.config import ControllerConfig, SystemConfig
from repro.core.variants import DESIGNS
from repro.experiments.registry import experiment_ids, run_experiment
from repro.sim.runner import CODE_VERSION, run_workload
from repro.trace.extras import extra_names
from repro.trace.library import build_workload_traces, import_trace
from repro.trace.multiprog import mix_names
from repro.trace.spec2006 import benchmark_names

DIGEST_FILE = Path(__file__).with_name("behaviour_digests.json")
K6_SAMPLE = (Path(__file__).resolve().parents[1] / "validation" / "traces"
             / "k6_sample.trc.gz")

#: A 4-entry write queue: M4 enters write-drain mode 31 times at 3000
#: refs, while no roster run reaches the default high mark of 24.
_WRITE_DRAIN = dict(write_queue_entries=4, write_drain_high=0.5,
                    write_drain_low=0.25)

#: case id -> (workload, design, references per core, controller config).
CASES = {
    **{f"libquantum-{design}": ("libquantum", design, 600, None)
       for design in DESIGNS},
    "M1-das": ("M1", "das", 400, None),
    "M8-standard": ("M8", "standard", 400, None),
    "M4-standard-writedrain": (
        "M4", "standard", 3000, ControllerConfig(**_WRITE_DRAIN)),
    "M4-standard-writedrain-fcfs-refresh": (
        "M4", "standard", 3000,
        ControllerConfig(scheduler="fcfs", refresh_enabled=True,
                         **_WRITE_DRAIN)),
    "refreshstorm-das-refresh": (
        "refreshstorm", "das", 2000, ControllerConfig(refresh_enabled=True)),
    "trace:k6_sample-das": ("trace:k6_sample", "das", 2000, None),
}

#: References per core of every table case.
TABLE_REFS = 400

#: Table cases: experiment id -> the reduced workload set its table is
#: built from (``None`` for tables 1 and 2, which simulate nothing).
TABLES = {
    **{experiment_id: ["libquantum"] for experiment_id in experiment_ids()},
    "table1": None,
    "table2": None,
    "fig7d": ["M1"],
    "fig7e": ["M1"],
    "fig7f": ["M1"],
    "fairness": ["M5"],
    "stress": ["refreshstorm"],
    "footprint": ["fp8m", "fp64m"],
}

#: Accesses hashed per core, and the seed, of every trace case.
TRACE_REFS = 1000
TRACE_SEED = 3

#: Trace cases: case id -> (workload, trace mode).
TRACES = {
    **{f"{workload}-episode": (workload, "episode")
       for workload in [*benchmark_names(), *mix_names(), *extra_names(),
                        "trace:k6_sample", "tracemix:k6_sample+mcf",
                        "tracemix:mcf+refreshstorm+k6_sample"]},
    **{f"{workload}-lifetime": (workload, "lifetime")
       for workload in ["mcf", "M1", "tracemix:mcf+refreshstorm+k6_sample"]},
}

STALE = ("bump CODE_VERSION and re-record the snapshot (repro validate "
         "--scale full --save-snapshot validation/results_full.json), then "
         "the digests (PYTHONPATH=src python tests/behaviour_digest.py "
         "--record)")


def import_k6_sample(library: Path) -> None:
    """Point the trace library at ``library`` and import the k6 sample."""
    os.environ["REPRO_TRACE_DIR"] = str(library)
    import_trace(K6_SAMPLE)


def digest(case: str) -> str:
    """sha256 of one case's canonical metrics (the k6 case needs
    :func:`import_k6_sample` first)."""
    workload, design, references, controller = CASES[case]
    metrics = run_workload(workload, design, references=references,
                           controller=controller, use_cache=False)
    return _sha256(metrics.to_dict())


def table_digest(experiment_id: str) -> str:
    """sha256 of one experiment's canonical table, simulated from scratch."""
    result = run_experiment(experiment_id, references=TABLE_REFS,
                            workloads=TABLES[experiment_id],
                            use_cache=False)
    return _sha256(result.to_dict())


def trace_digest(case: str) -> str:
    """sha256 of the first :data:`TRACE_REFS` accesses of each core of
    one case's workload (k6 cases need :func:`import_k6_sample` first)."""
    workload, mode = TRACES[case]
    traces = build_workload_traces(workload, TRACE_SEED,
                                   SystemConfig().geometry.capacity_bytes,
                                   mode=mode)
    return _sha256([list(itertools.islice(trace, TRACE_REFS))
                    for trace in traces])


def _sha256(data: object) -> str:
    canonical = json.dumps(data, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def recorded() -> dict:
    """The committed ``{"code_version": ..., "digests": {...},
    "tables": {...}, "traces": {...}}``."""
    return json.loads(DIGEST_FILE.read_text())


def main(argv) -> int:
    os.environ["REPRO_NO_LEDGER"] = "1"
    with tempfile.TemporaryDirectory() as scratch:
        import_k6_sample(Path(scratch) / "lib")
        digests = {case: digest(case) for case in CASES}
        tables = {table: table_digest(table) for table in TABLES}
        traces = {case: trace_digest(case) for case in TRACES}
    if "--record" in argv:
        DIGEST_FILE.write_text(json.dumps(
            {"code_version": CODE_VERSION, "digests": digests,
             "tables": tables, "traces": traces},
            indent=2, sort_keys=True) + "\n")
        print(f"recorded {len(digests)} run, {len(tables)} table and "
              f"{len(traces)} trace digests at CODE_VERSION {CODE_VERSION}")
        return 0
    expected = recorded()
    if expected["code_version"] != CODE_VERSION:
        print(f"digests were recorded at CODE_VERSION "
              f"{expected['code_version']}, not {CODE_VERSION}")
        return 1
    changed = [case for case in CASES
               if expected["digests"].get(case) != digests[case]]
    changed_tables = [table for table in TABLES
                      if expected["tables"].get(table) != tables[table]]
    changed_traces = [case for case in TRACES
                      if expected["traces"].get(case) != traces[case]]
    for case in changed:
        print(f"{case}: changed")
    for table in changed_tables:
        print(f"table {table}: changed")
    for case in changed_traces:
        print(f"trace {case}: changed")
    print(f"{len(CASES) - len(changed)}/{len(CASES)} run digests, "
          f"{len(TABLES) - len(changed_tables)}/{len(TABLES)} table digests "
          f"and {len(TRACES) - len(changed_traces)}/{len(TRACES)} trace "
          f"digests match (Python {sys.version.split()[0]})")
    return 1 if changed or changed_tables or changed_traces else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
