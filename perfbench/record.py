"""Re-record ``expected.json``: the exact counters the output check uses.

    python3 perfbench/record.py

Run from the root of a checkout.  Runs each seeded workload once per
seed in :data:`SEEDS` (``fig7a`` once, at its fixed seed) in a fresh
process, twice, and writes the counters only if both passes agree.
Re-record only for a change that is meant to alter simulated behaviour.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import EXPECTED, WORKLOADS, run_child

#: Seeds whose counters are recorded.  A run with any other seed only
#: checks that its repetitions agree with each other.
SEEDS = tuple(range(1, 33))


def record_once(scratch: Path, workload: str, seed) -> dict:
    command, _ = WORKLOADS[workload]
    repetition = run_child(scratch, "plain", seed, command, 600.0)
    if not repetition.ok or repetition.record["conflicts"]:
        raise SystemExit(f"{workload} seed {seed}: "
                         f"{repetition.problem or 'conflicting results'}")
    return repetition.record


def main() -> int:
    scratch = Path.cwd() / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    expected: dict = {}
    for workload, (_, seeded) in WORKLOADS.items():
        for seed in (SEEDS if seeded else [None]):
            first, second = (record_once(scratch, workload, seed)
                             for _ in range(2))
            for key in ("digests", "stdout_sha256"):
                if first[key] != second[key]:
                    raise SystemExit(f"{workload} seed {seed}: two runs "
                                     f"disagree on {key}")
            if seeded:
                expected.setdefault(workload, {})[str(seed)] = \
                    first["digests"]
            else:
                expected[workload] = {"table_sha256": first["stdout_sha256"],
                                      "runs": first["digests"]}
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
