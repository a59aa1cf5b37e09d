"""Machine-checked paper fidelity (``repro validate`` / ``repro docs``).

The reproduction's claims against the DAS-DRAM paper — design orderings,
ratio bands, sensitivity-curve shapes, Table 1 constants — live in a
committed, schema-validated expectations ledger
(``validation/expectations.json``).  This package:

* loads and validates the ledger (:mod:`repro.validate.ledger`);
* evaluates each expectation against structured experiment results
  (:mod:`repro.validate.checks`);
* runs the needed experiments at a chosen scale — reusing the run
  cache and the ``repro.exec`` worker pool — and assembles a pass/fail
  report with per-claim evidence (:mod:`repro.validate.engine`);
* regenerates EXPERIMENTS.md and ``experiments_output.txt`` from the
  committed full-scale results snapshot so the fidelity ledger is
  generated, not hand-written (:mod:`repro.validate.docs`).
"""

from .checks import CHECKS, CheckError, CheckOutcome, evaluate
from .docs import render_experiments_md, render_output_txt
from .engine import (
    DEFAULT_SNAPSHOT_PATH,
    SCALES,
    ClaimResult,
    Scale,
    ValidationReport,
    collect_results,
    evaluate_expectations,
    load_snapshot,
    save_snapshot,
    snapshot_results,
    validate,
)
from .ledger import (
    DEFAULT_LEDGER_PATH,
    Expectation,
    Ledger,
    LedgerError,
    load_ledger,
    parse_ledger,
)

__all__ = [
    "CHECKS",
    "CheckError",
    "CheckOutcome",
    "ClaimResult",
    "DEFAULT_LEDGER_PATH",
    "DEFAULT_SNAPSHOT_PATH",
    "Expectation",
    "Ledger",
    "LedgerError",
    "SCALES",
    "Scale",
    "ValidationReport",
    "collect_results",
    "evaluate",
    "evaluate_expectations",
    "load_ledger",
    "load_snapshot",
    "parse_ledger",
    "render_experiments_md",
    "render_output_txt",
    "save_snapshot",
    "snapshot_results",
    "validate",
]
