"""Simulated behaviour is pinned per ``CODE_VERSION`` (DESIGN.md §14).

:class:`~tests.test_engine.TestEquivalence` compares two runs of the
same code; these digests compare against runs of the code that recorded
them, so a refactor that moves any simulated number fails here unless
``CODE_VERSION`` is bumped (which also re-keys the result store).  The
table digests extend this to tabulation: a refactor of how experiments
declare, execute and tabulate their runs must leave every table equal.
"""

from __future__ import annotations

import pytest

from behaviour_digest import (
    CASES,
    STALE,
    TABLES,
    digest,
    import_k6_sample,
    recorded,
    table_digest,
)
from repro.sim.runner import CODE_VERSION

RECORDED = recorded()


@pytest.fixture(autouse=True)
def _isolated_trace_library(monkeypatch, tmp_path):
    """Undo :func:`import_k6_sample`'s ``REPRO_TRACE_DIR`` after a test."""
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))


def test_recorded_at_current_version():
    assert RECORDED["code_version"] == CODE_VERSION, (
        f"digests were recorded at CODE_VERSION {RECORDED['code_version']}"
        f" but the code is at {CODE_VERSION}: re-record them "
        f"(PYTHONPATH=src python tests/behaviour_digest.py --record)")
    assert sorted(RECORDED["digests"]) == sorted(CASES)
    assert sorted(RECORDED["tables"]) == sorted(TABLES)


@pytest.mark.parametrize("case", list(CASES))
def test_digest_matches_recording(case, tmp_path):
    if case.startswith("trace:"):
        import_k6_sample(tmp_path / "lib")
    if RECORDED["code_version"] == CODE_VERSION:
        assert digest(case) == RECORDED["digests"][case], (
            f"{case}: simulated behaviour changed at CODE_VERSION "
            f"{CODE_VERSION}; {STALE}")


@pytest.mark.parametrize("experiment_id", list(TABLES))
def test_table_digest_matches_recording(experiment_id):
    if RECORDED["code_version"] == CODE_VERSION:
        assert table_digest(experiment_id) == \
            RECORDED["tables"][experiment_id], (
                f"{experiment_id}: the table changed at CODE_VERSION "
                f"{CODE_VERSION}; a refactor must leave it unchanged "
                f"(after a deliberate model change, {STALE})")
