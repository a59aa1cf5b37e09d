"""Tests for the paper-fidelity subsystem (repro.validate)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.report import ExperimentResult, Fact
from repro.validate import (
    CheckError,
    Expectation,
    LedgerError,
    evaluate,
    load_ledger,
    parse_ledger,
    save_snapshot,
    snapshot_results,
    validate,
)
from repro.sim.runner import CODE_VERSION
from repro.validate.engine import (
    SCALES,
    Scale,
    collect_results,
    evaluate_expectations,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
LEDGER_PATH = REPO_ROOT / "validation" / "expectations.json"
SNAPSHOT_PATH = REPO_ROOT / "validation" / "results_full.json"


def _ledger_data(**overrides):
    """A minimal valid ledger as plain JSON data."""
    entry = {
        "id": "demo-ordering",
        "experiment": "demo",
        "kind": "ordering",
        "title": "values rise",
        "paper": "Fig. 0",
        "params": {"row": "gmean", "columns": ["a", "b"]},
        "scales": ["ci", "full"],
    }
    entry.update(overrides)
    return {"version": 1, "deviations": [], "expectations": [entry]}


def _demo_result(**rows):
    """A tiny ExperimentResult: columns workload/a/b with one gmean row."""
    result = ExperimentResult("demo", "demo experiment",
                              ["workload", "a", "b"])
    result.add_row(workload="gmean", a=rows.get("a", 1.0),
                   b=rows.get("b", 2.0))
    return result


class TestLedgerSchema:
    def test_minimal_ledger_parses(self):
        ledger = parse_ledger(_ledger_data())
        [expectation] = ledger.expectations
        assert expectation.id == "demo-ordering"
        assert expectation.kind == "ordering"

    def test_duplicate_ids_rejected(self):
        data = _ledger_data()
        data["expectations"].append(dict(data["expectations"][0]))
        with pytest.raises(LedgerError, match="duplicate"):
            parse_ledger(data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(LedgerError, match="unknown check kind"):
            parse_ledger(_ledger_data(kind="vibes"))

    def test_missing_params_rejected(self):
        with pytest.raises(LedgerError, match="missing required param"):
            parse_ledger(_ledger_data(params={"row": "gmean"}))

    def test_unknown_params_rejected(self):
        with pytest.raises(LedgerError, match="unknown param"):
            parse_ledger(_ledger_data(
                params={"row": "gmean", "columns": ["a"], "wat": 1}))

    def test_unknown_field_rejected(self):
        data = _ledger_data()
        data["expectations"][0]["surprise"] = True
        with pytest.raises(LedgerError, match="unknown field"):
            parse_ledger(data)

    def test_bad_scales_rejected(self):
        with pytest.raises(LedgerError, match="scales"):
            parse_ledger(_ledger_data(scales=["warp"]))

    def test_bad_version_rejected(self):
        data = _ledger_data()
        data["version"] = 2
        with pytest.raises(LedgerError, match="version"):
            parse_ledger(data)

    def test_band_needs_min_or_max(self):
        with pytest.raises(LedgerError, match="min/max"):
            parse_ledger(_ledger_data(
                kind="band", params={"rows": "*", "columns": ["a"]}))

    def test_bad_op_rejected(self):
        with pytest.raises(LedgerError, match="unknown op"):
            parse_ledger(_ledger_data(
                kind="compare_columns",
                params={"a": "a", "b": "b", "op": "!="}))

    def test_repo_ledger_loads_and_round_trips(self):
        ledger = load_ledger(LEDGER_PATH)
        assert len(ledger.expectations) >= 40


def _exp(kind, params, experiment="demo"):
    return Expectation(id="x", experiment=experiment, kind=kind,
                       title="t", paper="p", params=params)


class TestChecks:
    def test_ordering_strict(self):
        results = {"demo": _demo_result(a=1.0, b=2.0)}
        good = _exp("ordering", {"row": "gmean", "columns": ["a", "b"]})
        assert evaluate(good, results).passed
        bad = _exp("ordering", {"row": "gmean", "columns": ["b", "a"]})
        outcome = evaluate(bad, results)
        assert not outcome.passed
        assert "a=" in outcome.evidence  # evidence quotes the values

    def test_ordering_non_strict_allows_ties(self):
        results = {"demo": _demo_result(a=2.0, b=2.0)}
        strict = _exp("ordering", {"row": "gmean", "columns": ["a", "b"]})
        assert not evaluate(strict, results).passed
        loose = _exp("ordering", {"row": "gmean", "columns": ["a", "b"],
                                  "strict": False})
        assert evaluate(loose, results).passed

    def test_band_wildcard_and_exclude(self):
        result = ExperimentResult("demo", "d", ["workload", "a"])
        result.add_row(workload="w1", a=5.0)
        result.add_row(workload="w2", a=50.0)
        results = {"demo": result}
        failing = _exp("band", {"rows": "*", "columns": ["a"], "max": 10})
        assert not evaluate(failing, results).passed
        excluded = _exp("band", {"rows": "*", "columns": ["a"], "max": 10,
                                 "exclude_rows": ["w2"]})
        assert evaluate(excluded, results).passed

    def test_derived_band_ratio_and_diff_ratio(self):
        results = {"demo": _demo_result(a=8.0, b=10.0)}
        ratio = _exp("derived_band", {"row": "gmean", "expr": "ratio",
                                      "a": "a", "b": "b", "min": 0.75})
        assert evaluate(ratio, results).passed
        diff_ratio = _exp("derived_band", {
            "row": "gmean", "expr": "diff_ratio", "a": "b", "b": "a",
            "denom": "b", "min": 0.0, "max": 0.1})
        outcome = evaluate(diff_ratio, results)  # (10-8)/10 = 0.2 > 0.1
        assert not outcome.passed

    def test_spread(self):
        results = {"demo": _demo_result(a=1.0, b=1.4)}
        tight = _exp("spread", {"row": "gmean", "columns": ["a", "b"],
                                "max": 0.5})
        assert evaluate(tight, results).passed
        tighter = _exp("spread", {"row": "gmean", "columns": ["a", "b"],
                                  "max": 0.3})
        assert not evaluate(tighter, results).passed

    def test_cross_spread_and_cross_compare(self):
        results = {"demo": _demo_result(a=1.0, b=2.0),
                   "other": _demo_result(a=1.2, b=2.1)}
        spread = _exp("cross_spread", {"other": "other", "row": "gmean",
                                       "columns": ["a", "b"], "max": 0.3})
        assert evaluate(spread, results).passed
        compare = _exp("cross_compare", {"other": "other", "row": "gmean",
                                         "column": "a", "op": "<"})
        assert evaluate(compare, results).passed
        assert _exp("cross_compare",
                    {"other": "other", "row": "gmean", "column": "a",
                     "op": "<"}).experiments == ["demo", "other"]

    def test_compare_cells_and_columns(self):
        results = {"demo": _demo_result(a=3.0, b=2.0)}
        cells = _exp("compare_cells", {
            "row_a": "gmean", "column_a": "a", "op": ">",
            "row_b": "gmean", "column_b": "b"})
        assert evaluate(cells, results).passed
        columns = _exp("compare_columns", {"a": "b", "b": "a", "op": ">"})
        outcome = evaluate(columns, results)
        assert not outcome.passed
        assert "gmean" in outcome.evidence

    def test_compare_grouped(self):
        result = ExperimentResult("demo", "d",
                                  ["mix", "design", "score"])
        result.add_row(mix="M1", design="base", score=4.0)
        result.add_row(mix="M1", design="new", score=2.0)
        result.add_row(mix="M2", design="base", score=5.0)
        result.add_row(mix="M2", design="new", score=3.0)
        results = {"demo": result}
        grouped = _exp("compare_grouped", {
            "group_by": "mix", "match": {"design": "new"},
            "baseline": {"design": "base"}, "column": "score", "op": "<"})
        assert evaluate(grouped, results).passed
        missing = _exp("compare_grouped", {
            "group_by": "mix", "match": {"design": "absent"},
            "baseline": {"design": "base"}, "column": "score", "op": "<"})
        with pytest.raises(CheckError, match="lacks"):
            evaluate(missing, results)

    def test_top_rank_by_column_and_metric(self):
        result = ExperimentResult("demo", "d", ["workload", "a", "b"])
        result.add_row(workload="w1", a=1.0, b=9.0)
        result.add_row(workload="w2", a=5.0, b=1.0)
        result.add_row(workload="w3", a=3.0, b=3.0)
        results = {"demo": result}
        by_column = _exp("top_rank", {"column": "a", "k": 1,
                                      "expect": ["w2"]})
        assert evaluate(by_column, results).passed
        by_metric = _exp("top_rank", {"metric": {"a": "b", "b": "a"},
                                      "k": 1, "expect": ["w1"]})
        assert evaluate(by_metric, results).passed
        bottom = _exp("top_rank", {"column": "a", "k": 1, "rank": "bottom",
                                   "expect": ["w1"]})
        assert evaluate(bottom, results).passed

    def test_knee(self):
        result = ExperimentResult("demo", "d",
                                  ["workload", "s1", "s2", "s3"])
        result.add_row(workload="gmean", s1=10.0, s2=15.0, s3=15.1)
        results = {"demo": result}
        knee = _exp("knee", {"row": "gmean",
                             "columns": ["s1", "s2", "s3"], "at": "s2",
                             "min_gain_before": 4.0,
                             "max_gain_after": 0.5})
        assert evaluate(knee, results).passed
        sharp = _exp("knee", {"row": "gmean",
                              "columns": ["s1", "s2", "s3"], "at": "s1",
                              "min_gain_before": 1.0})
        assert not evaluate(sharp, results).passed

    def test_roster(self):
        result = ExperimentResult("demo", "d", ["workload"])
        result.add_row(workload="w1")
        result.add_row(workload="w2")
        results = {"demo": result}
        exact = _exp("roster", {"column": "workload",
                                "expect": ["w1", "w2"]})
        assert evaluate(exact, results).passed
        short = _exp("roster", {"column": "workload", "expect": ["w1"]})
        assert not evaluate(short, results).passed
        subset = _exp("roster", {"column": "workload", "expect": ["w1"],
                                 "exact": False})
        assert evaluate(subset, results).passed

    def test_facts(self):
        result = _demo_result()
        result.add_fact("answer", 42.0, unit="", paper=41.0)
        results = {"demo": result}
        equals = _exp("facts", {"facts": {"answer": {"equals": 42.0}}})
        assert evaluate(equals, results).passed
        band = _exp("facts", {"facts": {"answer": {"min": 40, "max": 41}}})
        assert not evaluate(band, results).passed
        absent = _exp("facts", {"facts": {"missing": {"equals": 1}}})
        with pytest.raises(CheckError, match="no fact"):
            evaluate(absent, results)

    def test_unknown_row_or_column_is_check_error(self):
        results = {"demo": _demo_result()}
        bad_row = _exp("ordering", {"row": "nope", "columns": ["a", "b"]})
        with pytest.raises(CheckError, match="no row"):
            evaluate(bad_row, results)
        bad_column = _exp("ordering", {"row": "gmean",
                                       "columns": ["a", "zzz"]})
        with pytest.raises(CheckError, match="unknown column"):
            evaluate(bad_column, results)


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        result = _demo_result(a=1.5, b=2.5)
        result.add_fact("answer", 42.0, unit="u", paper=41.0, note="n")
        result.notes.append("a note")
        path = tmp_path / "snap.json"
        save_snapshot({"demo": result}, "full", path)
        loaded = snapshot_results(path)
        assert loaded["demo"].to_dict() == result.to_dict()
        assert loaded["demo"].facts["answer"].unit == "u"

    def test_truncated_snapshot_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text('{"scale": "full"}')
        with pytest.raises(ValueError, match="lacks"):
            snapshot_results(path)

    def test_snapshot_from_another_code_version_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        save_snapshot({"demo": _demo_result()}, "full", path)
        data = json.loads(path.read_text())
        data["code_version"] = CODE_VERSION - 3
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as error:
            snapshot_results(path)
        message = str(error.value)
        assert f"code_version {CODE_VERSION - 3}" in message
        assert f"CODE_VERSION is {CODE_VERSION}" in message
        assert f"repro validate --scale full --save-snapshot {path}" \
            in message


class TestEngine:
    def test_missing_experiment_becomes_skip(self):
        expectation = _exp("ordering",
                           {"row": "gmean", "columns": ["a", "b"]},
                           experiment="absent")
        report = evaluate_expectations([expectation], {}, "ci")
        assert report.claims[0].status == "skip"
        assert report.ok  # skips do not fail the report

    def test_check_error_becomes_error_status(self):
        expectation = _exp("ordering",
                           {"row": "nope", "columns": ["a", "b"]})
        report = evaluate_expectations(
            [expectation], {"demo": _demo_result()}, "ci")
        assert report.claims[0].status == "error"
        assert not report.ok

    def test_validate_from_snapshot_with_scale_filter(self, tmp_path):
        snapshot = tmp_path / "snap.json"
        save_snapshot({"demo": _demo_result(a=1.0, b=2.0)}, "full",
                      snapshot)
        data = _ledger_data()
        data["expectations"].append({
            "id": "full-only", "experiment": "demo", "kind": "ordering",
            "title": "t", "paper": "p",
            "params": {"row": "gmean", "columns": ["a", "b"]},
            "scales": ["full"],
        })
        ledger = parse_ledger(data)
        report = validate(ledger, scale="ci", snapshot=snapshot)
        by_id = {c.id: c for c in report.claims}
        assert by_id["demo-ordering"].status == "pass"
        assert by_id["full-only"].status == "skip"
        assert "full" in by_id["full-only"].evidence

    def test_validate_rejects_unknown_only(self):
        ledger = parse_ledger(_ledger_data())
        with pytest.raises(KeyError, match="unknown"):
            validate(ledger, scale="ci", only=["typo-id"])

    def test_jobs_honoured_without_cache(self, capsys, monkeypatch):
        """``--no-cache`` used to run every harness in-process, ignoring
        ``--jobs`` and simulating shared runs once per table."""
        import repro.sim.runner

        in_process = []
        simulate = repro.sim.runner.simulate

        def counted(*args, **kwargs):
            in_process.append(1)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(repro.sim.runner, "simulate", counted)
        results = collect_results(["fig7a", "fig8a"],
                                  Scale("tiny", 300, 300),
                                  use_cache=False, jobs=2)
        assert list(results) == ["fig7a", "fig8a"]
        assert results["fig8a"].row_by("workload", "gmean")
        assert in_process == []
        err = capsys.readouterr().err
        # fig8a's threshold-1 column is fig7a's das run.
        assert "planned 110 runs -> 90 unique" in err
        assert "90 simulated (jobs=2)" in err

    def test_scales_are_consistent(self):
        assert SCALES["full"].refs_for("fig7a") is None
        assert SCALES["ci"].refs_for("fig7a") == 20_000
        assert SCALES["ci"].refs_for("fig7d") == 12_000  # mix experiment


class TestValidateCli:
    def test_json_report_for_static_experiments(self, capsys):
        code = main(["validate", "--scale", "ci",
                     "--only", "table1,table2", "--json",
                     "--ledger", str(LEDGER_PATH)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["ok"] is True
        assert report["scale"] == "ci"
        assert report["counts"]["fail"] == 0
        statuses = {c["id"]: c["status"] for c in report["claims"]}
        assert statuses["t1-asym-timings"] == "pass"
        assert statuses["t2-roster"] == "pass"
        assert all(s == "pass" for s in statuses.values())

    def test_broken_expectation_fails_loudly(self, capsys, tmp_path):
        ledger = json.loads(LEDGER_PATH.read_text())
        broken = {
            "id": "broken-on-purpose", "experiment": "table1",
            "kind": "facts", "title": "deliberately wrong",
            "paper": "nowhere",
            "params": {"facts": {"trcd_fast_ns": {"equals": 999.0}}},
            "scales": ["ci", "full"],
        }
        ledger["expectations"].append(broken)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(ledger))
        code = main(["validate", "--scale", "ci", "--only", "table1",
                     "--json", "--ledger", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["ok"] is False
        by_id = {c["id"]: c for c in report["claims"]}
        assert by_id["broken-on-purpose"]["status"] == "fail"
        assert "999" in by_id["broken-on-purpose"]["evidence"]

    def test_malformed_ledger_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", "--ledger", str(path)]) == 2
        assert "ledger error" in capsys.readouterr().err

    def test_list_expectations(self, capsys):
        assert main(["validate", "--list",
                     "--ledger", str(LEDGER_PATH)]) == 0
        out = capsys.readouterr().out
        assert "fig7a-ordering" in out
        assert "[fig7a, ordering" in out


needs_snapshot = pytest.mark.skipif(
    not SNAPSHOT_PATH.exists(),
    reason="committed full-scale snapshot not present")


class TestCommittedArtifacts:
    @needs_snapshot
    def test_full_ledger_passes_against_snapshot(self, capsys):
        code = main(["validate", "--scale", "full",
                     "--from-snapshot", str(SNAPSHOT_PATH),
                     "--ledger", str(LEDGER_PATH), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["counts"]["fail"] == 0
        assert report["counts"]["error"] == 0

    @needs_snapshot
    def test_experiments_md_matches_regeneration(self, capsys):
        assert main(["docs", "experiments", "--check",
                     "--snapshot", str(SNAPSHOT_PATH),
                     "--ledger", str(LEDGER_PATH),
                     "--out", str(REPO_ROOT / "EXPERIMENTS.md")]) == 0

    @needs_snapshot
    def test_output_txt_matches_regeneration(self, capsys):
        assert main(["docs", "output", "--check",
                     "--snapshot", str(SNAPSHOT_PATH),
                     "--out",
                     str(REPO_ROOT / "experiments_output.txt")]) == 0

    @needs_snapshot
    def test_docs_check_detects_drift(self, capsys, tmp_path):
        drifted = tmp_path / "EXPERIMENTS.md"
        drifted.write_text("# stale\n")
        assert main(["docs", "experiments", "--check",
                     "--snapshot", str(SNAPSHOT_PATH),
                     "--ledger", str(LEDGER_PATH),
                     "--out", str(drifted)]) == 1
        assert "drift" in capsys.readouterr().err

    @needs_snapshot
    def test_stale_snapshot_fails_validate_and_docs(self, capsys, tmp_path):
        data = json.loads(SNAPSHOT_PATH.read_text())
        data["code_version"] = 7
        stale = tmp_path / "results_full.json"
        stale.write_text(json.dumps(data))
        assert main(["validate", "--scale", "full",
                     "--from-snapshot", str(stale),
                     "--ledger", str(LEDGER_PATH)]) == 2
        assert main(["docs", "experiments", "--check",
                     "--snapshot", str(stale),
                     "--ledger", str(LEDGER_PATH),
                     "--out", str(REPO_ROOT / "EXPERIMENTS.md")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        validate_error, docs_error = captured.err.splitlines()
        for error in (validate_error, docs_error):
            assert "code_version 7" in error
            assert f"CODE_VERSION is {CODE_VERSION}" in error
            assert "repro validate --scale full --save-snapshot" in error

    @needs_snapshot
    def test_closed_stdout_exits_without_traceback(self):
        """``repro validate ... | head`` used to end in a traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            process = subprocess.run(
                [sys.executable, "-m", "repro", "validate", "--scale",
                 "full", "--from-snapshot", str(SNAPSHOT_PATH)],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                cwd=REPO_ROOT,
                env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")))
        finally:
            os.close(write_end)
        assert process.returncode == 1
        assert "Traceback" not in process.stderr
        assert "BrokenPipeError" not in process.stderr

    @needs_snapshot
    def test_every_checked_claim_in_docs_names_a_ledger_id(self):
        ledger = load_ledger(LEDGER_PATH)
        ids = {expectation.id for expectation in ledger.expectations}
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        claim_lines = [line for line in text.splitlines()
                       if line.startswith(("* ✔", "* ✘"))]
        assert claim_lines, "generated EXPERIMENTS.md has no claim lines"
        for line in claim_lines:
            name = line.split("`")[1]
            assert name in ids, f"claim line references unknown id {name}"

    def test_fact_round_trip_through_result_dict(self):
        fact = Fact(name="x", value=1.5, unit="ns", paper=2.0, note="n")
        assert Fact.from_dict(fact.to_dict()) == fact
