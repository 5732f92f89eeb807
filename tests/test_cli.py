from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kwgraph
from kwgraph import (
    ProbeVerdict,
    RegimeTag,
    SolveStatus,
    classify_regime,
    compute_spectrum,
    minimize,
    parse_graph,
    probe_divergence,
    random_connected_graph,
    serialize_graph,
    solver,
    spectrum_to_dict,
)
from kwgraph.cli import main

from conftest import DEEP_NESTING, HUGE_INTEGER, K2_DOC, P3_DOC, int_digit_limit


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- spectrum


def test_spectrum_human_line(capsys, p3_path):
    code, out, _ = run_cli(capsys, "spectrum", str(p3_path))
    assert code == 0
    assert out == "λ: 0 (1), 1 (1), 3 (1); C_P = 1\n"


def test_spectrum_json_round_trip(capsys, p3_path):
    code, out, _ = run_cli(capsys, "spectrum", str(p3_path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc.pop("poincare_constant") == 1.0
    assert np.allclose(doc["distinct_eigenvalues"], [0.0, 1.0, 3.0], atol=1e-12)
    assert doc["multiplicities"] == [1, 1, 1]
    # every float, bases included, survives the JSON round trip exactly
    assert doc == spectrum_to_dict(compute_spectrum(parse_graph(P3_DOC)))


def test_spectrum_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "spectrum", str(tmp_path / "absent.json"))
    assert code == 1
    assert out == ""
    assert "cannot read graph" in err


def test_spectrum_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "spectrum", str(bad))
    assert code == 1
    assert "error" in err


def test_spectrum_disconnected_graph(capsys, tmp_path):
    doc = {
        "vertices": [
            {"id": "a", "mu": 1.0, "h": 1.0},
            {"id": "b", "mu": 1.0, "h": 1.0},
            {"id": "c", "mu": 1.0, "h": 1.0},
        ],
        "edges": [{"u": "a", "v": "b", "w": 1.0}],
    }
    path = tmp_path / "disc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "spectrum", str(path))
    assert code == 1
    assert "disconnected" in err


def test_spectrum_lambda1_within_the_tolerance_of_0_exit_1(capsys, tmp_path):
    # K2 with w = 1e-13 is connected, but lambda_1 = 2e-13 cannot be told
    # apart from 0
    path = tmp_path / "k2-weak.json"
    path.write_text(K2_DOC.replace('"w": 1.0', '"w": 1e-13'), encoding="utf-8")
    code, out, err = run_cli(capsys, "spectrum", str(path))
    assert code == 1
    assert out == ""
    assert "cannot be told apart from lambda_0 = 0" in err
    assert "disconnected" not in err


def test_unknown_flag(capsys, p3_path):
    code, _, err = run_cli(capsys, "spectrum", str(p3_path), "--frobnicate")
    assert code == 1
    assert "error" in err


# ---------------------------------------------------------------- solve


def test_solve_success_and_byte_identical(capsys, k2_path):
    code1, out1, err1 = run_cli(capsys, "solve", str(k2_path),
                                "--alpha", "0", "--beta", "8")
    code2, out2, _ = run_cli(capsys, "solve", str(k2_path),
                             "--alpha", "0", "--beta", "8")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["status"] == "Converged"
    assert doc["regime"]["tag"] == "MINIMIZER_IN_EK_PERP"
    assert np.isclose(abs(doc["u"]["a"]), 1.91500805, atol=1e-6)
    assert np.isclose(doc["u"]["a"] + doc["u"]["b"], 0.0, atol=1e-12)
    assert np.isclose(doc["objective"], -8.157368543894954, rtol=1e-12)
    assert doc["xi"] == 4.0  # beta / volume
    assert "MINIMIZER_IN_EK_PERP" in err1


def test_solve_json_file_copy(capsys, k2_path, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "solve", str(k2_path),
                           "--alpha", "0", "--beta", "-3",
                           "--json", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == out
    doc = json.loads(out)
    assert np.isclose(doc["objective"], 3.0 * np.log(2.0), rtol=1e-12)


def test_solve_json_to_unwritable_path_exit_1(capsys, k2_path, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "solve", str(k2_path),
                             "--alpha", "0", "--beta", "8", "--json", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write report") and err.count("\n") == 1
    assert not target.exists()


def test_solve_unbounded_exit_2(capsys, k2_path):
    code, out, err = run_cli(capsys, "solve", str(k2_path),
                             "--alpha", "3", "--beta", "1")
    assert code == 2
    assert out == ""
    assert "unbounded" in err


def test_solve_at_gap_positive_beta_exit_2(capsys, k2_path):
    code, _, _ = run_cli(capsys, "solve", str(k2_path),
                         "--alpha", "2", "--beta", "1")
    assert code == 2


def test_solve_max_iters_exit_3(capsys, k2_path, monkeypatch):
    monkeypatch.setattr(solver, "_MAX_ITERS", 1)
    code, out, _ = run_cli(capsys, "solve", str(k2_path), "--alpha", "0", "--beta", "8")
    assert code == 3
    assert json.loads(out)["status"] == "MaxIters"


def test_solve_k_out_of_range(capsys, p3_path):
    code, _, err = run_cli(capsys, "solve", str(p3_path),
                           "--alpha", "0", "--beta", "1", "--k", "7")
    assert code == 1
    assert "out of range" in err


def test_solve_missing_required_flag(capsys, k2_path):
    code, _, err = run_cli(capsys, "solve", str(k2_path), "--alpha", "0")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", ["solve", "probe"])
@pytest.mark.parametrize("flags", [
    ("--alpha", "nan", "--beta", "1"),
    ("--alpha", "0", "--beta", "nan"),
    ("--alpha", "inf", "--beta", "0"),
    ("--alpha=-inf", "--beta", "0"),
    ("--alpha", "0", "--beta", "inf"),
    ("--alpha", "0", "--beta=-inf"),
], ids=["alpha-nan", "beta-nan", "alpha-inf", "alpha-neg-inf", "beta-inf", "beta-neg-inf"])
def test_non_finite_alpha_or_beta_exit_1(capsys, k2_path, command, flags):
    code, out, err = run_cli(capsys, command, str(k2_path), *flags)
    assert code == 1
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("beta", ["-1e-3", "-2E+0"])
def test_negative_exponent_value_is_not_a_flag(capsys, k2_path, beta):
    code, out, _ = run_cli(capsys, "solve", str(k2_path), "--alpha", "0", "--beta", beta)
    assert code == 0
    assert json.loads(out)["beta"] == float(beta)


def test_negative_infinity_value_is_not_a_flag(capsys, k2_path):
    code, out, err = run_cli(capsys, "solve", str(k2_path), "--alpha", "-inf", "--beta", "0")
    assert code == 1
    assert out == ""
    assert "must be finite" in err


# ---------------------------------------------------------------- probe


def test_probe_unbounded_exit_0(capsys, k2_path):
    code, out, err = run_cli(capsys, "probe", str(k2_path),
                             "--alpha", "2", "--beta", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "unbounded"
    assert len(doc["samples"]) == 21
    t, value = doc["samples"][-1]
    assert t == 2.0 ** 20
    assert np.isclose(value, -741455.2001894653, rtol=1e-12)
    assert "unbounded" in err


def test_probe_beta_zero_samples_are_quadratic(capsys, k2_path):
    code, out, _ = run_cli(capsys, "probe", str(k2_path), "--alpha", "3", "--beta", "0")
    assert code == 0
    doc = json.loads(out)
    # alpha > lambda_1 with beta = 0: J(t e_1) = -t^2/2 exactly
    t11, v11 = doc["samples"][11]
    assert t11 == 2048.0
    assert np.isclose(v11, -0.5 * 2048.0 ** 2, rtol=1e-12)


def test_probe_bounded_regime_exit_1(capsys, k2_path):
    code, out, err = run_cli(capsys, "probe", str(k2_path),
                             "--alpha", "0", "--beta", "1")
    assert code == 1
    assert out == ""
    assert "bounded below" in err


def test_probe_inconclusive_exit_4(capsys, k2_path):
    # alpha inside eq_tol below lambda_1 = 2: J(2^20 v) is about +83
    code, out, _ = run_cli(capsys, "probe", str(k2_path),
                           "--alpha", repr(2.0 - 1.5e-9), "--beta", "1e-3")
    assert code == 4
    doc = json.loads(out)
    assert doc["verdict"] == "inconclusive"
    assert doc["samples"][-1][0] == 2.0 ** 20
    assert doc["samples"][-1][1] > 0.0


# ---------------------------------------------------------------- verify


def test_solve_then_verify_round_trip(capsys, k2_path, tmp_path):
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "solve", str(k2_path),
                         "--alpha", "0", "--beta", "8",
                         "--json", str(report_path))
    assert code == 0
    code, out, err = run_cli(capsys, "verify", str(report_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert err == ""
    names = [c["name"] for c in doc["checks"]]
    assert "kw_residual_sup" in names and "multiplier_xi" in names


def test_verify_corrupted_report_exit_5(capsys, k2_path, tmp_path):
    report_path = tmp_path / "report.json"
    run_cli(capsys, "solve", str(k2_path), "--alpha", "0", "--beta", "8",
            "--json", str(report_path))
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    doc["u"]["a"] += 1e-2
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(report_path))
    assert code == 5
    assert json.loads(out)["all_passed"] is False
    assert "FAIL" in err


def test_verify_handwritten_candidate_passes(capsys, k2_path, tmp_path):
    # u = 0 solves the equation on the two-clique with constant h for
    # any beta in the bounded regime
    doc = {"graph": str(k2_path), "alpha": 0.0, "beta": 5.0,
           "u": {"a": 0.0, "b": 0.0}}
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["all_passed"] is True


def test_verify_handwritten_candidate_fails_for_nonconstant_h(capsys, tmp_path):
    graph_doc = {
        "vertices": [
            {"id": "a", "mu": 1.0, "h": 1.0},
            {"id": "b", "mu": 1.0, "h": 2.0},
        ],
        "edges": [{"u": "a", "v": "b", "w": 1.0}],
    }
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(graph_doc), encoding="utf-8")
    doc = {"graph": "g.json", "alpha": 0.0, "beta": 5.0,
           "u": {"a": 0.0, "b": 0.0}}
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 5
    assert "kw_residual_sup" in err


def test_verify_wrong_vertex_set(capsys, k2_path, tmp_path):
    doc = {"graph": str(k2_path), "alpha": 0.0, "beta": 5.0,
           "u": {"a": 0.0, "z": 0.0}}
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "vertex id" in err


def test_verify_missing_field(capsys, k2_path, tmp_path):
    doc = {"graph": str(k2_path), "alpha": 0.0, "u": {"a": 0.0, "b": 0.0}}
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "beta" in err


@pytest.mark.parametrize("text, message", [
    (None, "cannot read solution"),
    ("{not json", "solution is not valid JSON"),
    ("[1, 2]", "solution document must be a JSON object"),
], ids=["missing-file", "not-json", "not-an-object"])
def test_verify_unreadable_solution_exit_1(capsys, tmp_path, text, message):
    path = tmp_path / "solution.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_verify_graph_path_falls_back_to_the_working_directory(capsys, tmp_path,
                                                               monkeypatch):
    # "k2.json" is not next to the solution, so it is read from the CWD
    (tmp_path / "k2.json").write_text(K2_DOC, encoding="utf-8")
    (tmp_path / "reports").mkdir()
    path = tmp_path / "reports" / "candidate.json"
    doc = {"graph": "k2.json", "alpha": 0.0, "beta": 5.0, "u": {"a": 0.0, "b": 0.0}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["all_passed"] is True


def test_verify_probe_document_names_its_kind(capsys, k2_path, tmp_path):
    # a probe document has no 'u': verify rejects it as an input error
    # and says what it was given and what it reads
    code, out, _ = run_cli(capsys, "probe", str(k2_path), "--alpha", "3", "--beta", "0")
    assert code == 0
    path = tmp_path / "probe.json"
    path.write_text(out, encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert out == ""
    assert "probe document missing 'u'" in err
    assert "solve report or a candidate" in err


@pytest.mark.parametrize("extra", [
    {"regime": {"subspace_index": None}},
    {"k": [0]},
    {"k": 1e400},
    {"xi": [1.0]},
    {"t_multipliers": 5},
    {"t_multipliers": [{"s": 1e400, "i": 0, "value": 1.0}]},
    # values that int() or float() would coerce into a valid candidate
    {"k": 0.5},
    {"k": False},
    {"k": "0"},
    {"regime": {"subspace_index": 0.5}},
    {"alpha": "0.0"},
    {"alpha": True},
    {"beta": "5"},
    {"xi": "0"},
    {"xi": 10 ** 400},
    {"u": {"a": "0", "b": 0.0}},
    {"u": {"a": False, "b": 0.0}},
    {"t_multipliers": [{"s": 0.5, "i": 0, "value": 1.0}]},
    {"t_multipliers": [{"s": True, "i": 0, "value": 1.0}]},
    {"t_multipliers": [{"s": 0, "i": 0, "value": "1.0"}]},
    # solve writes t_multipliers as {s, i, value} objects and nothing else
    {"t_multipliers": [[1, 1, 0.0]]},
    {"t_multipliers": [{"s": 1, "i": 1}]},
    # a regime that is not an object is not read as absent
    {"regime": 5},
    {"regime": "x"},
    {"regime": [1]},
    # k is read even when the regime names the subspace
    {"regime": {"subspace_index": 0}, "k": 0.5},
    {"regime": {"subspace_index": 0}, "k": "0"},
])
def test_verify_malformed_field_is_input_error(capsys, k2_path, tmp_path, extra):
    doc = {"graph": str(k2_path), "alpha": 0.0, "beta": 5.0,
           "u": {"a": 0.0, "b": 0.0}, **extra}
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_verify_uses_regime_subspace(capsys, p3_path, tmp_path):
    # NEXT_PERP report on the unit path: solve records j = 1, and the
    # verifier must check membership against E_1^perp, not E_0^perp
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "solve", str(p3_path),
                         "--alpha", "1", "--beta", "-1",
                         "--json", str(report_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(report_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 1
    assert doc["all_passed"] is True


def test_verify_reads_reports_whose_regime_has_a_trivial_subspace_key(capsys, p3_path,
                                                                      tmp_path):
    # solve reports once carried regime.trivial_subspace; verify reads
    # only regime.subspace_index, so such a report still verifies
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "solve", str(p3_path), "--alpha", "1", "--beta", "-1",
                         "--json", str(report_path))
    assert code == 0
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert set(doc["regime"]) == {"tag", "subspace_index"}
    doc["regime"]["trivial_subspace"] = False
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(report_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 1
    assert doc["all_passed"] is True


def test_verify_claimed_multipliers_checked(capsys, k2_path, tmp_path):
    report_path = tmp_path / "report.json"
    run_cli(capsys, "solve", str(k2_path), "--alpha", "0", "--beta", "8",
            "--json", str(report_path))
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    doc["xi"] = doc["xi"] + 0.5
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(report_path))
    assert code == 5
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == ["multiplier_xi"]


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_verify_non_finite_check_value_is_null(capsys, k2_path, tmp_path):
    # a t_multipliers label that the recomputation lacks measures inf
    report_path = tmp_path / "report.json"
    run_cli(capsys, "solve", str(k2_path), "--alpha", "0", "--beta", "8",
            "--json", str(report_path))
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    doc["t_multipliers"] = [{"s": 1, "i": 1, "value": 0.0}]
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(report_path))
    assert code == 5
    checks = {c["name"]: c for c in _strict_json(out)["checks"]}
    assert checks["multiplier_t"]["passed"] is False
    assert checks["multiplier_t"]["value"] is None
    assert "FAIL multiplier_t: value=inf" in err


def test_verify_candidate_near_float_range_exit_5_with_nulls(capsys, k2_path, tmp_path):
    # the residuals overflow; under tier-1 a RuntimeWarning would raise
    doc = {"graph": str(k2_path), "alpha": 0.0, "beta": 1.0,
           "u": {"a": 1.7e308, "b": -1.7e308}}
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 5
    checks = {c["name"]: c for c in _strict_json(out)["checks"]}
    for name in ("kw_residual_sup", "kw_residual_l2", "residual_mean_zero"):
        assert checks[name]["passed"] is False
        assert checks[name]["value"] is None


@pytest.mark.parametrize("command", ["verify"])
def test_infinite_tol_exit_1(capsys, k2_path, tmp_path, command):
    # --tol inf once let verify pass any candidate, here one corrupted by
    # +0.5 at one vertex
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "solve", str(k2_path), "--alpha", "0", "--beta", "8",
                         "--json", str(report_path))
    assert code == 0
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    doc["u"]["a"] += 0.5
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(report_path), "--tol", "inf")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "must be finite and positive" in err


@pytest.mark.parametrize("command, flag", [
    ("solve", ("--tol", "1e-12")),
    ("solve", ("--max-iters", "5")),
    ("probe", ("--csv", "ray.csv")),
], ids=["solve-tol", "solve-max-iters", "probe-csv"])
def test_removed_flags_are_unrecognized(capsys, k2_path, command, flag):
    alpha = {"solve": "0", "probe": "3"}[command]
    code, out, err = run_cli(capsys, command, str(k2_path), "--alpha", alpha,
                             "--beta", "1", *flag)
    assert code == 1
    assert out == ""
    assert err.startswith("error: unrecognized arguments") and flag[0] in err


def test_non_finite_output_is_an_error_not_json(capsys, k2_path):
    # J along the probe ray overflows to -inf at beta = 1e308; strict JSON
    # has no -Infinity, so nothing reaches stdout
    code, out, err = run_cli(capsys, "probe", str(k2_path), "--alpha", "10",
                             "--beta", "1e308")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------- malformed documents


@pytest.mark.parametrize("case, limit", [
    ("deep-nesting", 4300),
    ("oversized-integer", 4300),
    ("oversized-integer", 0),
], ids=["deep-nesting", "oversized-integer", "oversized-integer-no-digit-limit"])
@pytest.mark.parametrize("command", ["spectrum", "solve", "probe", "verify"])
def test_malformed_document_exits_1_with_one_error_line(capsys, tmp_path, k2_path,
                                                        command, case, limit):
    # the oversized integer is the graph's mu, or the solution's alpha;
    # without the digit limit it overflows the float range in _as_number
    if case == "deep-nesting":
        text = DEEP_NESTING
    elif command == "verify":
        doc = json.dumps({"graph": str(k2_path), "alpha": 0.0, "beta": 5.0,
                          "u": {"a": 0.0, "b": 0.0}})
        text = doc.replace('"alpha": 0.0', f'"alpha": {HUGE_INTEGER}')
    else:
        text = K2_DOC.replace('"mu": 1.0', f'"mu": {HUGE_INTEGER}', 1)
    path = tmp_path / "document.json"
    path.write_text(text, encoding="utf-8")
    problem = () if command in ("spectrum", "verify") else ("--alpha", "0", "--beta", "1")
    with int_digit_limit(limit):
        code, out, err = run_cli(capsys, command, str(path), *problem)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


# ------------------------------------------------------------- properties


def _cli(*argv):
    """(exit code, stdout) of one in-process run; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


# (where alpha lies against lambda_{k+1}, beta): every regime of the
# trichotomy. Near resonance a solve can stop short (exit 3), and at the
# gap a small beta leaves the probe inconclusive (exit 4).
REGIME_CASES = [("below", 5.0), ("below", -500.0), ("below", 500.0), ("near", 1.0),
                ("at", 0.0), ("at", -5.0), ("at", 5.0), ("at", 1e-3),
                ("above", 5.0), ("above", -5.0), ("above", 0.0)]


@pytest.mark.parametrize("place, beta", REGIME_CASES)
@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8),
       extra_edge_prob=st.sampled_from([0.0, 0.3, 1.0]), scale=st.floats(0.0, 0.9),
       data=st.data())
def test_exit_codes_and_stdout_follow_the_library(place, beta, seed, n, extra_edge_prob,
                                                  scale, data):
    text = serialize_graph(random_connected_graph(np.random.default_rng(seed), n,
                                                  extra_edge_prob=extra_edge_prob))
    g = parse_graph(text)
    sp = compute_spectrum(g)
    k = data.draw(st.integers(0, sp.num_distinct - 2), label="k")
    group = sp.members(k + 1)
    alpha = {"below": (2.0 * scale - 1.0) * float(group[0]), "near": float(group[0]) - 1e-8,
             "at": float(group[0]), "above": (1.1 + scale) * float(group[-1])}[place]
    if classify_regime(sp, alpha, beta, k).tag is RegimeTag.UNBOUNDED_BELOW:
        verdict = probe_divergence(g, sp, alpha, beta, k).verdict
        expected = {"solve": 2, "probe": 0 if verdict is ProbeVerdict.UNBOUNDED else 4}
    else:
        status = minimize(g, sp, alpha, beta, k).status
        expected = {"solve": 0 if status is SolveStatus.CONVERGED else 3, "probe": 1}
    with tempfile.TemporaryDirectory() as tmp:
        graph, report = Path(tmp) / "g.json", Path(tmp) / "report.json"
        graph.write_text(text, encoding="utf-8")
        problem = (str(graph), "--alpha", repr(alpha), "--beta", repr(beta), "--k", str(k))
        argv = {"solve": ("solve", *problem, "--json", str(report)),
                "probe": ("probe", *problem)}
        for command, args in argv.items():
            code, out = _cli(*args)
            assert code == expected[command], command
            # stdout is strict JSON, or empty where the command refuses
            assert (out == "") == (code in (1, 2))
            if out:
                json.loads(out, parse_constant=_refuse_constant)
            assert _cli(*args) == (code, out)
        if expected["solve"] == 0:
            assert _cli("verify", str(report))[0] == 0


# ---------------------------------------------------------------- imports


def test_cli_import_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(kwgraph.__file__).resolve().parents[1])}
    code = ("import sys, kwgraph.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
