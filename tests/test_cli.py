from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kwgraph
from kwgraph import spectrum_from_dict
from kwgraph.cli import main


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
    assert doc["poincare_constant"] == 1.0
    spec = spectrum_from_dict(doc)
    assert np.allclose(spec.distinct_eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)
    assert list(spec.multiplicities) == [1, 1, 1]
    # bases survive the JSON round trip exactly
    for block in spec.bases:
        assert block.dtype == np.float64


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


def test_spectrum_tol_merging_lambda1_names_the_tolerance(capsys, p3_path):
    # the unit path P3 is connected; --tol 0.9 merges lambda_1 = 1 with 0
    code, out, err = run_cli(capsys, "spectrum", str(p3_path), "--tol", "0.9")
    assert code == 1
    assert out == ""
    assert "grouping_tol=0.9 merged lambda_0 = 0 with lambda_1 = " in err
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


def test_solve_max_iters_exit_3(capsys, k2_path):
    code, out, _ = run_cli(capsys, "solve", str(k2_path),
                           "--alpha", "0", "--beta", "8", "--max-iters", "1")
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


def test_probe_csv_copy(capsys, k2_path, tmp_path):
    csv_path = tmp_path / "ray.csv"
    code, out, _ = run_cli(capsys, "probe", str(k2_path),
                           "--alpha", "3", "--beta", "0", "--csv", str(csv_path))
    assert code == 0
    doc = json.loads(out)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,J"
    assert len(lines) == len(doc["samples"]) + 1
    # repr round-trip: every CSV row reproduces the JSON sample exactly
    for row, (t, value) in zip(lines[1:], doc["samples"]):
        t_text, value_text = row.split(",")
        assert float(t_text) == t
        assert float(value_text) == value
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


@pytest.mark.parametrize("extra", [
    {"regime": {"subspace_index": None}},
    {"k": [0]},
    {"k": 1e400},
    {"xi": [1.0]},
    {"t_multipliers": 5},
    {"t_multipliers": [[1e400, 0, 1.0]]},
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
    {"t_multipliers": [[0.5, 0, 1.0]]},
    {"t_multipliers": [{"s": True, "i": 0, "value": 1.0}]},
    {"t_multipliers": [[0, 0, "1.0"]]},
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
    doc["t_multipliers"] = [[1, 1, 0.0]]
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(report_path))
    assert code == 5
    checks = {c["name"]: c for c in _strict_json(out)["checks"]}
    assert checks["multiplier_t"]["passed"] is False
    assert checks["multiplier_t"]["value"] is None
    assert "FAIL multiplier_t: value=inf" in err


@pytest.mark.parametrize("command", ["solve", "verify", "spectrum"])
def test_infinite_tol_exit_1(capsys, k2_path, tmp_path, command):
    # --tol inf once let a solve "converge" anywhere and verify pass any
    # candidate, here one corrupted by +0.5 at one vertex
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "solve", str(k2_path), "--alpha", "0", "--beta", "8",
                         "--json", str(report_path))
    assert code == 0
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    doc["u"]["a"] += 0.5
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    argv = {"solve": ["solve", str(k2_path), "--alpha", "0.1", "--beta", "3"],
            "verify": ["verify", str(report_path)],
            "spectrum": ["spectrum", str(k2_path)]}[command]
    code, out, err = run_cli(capsys, *argv, "--tol", "inf")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "must be finite and positive" in err


def test_non_finite_output_is_an_error_not_json(capsys, k2_path):
    # J along the probe ray overflows to -inf at beta = 1e308; strict JSON
    # has no -Infinity, so nothing reaches stdout
    code, out, err = run_cli(capsys, "probe", str(k2_path), "--alpha", "10",
                             "--beta", "1e308")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------- imports


def test_cli_import_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(kwgraph.__file__).resolve().parents[1])}
    code = ("import sys, kwgraph.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
