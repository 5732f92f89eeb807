from __future__ import annotations

import numpy as np
import pytest

from kwgraph import (
    complete_graph,
    heu_weights,
    laplacian,
    compute_spectrum,
    el_gradient,
    integrate,
    kw_residual,
    minimize,
    mu_inner,
    multipliers,
    path_graph,
    project_Ek,
    project_Ek_perp,
    random_connected_graph,
    verify_candidate,
    verify_solution,
)


def test_multipliers_beta_zero(p3, p3_spec):
    rng = np.random.default_rng(41)
    u = rng.standard_normal(3)
    xi, t = multipliers(p3, p3_spec, u, 0.0, 2)
    assert xi == 0.0
    assert all(value == 0.0 for _, _, value in t)
    assert [(s, i) for s, i, _ in t] == [(1, 1), (2, 1)]


def test_multipliers_p3_constant_h(p3, p3_spec):
    xi, t = multipliers(p3, p3_spec, np.zeros(3), -1.0, 1)
    assert np.isclose(xi, -1.0 / 3.0, rtol=1e-14)
    assert t == ((1, 1, 0.0),) or abs(t[0][2]) <= 1e-15


def test_multipliers_p3_nonconstant_h():
    g = path_graph(3, h=np.array([1.0, 1.0, 2.0]))
    spec = compute_spectrum(g)
    xi, t = multipliers(g, spec, np.zeros(3), -1.0, 1)
    assert np.isclose(xi, -1.0 / 3.0, rtol=1e-14)
    ((s, i, value),) = t
    assert (s, i) == (1, 1)
    # t_11 = -(-1) * (1 + 0 - 2) / (sqrt(2) * 4) = 1/(4 sqrt 2)
    assert np.isclose(value, 1.0 / (4.0 * np.sqrt(2.0)), rtol=1e-12)


def test_multipliers_rejects_bad_k(p3, p3_spec):
    with pytest.raises(ValueError, match="out of range"):
        multipliers(p3, p3_spec, np.zeros(3), 1.0, 5)


def test_kw_residual_zero_for_constant_h(k2, k2_spec):
    for alpha, beta in [(0.0, 1.0), (0.5, -4.0), (1.5, 100.0)]:
        r = kw_residual(k2, k2_spec, np.zeros(2), alpha, beta, 0)
        assert float(np.max(np.abs(r))) <= 1e-14


def test_kw_residual_equals_minus_gradient_k2(k2, k2_spec):
    u = np.array([1.0, -1.0])
    r = kw_residual(k2, k2_spec, u, 0.0, 1.0, 0)
    grad = el_gradient(k2, k2_spec, u, 0.0, 1.0, 0)
    assert np.allclose(r, -grad, atol=1e-13)
    expected = (4.0 - np.tanh(1.0)) / 2.0
    assert np.allclose(r, [-expected, expected], rtol=1e-12)


def test_residual_gradient_duality_random():
    rng = np.random.default_rng(42)
    for _ in range(30):
        g = random_connected_graph(rng, int(rng.integers(3, 15)))
        spec = compute_spectrum(g)
        k = int(rng.integers(0, spec.num_distinct))
        u = project_Ek_perp(spec, g, rng.standard_normal(g.num_vertices), k)
        r = kw_residual(g, spec, u, float(rng.uniform(-2, 2)),
                        float(rng.uniform(-3, 3)), k)
        # residuals lie in E_k^perp by construction of the multipliers
        assert abs(integrate(g, r)) <= 1e-10 * (1.0 + float(np.max(np.abs(r)))) * g.volume
        for s in range(1, k + 1):
            for vec in spec.bases[s]:
                assert abs(mu_inner(g, r, vec)) <= 1e-10 * (1.0 + float(np.max(np.abs(r))))


def test_residual_is_minus_gradient_in_subspace():
    rng = np.random.default_rng(43)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(3, 12)))
        spec = compute_spectrum(g)
        k = int(rng.integers(0, spec.num_distinct - 1))
        alpha = float(rng.uniform(-2, 2))
        beta = float(rng.uniform(-3, 3))
        u = project_Ek_perp(spec, g, rng.standard_normal(g.num_vertices), k)
        r = kw_residual(g, spec, u, alpha, beta, k)
        grad = el_gradient(g, spec, u, alpha, beta, k)
        scale = 1.0 + float(np.max(np.abs(grad)))
        assert float(np.max(np.abs(r + grad))) <= 1e-10 * scale


@pytest.mark.parametrize("graph", [
    complete_graph(5, h=np.linspace(0.5, 2.0, 5)),
    random_connected_graph(np.random.default_rng(44), 11, extra_edge_prob=0.3),
], ids=["K5", "random11"])
def test_subspace_products_match_per_row_loops(graph):
    # reference: one basis row at a time, as the products were first written
    spec = compute_spectrum(graph)
    rng = np.random.default_rng(45)
    u = 3.0 * rng.standard_normal(graph.num_vertices)
    alpha, beta = 0.7, -2.5
    p = heu_weights(graph, u)
    for k in range(spec.num_distinct):
        rows = [(s, i, vec) for s in range(1, k + 1)
                for i, vec in enumerate(spec.bases[s], start=1)]
        t_ref = [(s, i, beta * float(p @ vec)) for s, i, vec in rows]
        r_ref = laplacian(graph, u) + alpha * u + beta * p / graph.mu - beta / graph.volume
        proj_ref = np.zeros(graph.num_vertices)
        for _, _, vec in rows:
            r_ref = r_ref - beta * float(p @ vec) * vec
            proj_ref += mu_inner(graph, u, vec) * vec
        worst_ref = max((abs(mu_inner(graph, u, vec)) for _, _, vec in rows), default=0.0)

        _, t = multipliers(graph, spec, u, beta, k)
        assert [key[:2] for key in t] == [key[:2] for key in t_ref]
        for (_, _, mine), (_, _, ref) in zip(t, t_ref):
            assert abs(mine - ref) <= 1e-12 * (1.0 + abs(ref))
        r = kw_residual(graph, spec, u, alpha, beta, k)
        assert np.max(np.abs(r - r_ref)) <= 1e-12 * (1.0 + np.max(np.abs(r_ref)))
        proj = project_Ek(spec, graph, u, k)
        assert np.max(np.abs(proj - proj_ref)) <= 1e-12 * (1.0 + np.max(np.abs(proj_ref)))
        checks = {c.name: c for c in verify_candidate(graph, spec, u, alpha, beta, k)}
        worst = checks["eigenspace_orthogonality"].value
        assert abs(worst - worst_ref) <= 1e-12 * (1.0 + worst_ref)


def test_verify_candidate_exact_solution(p3, p3_spec):
    checks = verify_candidate(p3, p3_spec, np.zeros(3), 1.0, -1.0, 1, tol=1e-10)
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert names == ["mean_zero", "eigenspace_orthogonality", "kw_residual_sup",
                     "kw_residual_l2", "residual_mean_zero"]


def test_verify_candidate_claimed_multipliers(p3, p3_spec):
    checks = verify_candidate(p3, p3_spec, np.zeros(3), 1.0, -1.0, 1, tol=1e-10,
                              claimed_xi=-1.0 / 3.0, claimed_t=((1, 1, 0.0),))
    assert all(c.passed for c in checks)
    checks = verify_candidate(p3, p3_spec, np.zeros(3), 1.0, -1.0, 1, tol=1e-10,
                              claimed_xi=-0.25, claimed_t=((1, 1, 0.5),))
    by_name = {c.name: c for c in checks}
    assert not by_name["multiplier_xi"].passed
    assert not by_name["multiplier_t"].passed


def test_verify_candidate_wrong_t_keys(p3, p3_spec):
    checks = verify_candidate(p3, p3_spec, np.zeros(3), 1.0, -1.0, 1, tol=1e-10,
                              claimed_t=((2, 1, 0.0),))
    by_name = {c.name: c for c in checks}
    assert not by_name["multiplier_t"].passed
    assert by_name["multiplier_t"].value == float("inf")


def test_verify_candidate_detects_broken_membership(p3, p3_spec):
    by_name = {c.name: c for c in
               verify_candidate(p3, p3_spec, np.array([1.0, 1.0, 1.0]),
                                1.0, -1.0, 1, tol=1e-8)}
    assert not by_name["mean_zero"].passed
    eigvec = np.array([1.0, 0.0, -1.0])
    by_name = {c.name: c for c in
               verify_candidate(p3, p3_spec, eigvec, 1.0, -1.0, 1, tol=1e-8)}
    assert not by_name["eigenspace_orthogonality"].passed


def test_verify_candidate_detects_residual(k2, k2_spec):
    # u=0 solves the equation for constant h but not for h=(1,2)
    g2 = complete_graph(2, h=np.array([1.0, 2.0]))
    spec2 = compute_spectrum(g2)
    ok = verify_candidate(k2, k2_spec, np.zeros(2), 0.0, 5.0, 0, tol=1e-8)
    assert all(c.passed for c in ok)
    bad = {c.name: c for c in
           verify_candidate(g2, spec2, np.zeros(2), 0.0, 5.0, 0, tol=1e-8)}
    assert not bad["kw_residual_sup"].passed


def test_verify_solution_of_solver_report(k2, k2_spec):
    report = minimize(k2, k2_spec, 0.0, 8.0)
    checks = verify_solution(k2, k2_spec, report, tol=1e-8)
    assert all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert {"multiplier_xi", "multiplier_t"} <= names


def test_verify_solution_rejects_corruption(k2, k2_spec):
    report = minimize(k2, k2_spec, 0.0, 8.0)
    u = report.minimizer.copy()
    u[0] += 0.01
    checks = verify_candidate(k2, k2_spec, u, report.alpha, report.beta,
                              report.regime.subspace_index, tol=1e-8)
    assert not all(c.passed for c in checks)


def test_check_result_str(p3, p3_spec):
    checks = verify_candidate(p3, p3_spec, np.zeros(3), 1.0, -1.0, 1, tol=1e-10)
    text = str(checks[0])
    assert "mean_zero" in text and "pass" in text
