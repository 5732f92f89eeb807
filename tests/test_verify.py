from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kwgraph import (
    Graph,
    SolveStatus,
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


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0])
def test_verify_candidate_tol_must_be_finite_and_positive(p3, p3_spec, tol):
    # an infinite tol once passed any candidate
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        verify_candidate(p3, p3_spec, np.ones(3), 1.0, -1.0, 1, tol=tol)


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


def _c40_at_k1():
    """C_40 with mu = w = 1 and h ~ U[1, 2], solved at k = 1 and beta = 5;
    lambda_1 has multiplicity 2. Returns the graph, its spectrum and the
    report, and a relabelling of the vertices with its spectrum."""
    n = 40
    h = np.random.default_rng(5).uniform(1.0, 2.0, n)
    g = Graph(tuple(f"v{x}" for x in range(n)), np.ones(n), h,
              tuple((x, (x + 1) % n, 1.0) for x in range(n)))
    spec = compute_spectrum(g)
    assert list(spec.multiplicities[:3]) == [1, 2, 2]
    alpha = 0.5 * (spec.eigenvalue(1) + spec.eigenvalue(2))
    report = minimize(g, spec, alpha, 5.0, 1)
    # position p of the relabelled graph holds vertex perm[p]
    perm = np.random.default_rng(6).permutation(n)
    where = np.argsort(perm)
    relabelled = Graph(tuple(g.vertex_ids[x] for x in perm), g.mu[perm], g.h[perm],
                       tuple((int(where[i]), int(where[j]), w) for i, j, w in g.edges))
    return g, spec, report, perm, relabelled, compute_spectrum(relabelled)


def test_multiplier_t_does_not_depend_on_the_basis_of_a_multiple_eigenvalue():
    # relabelling rotates the basis of lambda_1, and with it each t_1i, but
    # not the group norm |t_1|
    g, spec, report, perm, relabelled, spec2 = _c40_at_k1()
    other = minimize(relabelled, spec2, report.alpha, report.beta, 1)
    assert np.allclose(other.minimizer, report.minimizer[perm], rtol=0.0, atol=1e-11)
    assert not np.allclose([t for _, _, t in other.t_multipliers],
                           [t for _, _, t in report.t_multipliers], atol=1e-3)
    checks = verify_candidate(relabelled, spec2, other.minimizer, report.alpha, report.beta,
                              1, claimed_xi=report.xi, claimed_t=report.t_multipliers)
    assert all(c.passed for c in checks), [str(c) for c in checks]


def test_multiplier_t_fails_a_group_norm_off_by_1e_6():
    g, spec, report, *_ = _c40_at_k1()
    values = np.array([t for _, _, t in report.t_multipliers])
    norm = float(np.linalg.norm(values))
    claimed = tuple((s, i, t * (norm + 1e-6) / norm)
                    for (s, i, _), t in zip(report.t_multipliers, values))
    checks = {c.name: c for c in verify_candidate(
        g, spec, report.minimizer, report.alpha, report.beta, 1, claimed_t=claimed)}
    assert not checks["multiplier_t"].passed
    assert np.isclose(checks["multiplier_t"].value, 1e-6, rtol=1e-3)


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


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12), k=st.sampled_from([0, 1]),
       fraction=st.floats(-1.0, 0.5), beta=st.floats(-50.0, 0.0), vertex=st.integers(0, 11))
def test_a_1e_2_change_at_one_vertex_fails_the_residual(seed, n, k, fraction, beta, vertex):
    # for beta <= 0, J is strongly convex on E_j^perp with modulus
    # lambda_{j+1} - alpha >= lambda_{j+1} / 2, so a change d there moves
    # the residual by at least that modulus times |d| in L2(mu)
    g = random_connected_graph(np.random.default_rng(seed), n, (1e-2, 1e2),
                               (1e-2, 1e2), (1e-2, 1e2))
    spec = compute_spectrum(g)
    assume(k <= spec.num_distinct - 2)
    alpha = fraction * spec.eigenvalue(k + 1)
    report = minimize(g, spec, alpha, beta, k)
    assert report.status is SolveStatus.CONVERGED
    assert all(c.passed for c in verify_solution(g, spec, report, tol=1e-8))
    j = report.regime.subspace_index
    change = np.zeros(n)
    change[vertex % n] = 1e-2
    u = report.minimizer + project_Ek_perp(spec, g, change, j)
    checks = {c.name: c for c in verify_candidate(g, spec, u, alpha, beta, j, tol=1e-8)}
    assert checks["mean_zero"].passed and checks["eigenspace_orthogonality"].passed
    assert not checks["kw_residual_sup"].passed


def test_check_result_str(p3, p3_spec):
    checks = verify_candidate(p3, p3_spec, np.zeros(3), 1.0, -1.0, 1, tol=1e-10)
    text = str(checks[0])
    assert "mean_zero" in text and "pass" in text


def test_verify_candidate_near_float_range_fails_without_warning(k2, k2_spec):
    # tier-1 turns every warning into an error, so an overflow warning
    # would raise here instead of failing the residual checks
    u = np.array([1.7e308, -1.7e308])
    checks = {c.name: c for c in verify_candidate(k2, k2_spec, u, 0.0, 1.0, 0)}
    for name in ("kw_residual_sup", "kw_residual_l2", "residual_mean_zero"):
        assert not checks[name].passed
        assert not np.isfinite(checks[name].value)


def _checks_at(name, factor, k2, k2_spec, p3, p3_spec):
    """verify_candidate at tol = 1e-8 on a K2 or P3 candidate whose value
    for check ``name`` is ``factor`` times that check's limit."""
    x = factor * 1e-8
    claims = {}
    if name == "mean_zero":
        # a constant u has integral Vol x and residual 0
        args = (p3, p3_spec, np.full(3, x), 0.0, 0.0, 0)
    elif name == "eigenspace_orthogonality":
        # x u_11 at alpha = lambda_1 = 1: <u, u_11>_mu = x, residual ~ 0
        args = (p3, p3_spec, x * p3_spec.bases[1][0], 1.0, 0.0, 1)
    elif name in ("kw_residual_sup", "kw_residual_l2"):
        # the residual is Delta u = (-x, x) for u = (x, -x) / 2: sup x, L2 x sqrt(Vol)
        args = (k2, k2_spec, 0.5 * x * np.array([1.0, -1.0]), 0.0, 0.0, 0)
    elif name == "residual_mean_zero":
        # the residual is alpha u = x for a constant u = x at alpha = 1
        args = (k2, k2_spec, np.full(2, x), 1.0, 0.0, 0)
    elif name == "multiplier_xi":
        # xi = beta / Vol = 1/2 for u = 0, beta = 1
        args = (k2, k2_spec, np.zeros(2), 0.0, 1.0, 0)
        claims = {"claimed_xi": 0.5 + x}
    else:
        # t_11 = 0 for u = 0 and constant h
        args = (p3, p3_spec, np.zeros(3), 1.0, -1.0, 1)
        claims = {"claimed_t": ((1, 1, x),)}
    return {c.name: c for c in verify_candidate(*args, tol=1e-8, **claims)}


@pytest.mark.parametrize("factor, passed", [(0.5, True), (0.9, True), (1.1, False),
                                            (2.0, False)])
@pytest.mark.parametrize("name", ["mean_zero", "eigenspace_orthogonality", "kw_residual_sup",
                                  "kw_residual_l2", "residual_mean_zero", "multiplier_xi",
                                  "multiplier_t"])
def test_each_check_passes_inside_its_limit_and_fails_outside(
        name, factor, passed, k2, k2_spec, p3, p3_spec):
    # the L2 and mean checks of the residual are bounded by its sup, so they
    # fail only together with kw_residual_sup; only the named flag is asserted
    check = _checks_at(name, factor, k2, k2_spec, p3, p3_spec)[name]
    assert np.isclose(check.value, factor * check.limit, rtol=1e-6)
    assert check.passed == passed


def test_the_mean_checks_pass_a_value_exactly_at_their_limit(k2, k2_spec):
    # a constant u = 1e-8 on K2 at alpha = 1 has integral 2e-8 and residual
    # alpha u = 1e-8, whose integral is 2e-8: each equals tol * Vol in float64
    checks = {c.name: c for c in verify_candidate(k2, k2_spec, np.full(2, 1e-8), 1.0, 0.0, 0)}
    for name in ("mean_zero", "residual_mean_zero"):
        assert checks[name].value == checks[name].limit == 1e-8 * 2.0
        assert checks[name].passed


def test_verify_candidate_defaults_to_tol_1e_8(k2, k2_spec):
    checks = {c.name: c.limit for c in verify_candidate(k2, k2_spec, np.zeros(2), 0.0, 1.0, 0,
                                                        claimed_xi=0.5)}
    assert checks["kw_residual_sup"] == checks["eigenspace_orthogonality"] == 1e-8
    assert checks["multiplier_xi"] == 1e-8
    assert checks["mean_zero"] == checks["residual_mean_zero"] == 1e-8 * 2.0
    assert checks["kw_residual_l2"] == 1e-8 * np.sqrt(2.0)
