from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from kwgraph import (
    BoundedRegimeError,
    Graph,
    ProbeVerdict,
    RegimeTag,
    SolveStatus,
    UnboundedRegimeError,
    classify_regime,
    complete_graph,
    compute_spectrum,
    eval_J,
    hessian_quadratic_form,
    laplacian,
    minimize,
    mu_inner,
    path_graph,
    probe_divergence,
    random_connected_graph,
    verify_candidate,
    verify_solution,
)
from kwgraph import solver
from kwgraph.solver import (
    DIVERGENCE_DEPTH,
    _coord_gradient,
    _coord_hessian,
    _coord_shift,
    _strictly_convex,
)

from conftest import log_uniform_graph


# ---------------------------------------------------------------- regimes


def test_classify_below_gap(p3, p3_spec):
    # lambda_1 = 1 on the unit path
    r = classify_regime(p3_spec, 0.5, 7.0, 0)
    assert r.tag is RegimeTag.MINIMIZER_IN_EK_PERP
    assert r.subspace_index == 0


def test_classify_at_gap_three_ways(p3, p3_spec):
    r0 = classify_regime(p3_spec, 1.0, 0.0, 0)
    assert r0.tag is RegimeTag.EIGENFUNCTION_SOLUTION
    assert r0.subspace_index == 0
    rneg = classify_regime(p3_spec, 1.0, -2.0, 0)
    assert rneg.tag is RegimeTag.MINIMIZER_IN_NEXT_PERP
    assert rneg.subspace_index == 1
    rpos = classify_regime(p3_spec, 1.0, 0.5, 0)
    assert rpos.tag is RegimeTag.UNBOUNDED_BELOW


def test_classify_above_gap(p3, p3_spec):
    for beta in (-1.0, 0.0, 1.0):
        r = classify_regime(p3_spec, 1.0 + 1e-6, beta, 0)
        assert r.tag is RegimeTag.UNBOUNDED_BELOW


def test_classify_trivial_next_perp(k2, k2_spec):
    # K2 has distinct eigenvalues {0, 2}; at alpha = 2, beta < 0 the
    # minimization moves to E_1^perp = {0}
    r = classify_regime(k2_spec, 2.0, -1.0, 0)
    assert r.tag is RegimeTag.MINIMIZER_IN_NEXT_PERP
    assert r.subspace_index == 1


def test_classify_eq_tol_boundary(p3, p3_spec):
    tol = p3_spec.tolerance(1.0)
    assert 1e-9 * 2.0 < tol < 1e-9 * 2.0 + 1e-13
    inside = classify_regime(p3_spec, 1.0 + 0.5 * tol, 0.0, 0)
    assert inside.tag is RegimeTag.EIGENFUNCTION_SOLUTION
    outside = classify_regime(p3_spec, 1.0 + 2.0 * tol, 0.0, 0)
    assert outside.tag is RegimeTag.UNBOUNDED_BELOW


def test_classify_puts_alpha_exactly_at_either_edge_at_the_gap(p3, p3_spec):
    group = p3_spec.members(1)
    lo, hi = float(group[0]), float(group[-1])
    for alpha in (lo - p3_spec.tolerance(lo), hi + p3_spec.tolerance(hi)):
        assert classify_regime(p3_spec, alpha, 0.0, 0).tag is RegimeTag.EIGENFUNCTION_SOLUTION
        assert classify_regime(p3_spec, alpha, -1.0, 0).tag is RegimeTag.MINIMIZER_IN_NEXT_PERP
    past = float(np.nextafter(hi + p3_spec.tolerance(hi), np.inf))
    assert classify_regime(p3_spec, past, -1.0, 0).tag is RegimeTag.UNBOUNDED_BELOW


def test_classify_rejects_bad_k(p3, p3_spec):
    with pytest.raises(ValueError, match="out of range"):
        classify_regime(p3_spec, 0.0, 0.0, 2)
    with pytest.raises(ValueError, match="out of range"):
        classify_regime(p3_spec, 0.0, 0.0, -1)


# ------------------------------------------------ near-degenerate spectra


def _star(mu, h, weights):
    """A star with center 0 and one leaf per weight."""
    n = len(weights) + 1
    return Graph(tuple(f"v{x}" for x in range(n)), mu, h,
                 tuple((0, leaf + 1, float(w)) for leaf, w in enumerate(weights)))


# lambda_1 = 1.0000e-3 and lambda_2 = 1.0066e-3 lie 0.66% apart
NEAR_STAR = _star([1.0, 100.0, 100.0, 100.0, 0.01], [1.0, 1.0, 2.0, 3.0, 1.0],
                  [0.1, 0.101, 0.1, 100.0])


def test_near_degenerate_star_keeps_every_eigenvalue():
    spec = compute_spectrum(NEAR_STAR)
    assert list(spec.multiplicities) == [1] * 5
    assert np.isclose(spec.eigenvalue(1), 1.0e-3, rtol=1e-4)
    assert np.isclose(spec.eigenvalue(2), 1.00664e-3, rtol=1e-5)
    # between lambda_1 and lambda_2: inf J = -inf along u_1 even at beta < 0
    alpha = 1.0033222e-3
    assert eval_J(NEAR_STAR, 1e6 * spec.bases[1][0], alpha, -1.0) < -1e6
    with pytest.raises(UnboundedRegimeError):
        minimize(NEAR_STAR, spec, alpha, -1.0)
    report = minimize(NEAR_STAR, spec, spec.eigenvalue(1), 0.0)
    assert report.regime.tag is RegimeTag.EIGENFUNCTION_SOLUTION
    checks = verify_solution(NEAR_STAR, spec, report)
    assert all(c.passed for c in checks), [str(c) for c in checks]


def _k5_with_one_weight(weight):
    edges = [(i, j, 1.0) for i in range(5) for j in range(i + 1, 5)]
    edges[0] = (0, 1, weight)
    return Graph(tuple("abcde"), np.ones(5), np.arange(1.0, 6.0), tuple(edges))


def test_perturbed_k5_classifies_against_its_own_eigenvalues():
    # eigenvalues 5 (x3) and 5.00000004; alpha lies 2.8e-9 above
    # lambda_1 = 5, inside its tolerance 6e-9
    g = _k5_with_one_weight(1.0 + 2e-8)
    spec = compute_spectrum(g)
    assert list(spec.multiplicities) == [1, 3, 1]
    alpha = 5.00000001 - 1.2e-9 * 6.00000001
    report = minimize(g, spec, alpha, -1.0)
    assert report.regime.tag is RegimeTag.MINIMIZER_IN_NEXT_PERP
    assert report.status is SolveStatus.CONVERGED
    checks = verify_solution(g, spec, report)
    assert all(c.passed for c in checks), [str(c) for c in checks]
    assert np.isclose(report.objective, 2.697, atol=1e-3)
    assert classify_regime(spec, alpha, 1.0).tag is RegimeTag.UNBOUNDED_BELOW
    with pytest.raises(UnboundedRegimeError):
        minimize(g, spec, alpha, 1.0)


def test_solve_on_an_eigenbasis_that_leaked_onto_the_constant_certifies():
    # eigh leaves the rows of this graph 1e-10 sqrt(Vol) off mean zero
    g = log_uniform_graph(0, 3)
    spec = compute_spectrum(g)
    assert float(np.max(np.abs(spec.rows[1:] @ g.mu))) <= 1e-15 * np.sqrt(g.volume)
    report = minimize(g, spec, 0.0, -1844.0)
    assert report.status is SolveStatus.CONVERGED
    checks = verify_solution(g, spec, report)
    assert all(c.passed for c in checks), [str(c) for c in checks]


@settings(max_examples=100)
@given(mu=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
       h=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       weight=st.floats(-2.0, 2.0),
       deltas=st.lists(st.floats(-12.0, -2.0), min_size=2, max_size=3),
       factor=st.floats(1.5, 100.0), beta=st.sampled_from([-5.0, -1.0, 1.0, 5.0]))
def test_classification_of_planted_near_degenerate_pairs(mu, h, weight, deltas,
                                                         factor, beta):
    # a star whose 2 or 3 leaves share mu and carry the weights w (1 + delta_i):
    # lambda_1 and lambda_2 lie about delta w / mu_leaf apart
    leaves = len(deltas)
    g = _star(10.0 ** np.array([mu[0]] + [mu[1]] * leaves), 10.0 ** np.array(h[:leaves + 1]),
              10.0 ** weight * (1.0 + 10.0 ** np.array(deltas)))
    spec = compute_spectrum(g)
    lap = np.zeros((leaves + 1, leaves + 1))
    for i, j, wij in g.edges:
        lap[[i, j, i, j], [i, j, j, i]] += [wij, wij, -wij, -wij]
    lam1 = float(np.linalg.eigvalsh(lap / np.sqrt(np.outer(g.mu, g.mu)))[1])
    tol = spec.tolerance(lam1)
    above = classify_regime(spec, lam1 + factor * tol, beta)
    assert above.tag is not RegimeTag.MINIMIZER_IN_EK_PERP
    below = classify_regime(spec, lam1 - factor * tol, beta)
    assert below.tag is RegimeTag.MINIMIZER_IN_EK_PERP


NON_FINITE = [(np.nan, 1.0), (0.0, np.nan), (np.inf, 0.0), (-np.inf, 0.0),
              (0.0, np.inf), (0.0, -np.inf)]


@pytest.mark.parametrize("alpha, beta", NON_FINITE)
def test_non_finite_alpha_or_beta_rejected(k2, k2_spec, alpha, beta):
    with pytest.raises(ValueError, match="must be finite"):
        classify_regime(k2_spec, alpha, beta)
    with pytest.raises(ValueError, match="must be finite"):
        minimize(k2, k2_spec, alpha, beta)
    with pytest.raises(ValueError, match="must be finite"):
        probe_divergence(k2, k2_spec, alpha, beta)


# ---------------------------------------------------------------- K2 line


def k2_scalar_objective(beta):
    """J restricted to u = (t, -t) on the unit two-clique with h = 1."""

    def J(t):
        return 2.0 * t * t - beta * np.log(np.exp(t) + np.exp(-t))

    return J


def test_k2_supercritical_beta(k2, k2_spec):
    report = minimize(k2, k2_spec, 0.0, 8.0)
    assert report.status is SolveStatus.CONVERGED
    # stationarity on the line: 4t = 8 tanh(t), nonzero root
    t_star = brentq(lambda t: 4.0 * t - 8.0 * np.tanh(t), 0.1, 10.0, xtol=1e-14)
    assert np.isclose(abs(report.minimizer[0]), t_star, rtol=1e-9)
    assert np.allclose(report.minimizer, [report.minimizer[0], -report.minimizer[0]])
    J = k2_scalar_objective(8.0)
    assert np.isclose(report.objective, J(t_star), rtol=1e-12)
    assert report.objective < J(0.0) - 1.0
    assert report.grad_sup <= 1e-10
    assert report.residual_sup <= 1e-9


def test_k2_negative_beta_flat_minimum(k2, k2_spec):
    report = minimize(k2, k2_spec, 0.0, -3.0)
    assert report.status is SolveStatus.CONVERGED
    assert float(np.max(np.abs(report.minimizer))) <= 1e-8
    assert np.isclose(report.objective, 3.0 * np.log(2.0), rtol=1e-12)


def test_k2_shallow_saddle_just_past_critical(k2, k2_spec):
    # beta_crit = 4 on this graph: u = 0 turns from minimum to saddle
    report = minimize(k2, k2_spec, 0.0, 4.0001)
    assert report.status is SolveStatus.CONVERGED
    t_star = brentq(lambda t: 4.0 * t - 4.0001 * np.tanh(t), 1e-4, 10.0,
                    xtol=1e-15)
    # curvature at the minimum is ~2e-4, so grad_tol 1e-10 pins t only
    # to about 1e-6 in absolute terms
    assert np.isclose(abs(report.minimizer[0]), t_star, atol=2e-6)
    J = k2_scalar_objective(4.0001)
    assert report.objective <= J(0.0)
    assert np.isclose(report.objective, J(t_star), rtol=1e-10)


def test_k2_nonconstant_h(k2_spec):
    g = complete_graph(2, h=np.array([1.0, 2.0]))
    spec = compute_spectrum(g)
    report = minimize(g, spec, 0.0, 1.0)
    assert report.status is SolveStatus.CONVERGED
    # on the line u = (t, -t): d/dt J = 4t - (e^t - 2 e^-t)/(e^t + 2 e^-t)
    t_star = brentq(
        lambda t: 4.0 * t - (np.exp(t) - 2.0 * np.exp(-t)) / (np.exp(t) + 2.0 * np.exp(-t)),
        -5.0, 5.0, xtol=1e-14)
    assert t_star < 0.0
    assert np.isclose(report.minimizer[0], t_star, rtol=1e-8)
    assert report.residual_sup <= 1e-9


def test_k2_beta_zero_quadratic(k2, k2_spec):
    report = minimize(k2, k2_spec, 1.0, 0.0)
    assert report.status is SolveStatus.CONVERGED
    assert float(np.max(np.abs(report.minimizer))) <= 1e-10
    assert abs(report.objective) <= 1e-12


# ---------------------------------------------------------------- P3 cases


def test_p3_next_perp_regime(p3, p3_spec):
    report = minimize(p3, p3_spec, 1.0, -1.0)
    assert report.regime.tag is RegimeTag.MINIMIZER_IN_NEXT_PERP
    assert report.regime.subspace_index == 1
    assert report.status is SolveStatus.CONVERGED
    assert float(np.max(np.abs(report.minimizer))) <= 1e-8
    assert np.isclose(report.objective, np.log(3.0), atol=1e-10)
    assert np.isclose(report.xi, -1.0 / 3.0, atol=1e-10)
    ((s, i, value),) = report.t_multipliers
    assert (s, i) == (1, 1)
    assert abs(value) <= 1e-10


def test_p3_eigenfunction_solution(p3, p3_spec):
    report = minimize(p3, p3_spec, 1.0, 0.0)
    assert report.regime.tag is RegimeTag.EIGENFUNCTION_SOLUTION
    assert report.status is SolveStatus.CONVERGED
    u = report.minimizer
    # -Delta u = lambda_1 u with lambda_1 = 1
    assert float(np.max(np.abs(-laplacian(p3, u) - 1.0 * u))) <= 1e-9
    assert np.isclose(mu_inner(p3, u, u), 1.0, atol=1e-12)
    assert report.objective == 0.0
    assert report.iterations == 0


def test_eigenfunction_report_uses_matched_eigenvalue():
    # alpha inside the tolerance but not equal to lambda_1 = 100100: the
    # report gives alpha = lambda_1, so it certifies and its objective
    # re-evaluates
    g = complete_graph(2, mu=[1e-3, 1.0], weight=100.0)
    spec = compute_spectrum(g)
    lam = spec.eigenvalue(1)
    alpha = lam + 0.9 * spec.tolerance(lam)
    assert alpha != lam
    report = minimize(g, spec, alpha, 0.0)
    assert report.regime.tag is RegimeTag.EIGENFUNCTION_SOLUTION
    assert report.status is SolveStatus.CONVERGED
    assert report.alpha == lam
    checks = verify_solution(g, spec, report, tol=1e-8)
    assert all(c.passed for c in checks), [str(c) for c in checks]
    assert report.objective == 0.0
    assert abs(eval_J(g, report.minimizer, report.alpha, report.beta)) <= 1e-9


def test_trivial_next_perp_returns_zero(k2, k2_spec):
    report = minimize(k2, k2_spec, 2.0, -1.0)
    assert report.regime.subspace_index == k2_spec.num_distinct - 1
    assert report.status is SolveStatus.CONVERGED
    assert np.array_equal(report.minimizer, np.zeros(2))
    assert np.isclose(report.objective, np.log(2.0), rtol=1e-14)
    assert report.iterations == 0


def test_minimize_raises_on_unbounded(k2, k2_spec):
    with pytest.raises(UnboundedRegimeError):
        minimize(k2, k2_spec, 3.0, 1.0)
    with pytest.raises(UnboundedRegimeError):
        minimize(k2, k2_spec, 2.0, 1.0)


def test_max_iters_status(k2, k2_spec, monkeypatch):
    monkeypatch.setattr(solver, "_MAX_ITERS", 1)
    report = minimize(k2, k2_spec, 0.0, 8.0)
    assert report.status is SolveStatus.MAX_ITERS
    assert report.iterations == 1


# ---------------------------------------------------------------- reports


def test_report_trace_monotone(k2, k2_spec):
    report = minimize(k2, k2_spec, 0.0, 8.0)
    trace = np.asarray(report.trace)
    assert trace.shape[0] == report.iterations + 1
    assert np.all(np.diff(trace) <= 1e-12)
    assert np.isclose(trace[-1], report.objective, rtol=1e-14)


def test_solve_deterministic(p3, p3_spec):
    a = minimize(p3, p3_spec, 0.3, 5.0)
    b = minimize(p3, p3_spec, 0.3, 5.0)
    assert np.array_equal(a.minimizer, b.minimizer)
    assert a.objective == b.objective
    assert a.iterations == b.iterations
    assert a.trace == b.trace


def test_report_records_inputs(k2, k2_spec):
    report = minimize(k2, k2_spec, 0.25, -2.0, k=0)
    assert report.alpha == 0.25
    assert report.beta == -2.0
    assert report.regime.subspace_index == 0


def test_minimizer_matches_objective(p3, p3_spec):
    report = minimize(p3, p3_spec, 0.5, 3.0)
    assert np.isclose(eval_J(p3, report.minimizer, 0.5, 3.0), report.objective,
                      rtol=1e-13)


def test_random_solves_verify():
    rng = np.random.default_rng(44)
    for _ in range(15):
        g = random_connected_graph(rng, int(rng.integers(3, 11)))
        spec = compute_spectrum(g)
        k = int(rng.integers(0, min(2, spec.num_distinct - 1)))
        gap = spec.distinct_eigenvalues[k + 1]
        alpha = float(rng.uniform(-1.0, 0.9 * gap))
        beta = float(rng.uniform(-4.0, 4.0))
        report = minimize(g, spec, alpha, beta, k=k)
        assert report.status is SolveStatus.CONVERGED
        checks = verify_candidate(g, spec, report.minimizer, alpha, beta, k,
                                  tol=1e-8)
        assert all(c.passed for c in checks), [str(c) for c in checks]


def test_max_iters_grad_sup_is_taken_at_minimizer():
    # a near-resonance solve that ends MaxIters; its grad_sup once came
    # from before the last line search (5.5e-10 against 1.48e-10 at u)
    g = random_connected_graph(np.random.default_rng([20230818, 10, 0]), 10,
                               extra_edge_prob=0.1)
    spec = compute_spectrum(g)
    alpha, beta = spec.eigenvalue(1) - 1e-8, 1.0
    report = minimize(g, spec, alpha, beta)
    basis = spec.split(0)[1]
    gc = _coord_gradient(g, basis, report.minimizer, alpha, beta)
    assert report.grad_sup == float(np.max(np.abs(gc @ basis)))


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
       k=st.sampled_from([0, 1]), fraction=st.floats(-1.0, 0.9),
       beta=st.floats(-50.0, 50.0))
def test_minimize_certifies_below_the_gap(seed, n, k, fraction, beta):
    # alpha = fraction * lambda_{k+1} < lambda_{k+1}: J attains its minimum
    # on E_k^perp for every beta
    g = random_connected_graph(np.random.default_rng(seed), n, (1e-2, 1e2),
                               (1e-2, 1e2), (1e-2, 1e2))
    spec = compute_spectrum(g)
    assume(k <= spec.num_distinct - 2)
    alpha = fraction * spec.eigenvalue(k + 1)
    report = minimize(g, spec, alpha, beta, k)
    assert report.status is SolveStatus.CONVERGED
    checks = verify_solution(g, spec, report, tol=1e-8)
    assert all(c.passed for c in checks), [str(c) for c in checks]
    scale = 1.0 + abs(report.objective)
    assert abs(eval_J(g, report.minimizer, alpha, beta) - report.objective) <= 1e-12 * scale
    assert report.objective <= eval_J(g, np.zeros(n), alpha, beta)
    assert len(report.trace) == report.iterations + 1
    assert float(np.max(np.diff(report.trace), initial=0.0)) <= 1e-9 * scale


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
       k=st.sampled_from([0, 1]), c=st.floats(0.5, 3.0), fraction=st.floats(0.0, 0.9),
       m=st.floats(1.1, 50.0))
def test_minimize_leaves_the_saddle_at_zero(seed, n, k, c, fraction, m):
    # with h constant, u = 0 is critical and its Hessian on E_k^perp is
    # diag(lambda - alpha) - beta / Vol, so beta = m (lambda_{k+1} - alpha) Vol
    # with m > 1 makes it a strict saddle
    g = random_connected_graph(np.random.default_rng(seed), n, h_range=(c, c))
    spec = compute_spectrum(g)
    assume(k <= spec.num_distinct - 2)
    lam = spec.eigenvalue(k + 1)
    alpha = fraction * lam
    beta = m * (lam - alpha) * g.volume
    report = minimize(g, spec, alpha, beta, k)
    assert report.status is SolveStatus.CONVERGED
    checks = verify_solution(g, spec, report, tol=1e-8)
    assert all(c.passed for c in checks), [str(c) for c in checks]
    assert report.objective < eval_J(g, np.zeros(n), alpha, beta)
    scale = 1.0 + abs(report.objective)
    assert float(np.max(np.diff(report.trace), initial=0.0)) <= 1e-9 * scale


def test_saddle_with_no_acceptable_step_is_not_converged(k2, k2_spec):
    # u = 0 is a saddle at beta = 8 on K2 with h = 1; when J rejects every
    # trial point, the loop stops there without claiming convergence
    real_eval_J = solver.eval_J

    def infinite_off_zero(g, u, alpha, beta):
        return real_eval_J(g, u, alpha, beta) if not np.any(u) else np.inf
    with mock.patch.object(solver, "eval_J", infinite_off_zero):
        report = minimize(k2, k2_spec, 0.0, 8.0)
    assert report.iterations == 0
    assert report.status is not SolveStatus.CONVERGED
    assert np.array_equal(report.minimizer, np.zeros(2))


def test_saddle_reached_after_a_stalled_step_is_still_left(k2, k2_spec):
    # u = 0 is a saddle at beta = 8 on K2 with h = 1. A first accepted
    # step that leaves J unchanged (here the null step) marks the loop
    # stalled; at a saddle the loop must still search along the most
    # negative curvature instead of ending in the gradient polish
    real_backtrack = solver._backtrack
    calls = []

    def null_step_first(basis, c, direction, tries, accept):
        calls.append(tries)
        if len(calls) == 1:
            u = c @ basis
            return c, u, solver.eval_J(k2, u, 0.0, 8.0)
        return real_backtrack(basis, c, direction, tries, accept)
    with mock.patch.object(solver, "_backtrack", null_step_first):
        report = minimize(k2, k2_spec, 0.0, 8.0)
    assert calls[:2] == [80, 80]
    assert report.trace[1] == report.trace[0]
    assert report.status is SolveStatus.CONVERGED
    assert report.objective < report.trace[0]


def test_levenberg_direction_doubles_its_damping_until_cholesky_succeeds():
    # H + delta I is positive definite first at delta = 1e-8 * 2^27 > 1
    delta = 1e-8 * 2.0 ** 27
    direction = solver._levenberg_direction(np.diag([-1.0, 1.0]), np.array([1.0, 1.0]))
    assert np.allclose(direction, [-1.0 / (delta - 1.0), -1.0 / (delta + 1.0)], rtol=1e-12)
    # a positive definite Hessian gets the undamped Newton direction
    assert np.allclose(solver._levenberg_direction(np.diag([2.0, 4.0]), np.ones(2)),
                       [-0.5, -0.25], rtol=1e-15, atol=0.0)


def test_levenberg_direction_gives_none_for_a_nan_hessian():
    # no damping makes the direction finite, so the loop ends there
    assert solver._levenberg_direction(np.full((2, 2), np.nan), np.ones(2)) is None


def _benchmark_eigenvalues(g):
    """Eigenvalues of -Delta as the benchmark computes them, apart from
    kwgraph.spectral: a dense M^-1/2 L M^-1/2 and eigvalsh."""
    n = g.num_vertices
    ei, ej, ew = g.edge_arrays
    weights = np.zeros((n, n))
    weights[ei, ej] = ew
    weights[ej, ei] = ew
    lap = np.diag(weights.sum(axis=1)) - weights
    s = 1.0 / np.sqrt(g.mu)
    return np.linalg.eigvalsh(lap * np.outer(s, s))


@pytest.mark.parametrize("j, alpha_of_l1, beta, polished", [
    (6, lambda l1: 0.5 * l1, 5.0, False),
    (1, lambda l1: l1 - 1e-8, 1.0, True),
], ids=["n10/g6/below-gap-beta+5", "n10/g1/near-resonance"])
def test_every_accepted_step_passes_its_own_acceptance_test(j, alpha_of_l1, beta, polished):
    """Recomputed from scratch at each accepted step c -> c + s d: an
    Armijo step (80 trials) decreases J by at least 1e-4 s (grad J . d),
    and a polish step (30 trials) cuts the gradient's sup norm below 0.9
    of its value at c."""
    g = random_connected_graph(np.random.default_rng([20230818, 10, j]), 10,
                               extra_edge_prob=0.1)
    spec = compute_spectrum(g)
    alpha = alpha_of_l1(float(_benchmark_eigenvalues(g)[1]))
    steps = []
    real_backtrack = solver._backtrack

    def recording(basis, c, direction, tries, accept):
        step = real_backtrack(basis, c, direction, tries, accept)
        if step is not None:
            steps.append((basis, c, direction, tries, step[0], step[2]))
        return step
    with mock.patch.object(solver, "_backtrack", recording):
        report = minimize(g, spec, alpha, beta)
    assert len(steps) == report.iterations
    kinds = {80: 0, 30: 0}
    for basis, c, direction, tries, c_new, J_new in steps:
        u = c @ basis
        gc = _coord_gradient(g, basis, u, alpha, beta)
        s = next(0.5 ** e for e in range(tries)
                 if np.array_equal(c + 0.5 ** e * direction, c_new))
        kinds[tries] += 1
        if tries == 80:
            assert J_new <= eval_J(g, u, alpha, beta) + 1e-4 * s * float(gc @ direction)
        else:
            grad_new = _coord_gradient(g, basis, c_new @ basis, alpha, beta) @ basis
            assert np.max(np.abs(grad_new)) < 0.9 * np.max(np.abs(gc @ basis))
    assert kinds[80] > 0
    assert (kinds[30] > 0) is polished


@pytest.mark.parametrize("n, j, iterations, objective", [
    (10, 8, 110, -409965.16750581353),
    (10, 48, 112, -175341.27604919783),
    (20, 13, 115, -77302.95851274443),
    (20, 66, 118, -78209.81640149842),
    (40, 8, 115, -18669.646937981226),
], ids=["n10/g8", "n10/g48", "n20/g13", "n20/g66", "n40/g8"])
def test_certified_near_resonance_answers_are_pinned(n, j, iterations, objective):
    """The near-resonance benchmark questions that certify, at
    alpha = lambda_1 - 1e-8 and beta = 1. These answers follow the last
    bits of lambda_1 and J, and each one lost raises the benchmark's
    failed share. A change that alters them on purpose updates the
    values here and records the change in CHANGES.md."""
    g = random_connected_graph(np.random.default_rng([20230818, n, j]), n,
                               extra_edge_prob=0.1)
    spec = compute_spectrum(g)
    alpha = float(_benchmark_eigenvalues(g)[1]) - 1e-8
    report = minimize(g, spec, alpha, 1.0)
    assert report.status is SolveStatus.CONVERGED
    checks = verify_solution(g, spec, report, tol=1e-8)
    assert all(c.passed for c in checks), [str(c) for c in checks]
    assert report.iterations == iterations
    assert abs(report.objective - objective) <= 1e-12 * abs(objective)


def test_reports_do_not_hold_the_spectrum_buffer(p3, p3_spec):
    # a kept report must not pin the n x n buffer behind every basis
    probe = probe_divergence(p3, p3_spec, 2.0, 0.0)
    assert not np.shares_memory(probe.direction, p3_spec.bases[1])
    assert not probe.direction.flags.writeable
    report = minimize(p3, p3_spec, 1.0, 0.0)
    assert np.array_equal(report.minimizer, p3_spec.bases[1][0])
    assert not np.shares_memory(report.minimizer, p3_spec.bases[1])
    assert not report.minimizer.flags.writeable


def test_objective_general_alpha_beta_consistency(p3, p3_spec):
    # the reported minimum can never exceed the value at any probe point
    rng = np.random.default_rng(45)
    report = minimize(p3, p3_spec, 0.7, 2.5)
    from kwgraph import project_Ek_perp
    for _ in range(40):
        v = project_Ek_perp(p3_spec, p3, rng.standard_normal(3), 0)
        assert report.objective <= eval_J(p3, v, 0.7, 2.5) + 1e-10


# ---------------------------------------------------------------- probes


def test_probe_requires_unbounded_regime(k2, k2_spec):
    with pytest.raises(BoundedRegimeError, match="bounded below"):
        probe_divergence(k2, k2_spec, 0.0, 1.0)


def test_probe_pure_quadratic_divergence(k2, k2_spec):
    # alpha = 3 > lambda_1 = 2, beta = 0: J(t e) = -t^2/2 on the ray
    report = probe_divergence(k2, k2_spec, 3.0, 0.0)
    assert report.verdict is ProbeVerdict.UNBOUNDED
    t, value = report.samples[11]
    assert t == 2048.0
    assert np.isclose(value, -0.5 * t * t, rtol=1e-12)
    assert report.samples[-1][1] < -1e5


def test_probe_borderline_log_divergence(k2, k2_spec):
    # alpha = lambda_1, beta > 0: quadratic term vanishes on the ray and
    # the log term wins linearly
    report = probe_divergence(k2, k2_spec, 2.0, 1.0)
    assert report.verdict is ProbeVerdict.UNBOUNDED
    t, value = report.samples[-1]
    assert t == 2.0 ** 20
    assert np.isclose(value, -741455.2001894653, rtol=1e-12)


def test_probe_inconclusive_when_shallow(k2, k2_spec):
    # alpha below lambda_1 = 2 but inside eq_tol: classified unbounded,
    # yet the envelope turns back up before it reaches the depth
    report = probe_divergence(k2, k2_spec, 2.0 - 1.5e-9, 1e-3)
    assert report.verdict is ProbeVerdict.INCONCLUSIVE
    t, value = report.samples[-1]
    assert t == 2.0 ** 20
    assert 0.0 < value < 100.0


def test_probe_is_inconclusive_when_its_last_sample_equals_the_depth(k2, k2_spec,
                                                                      monkeypatch):
    # a positive depth never lengthens the ray (the rounding cap
    # -1e-3 * depth is negative), so the samples stay those of the shallow
    # probe above, and the last one lies at the depth, not below it
    args = (k2, k2_spec, 2.0 - 1.5e-9, 1e-3)
    last = probe_divergence(*args).samples[-1][1]
    assert last > 0.0
    monkeypatch.setattr(solver, "DIVERGENCE_DEPTH", last)
    report = probe_divergence(*args)
    assert report.samples[-1] == (2.0 ** 20, last)
    assert report.verdict is ProbeVerdict.INCONCLUSIVE


@pytest.mark.parametrize("beta", [1e-200, 1e-310])
def test_probe_inconclusive_past_rounding_cap(k2, k2_spec, beta):
    # at alpha = lambda_1 the ray needed is ~1e5 / beta, far past the
    # length where float64 rounding of the quadratic term swamps the depth
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = probe_divergence(k2, k2_spec, 2.0, beta)
    assert report.verdict is ProbeVerdict.INCONCLUSIVE
    assert len(report.samples) == 21
    assert all(np.isfinite(value) for _, value in report.samples)


def test_probe_rounding_cap_boundary(k2, k2_spec):
    # at alpha = lambda_1 on K2, t* ~ 2e5 sqrt 2 / beta and the rounding of
    # the quadratic term is t*^2 eps (|lambda_1| + |alpha|): about 71 at
    # beta = 1e-3, inside the cap 1e-3 |DIVERGENCE_DEPTH| = 100, and about
    # 284 at beta = 5e-4, past it
    report = probe_divergence(k2, k2_spec, 2.0, 1e-3)
    assert report.verdict is ProbeVerdict.UNBOUNDED
    assert report.samples[-1][0] == 2.0 ** 29
    report = probe_divergence(k2, k2_spec, 2.0, 5e-4)
    assert report.verdict is ProbeVerdict.INCONCLUSIVE
    t, value = report.samples[-1]
    assert t == 2.0 ** 20
    assert np.isclose(value, -370.7276000947327, rtol=1e-9)


def test_probe_extends_ray_to_envelope_length(k2, k2_spec):
    # J(t v) = -beta log(2 cosh(t / sqrt 2)) at alpha = lambda_1 on K2, which
    # first drops below 2 * DIVERGENCE_DEPTH at t* ~ 2e5 sqrt 2 / beta
    report = probe_divergence(k2, k2_spec, 2.0, 0.1)
    assert report.verdict is ProbeVerdict.UNBOUNDED
    assert [t for t, _ in report.samples] == [2.0 ** e for e in range(23)]
    assert report.samples[-1][1] < DIVERGENCE_DEPTH


def test_probe_samples_along_eigen_ray(p3, p3_spec):
    report = probe_divergence(p3, p3_spec, 2.0, 0.0)
    assert np.allclose(report.direction, p3_spec.bases[1][0])
    ts = [t for t, _ in report.samples]
    assert ts == [2.0 ** e for e in range(len(ts))]
    # direction is the first eigenvector above the gap, normalized in mu
    u1 = p3_spec.bases[1][0]
    assert np.isclose(eval_J(p3, 4.0 * u1, 2.0, 0.0), report.samples[2][1],
                      rtol=1e-12)


def test_probe_deterministic(k2, k2_spec):
    a = probe_divergence(k2, k2_spec, 2.5, 1.0)
    b = probe_divergence(k2, k2_spec, 2.5, 1.0)
    assert a.samples == b.samples
    assert a.verdict is b.verdict


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
       k=st.sampled_from([0, 1]), at_gap=st.booleans(),
       delta=st.floats(1e-6, 10.0), beta=st.floats(-50.0, 50.0),
       positive_beta=st.floats(1.0, 50.0))
def test_probe_certifies_unbounded_regimes(seed, n, k, at_gap, delta, beta,
                                           positive_beta):
    # alpha above lambda_{k+1} with any beta, or at it with beta > 0
    g = random_connected_graph(np.random.default_rng(seed), n, (1e-2, 1e2),
                               (1e-2, 1e2), (1e-2, 1e2))
    spec = compute_spectrum(g)
    assume(k <= spec.num_distinct - 2)
    lam = spec.eigenvalue(k + 1)
    alpha, beta = (lam, positive_beta) if at_gap else (lam + delta, beta)
    report = probe_divergence(g, spec, alpha, beta, k)
    assert report.verdict is ProbeVerdict.UNBOUNDED
    assert [t for t, _ in report.samples[:21]] == [2.0 ** e for e in range(21)]
    t, value = report.samples[-1]
    assert eval_J(g, t * report.direction, alpha, beta) == value


# ---------------------------------------------------------------- coordinate Hessian


def _polarized_hessian(g, u, alpha, beta, basis):
    d = basis.shape[0]
    hess = np.empty((d, d))
    for i in range(d):
        hess[i, i] = hessian_quadratic_form(g, u, alpha, beta, basis[i])
        for j in range(i + 1, d):
            plus = hessian_quadratic_form(g, u, alpha, beta, basis[i] + basis[j])
            minus = hessian_quadratic_form(g, u, alpha, beta, basis[i] - basis[j])
            hess[i, j] = hess[j, i] = 0.25 * (plus - minus)
    return hess


def _assert_coord_hessian_matches(g, spectrum, j, alpha, beta, rng):
    basis = spectrum.split(j)[1]
    u = 2.0 * rng.standard_normal(basis.shape[0]) @ basis
    closed = _coord_hessian(g, u, beta, basis, _coord_shift(spectrum, j, alpha))
    polarized = _polarized_hessian(g, u, alpha, beta, basis)
    scale = 1.0 + float(np.linalg.norm(polarized))
    assert float(np.max(np.abs(closed - polarized))) <= 1e-9 * scale


@pytest.mark.parametrize("beta", [-500.0, -5.0, 5.0, 500.0])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("graph_seed", [3, 4])
def test_coord_hessian_matches_polarization(graph_seed, k, beta):
    rng = np.random.default_rng(graph_seed)
    g = random_connected_graph(rng, 9)
    spectrum = compute_spectrum(g)
    alpha = 0.5 * spectrum.eigenvalue(k + 1)
    _assert_coord_hessian_matches(g, spectrum, k, alpha, beta, rng)


@pytest.mark.parametrize("beta", [-500.0, -5.0, 5.0, 500.0])
def test_coord_hessian_matches_polarization_repeated_eigenvalue(beta):
    rng = np.random.default_rng(5)
    g = complete_graph(5, h=rng.uniform(0.1, 10.0, size=5))
    spectrum = compute_spectrum(g)
    assert spectrum.multiplicities[1] == 4
    _assert_coord_hessian_matches(g, spectrum, 0, 1.3, beta, rng)


# ---------------------------------------------------------------- convexity


def _convexity_setup(seed, n, k, fraction, next_perp):
    """(graph, spectrum, alpha, j, basis, shift, G, R) with alpha =
    fraction * lambda_{k+1} on E_k^perp, or alpha = lambda_{k+1} on
    E_{k+1}^perp; None when that subspace is {0} or does not exist."""
    g = log_uniform_graph(seed, n)
    spec = compute_spectrum(g)
    j = k + 1 if next_perp else k
    if j > spec.num_distinct - 2:
        return None
    alpha = spec.eigenvalue(k + 1) * (1.0 if next_perp else fraction)
    basis = spec.split(j)[1]
    shift = _coord_shift(spec, j, alpha)
    green = (basis / shift[:, None]).T @ basis
    r = np.diag(green)[:, None] + np.diag(green)[None, :] - 2.0 * green
    return g, spec, alpha, j, basis, shift, green, r


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
       k=st.sampled_from([0, 1]), fraction=st.floats(-1.0, 0.99),
       next_perp=st.booleans(),
       ratio=st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.floats(-1e3, 0.0)),
       scale_exp=st.floats(-2.0, 3.0))
def test_convexity_test_implies_positive_definite_hessian(seed, n, k, fraction, next_perp,
                                                          ratio, scale_exp):
    # beta max R < 4 (or beta <= 0) makes the coordinate Hessian positive
    # definite at every u; check it at 0, at a random u and at the
    # two-point extremes u = t (G[:, x] - G[:, y])
    setup = _convexity_setup(seed, n, k, fraction, next_perp)
    assume(setup is not None)
    g, _, _, _, basis, shift, green, r = setup
    max_r = float(np.max(r))
    beta = 4.0 * ratio / max_r
    assert _strictly_convex(basis, shift, beta)
    rng = np.random.default_rng(seed)
    x, y = np.unravel_index(np.argmax(r), r.shape)
    points = [np.zeros(n), (10.0 ** scale_exp * rng.standard_normal(basis.shape[0])) @ basis]
    points += [t * (green[:, x] - green[:, y]) for t in (-1e3, -1.0, 1.0, 10.0, 1e3)]
    # the bound holds for S^-1/2 H S^-1/2 = I - beta Cov_p(S^-1/2 B), a
    # congruence that keeps the signs of the eigenvalues
    scaling = 1.0 / np.sqrt(shift)
    floor = 1.0 - max(beta, 0.0) * max_r / 4.0
    for u in points:
        hess = _coord_hessian(g, u, beta, basis, shift) * np.outer(scaling, scaling)
        evals = np.linalg.eigvalsh(hess)
        assert evals[0] > 0.0
        assert evals[0] >= floor - 1e-9 * (1.0 + abs(beta) * max_r)


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
       k=st.sampled_from([0, 1]), fraction=st.floats(-1.0, 0.9),
       next_perp=st.booleans(), beta=st.floats(-1e4, 0.0))
def test_minimize_newton_certifies_nonpositive_beta(seed, n, k, fraction, next_perp, beta):
    # beta <= 0: J is strictly convex, so Newton runs from u = 0 with no
    # gradient warm-up. It converges fast to the warm-up path's minimizer
    # and certifies wherever that path certifies. (Both miss the 1e-8
    # residual on a few graphs whose lambda_1 eigenfunction leaks into
    # the constants; see CHANGES.md.)
    setup = _convexity_setup(seed, n, k, fraction, next_perp)
    assume(setup is not None and (beta < 0 or not next_perp))
    g, spec, alpha, j, _, _, _, _ = setup
    report = minimize(g, spec, alpha, beta, k)
    assert report.regime.subspace_index == j
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations <= 30
    with mock.patch.object(solver, "_strictly_convex", return_value=False):
        warm = minimize(g, spec, alpha, beta, k)
    assert warm.status is SolveStatus.CONVERGED
    assert abs(report.objective - warm.objective) <= 1e-12 * (1.0 + abs(warm.objective))
    size = 1.0 + float(np.max(np.abs(warm.minimizer)))
    assert float(np.max(np.abs(report.minimizer - warm.minimizer))) <= 1e-9 * size
    failed = {c.name for c in verify_solution(g, spec, report, tol=1e-8) if not c.passed}
    assert failed <= {c.name for c in verify_solution(g, spec, warm, tol=1e-8) if not c.passed}


@pytest.mark.parametrize("alpha_of, beta, k", [
    (lambda lam1, lam2: 0.5 * lam1, 0.0, 0),
    (lambda lam1, lam2: 0.5 * lam1, -5.0, 0),
    (lambda lam1, lam2: lam1, -5.0, 0),
    (lambda lam1, lam2: 0.5 * (lam1 + lam2), -1.0, 1),
], ids=["beta-zero", "below-gap", "next-perp", "k1"])
def test_convex_solve_takes_no_eigendecomposition(monkeypatch, alpha_of, beta, k):
    # where J is strictly convex a stationary point is its minimum, so no
    # Hessian eigendecomposition is needed to converge
    g = random_connected_graph(np.random.default_rng(5), 12)
    spec = compute_spectrum(g)
    alpha = alpha_of(spec.eigenvalue(1), spec.eigenvalue(2))

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh was called")
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert minimize(g, spec, alpha, beta, k).status is SolveStatus.CONVERGED


def test_convexity_test_is_nearly_tight():
    # 5% above the bound the Hessian has negative curvature where p is
    # split between the two vertices that attain max R
    g, _, _, _, basis, shift, _, r = _convexity_setup(7, 8, 0, 0.5, False)
    bound = 4.0 / float(np.max(r))
    assert _strictly_convex(basis, shift, 0.99 * bound)
    assert not _strictly_convex(basis, shift, 1.05 * bound)
    x, y = np.unravel_index(np.argmax(r), r.shape)
    p = np.full(g.num_vertices, 1e-9)
    p[[x, y]] = 0.5
    # on E_0^perp = H every full-support p is the h e^u measure of one u
    u = np.log(p / (g.mu * g.h))
    u -= float(np.dot(g.mu, u)) / g.volume
    evals = np.linalg.eigvalsh(_coord_hessian(g, u, 1.05 * bound, basis, shift))
    assert evals[0] < 0.0
