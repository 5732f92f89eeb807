from __future__ import annotations

import numpy as np
import pytest

from kwgraph import (
    Graph,
    complete_graph,
    compute_spectrum,
    dirichlet_energy,
    el_gradient,
    estimate_tm_constant,
    eval_J,
    heu_lower_bound,
    heu_weights,
    hessian_quadratic_form,
    log_integral_h_exp,
    mu_inner,
    norm_one_alpha,
    project_Ek_perp,
    random_connected_graph,
)

from conftest import random_mean_zero


def test_eval_J_oracles(k2):
    assert np.isclose(eval_J(k2, np.zeros(2), 0.0, 5.0), -5.0 * np.log(2.0),
                      rtol=1e-14)
    u = np.array([1.0, -1.0])
    expected = 2.0 - np.log(np.e + np.exp(-1.0))
    assert np.isclose(eval_J(k2, u, 0.0, 1.0), expected, rtol=1e-13)
    assert np.isclose(eval_J(k2, u, 1.0, 0.0), 1.0, rtol=1e-13)


def test_eval_J_large_u_no_overflow(k2):
    u = 1000.0 * np.array([1.0, -1.0])
    # quadratic part 2e6; log term = log(e^1000 + e^-1000) = 1000
    value = eval_J(k2, u, 0.0, 1.0)
    assert np.isfinite(value)
    assert np.isclose(value, 2.0e6 - 1000.0, rtol=1e-12)
    assert np.isfinite(eval_J(k2, 1e6 * np.array([1.0, -1.0]), 0.0, 1.0))


def test_translation_covariance():
    rng = np.random.default_rng(31)
    g = random_connected_graph(rng, 9)
    u = rng.standard_normal(9)
    beta = -2.3
    shifted = eval_J(g, u + 1.7, 0.0, beta)
    assert np.isclose(shifted, eval_J(g, u, 0.0, beta) - beta * 1.7, rtol=1e-12)


def test_log_integral_matches_naive():
    rng = np.random.default_rng(32)
    for _ in range(30):
        g = random_connected_graph(rng, int(rng.integers(2, 20)))
        u = rng.standard_normal(g.num_vertices)
        naive = np.log(np.sum(g.mu * g.h * np.exp(u)))
        assert np.isclose(log_integral_h_exp(g, u), naive, rtol=1e-12)


def test_log_integral_infinite_entry(k2):
    assert log_integral_h_exp(k2, [np.inf, 0.0]) == np.inf


def test_heu_weights_normalized():
    rng = np.random.default_rng(33)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 20)))
        u = 50.0 * rng.standard_normal(g.num_vertices)
        p = heu_weights(g, u)
        assert np.all(p >= 0.0)
        assert np.isclose(p.sum(), 1.0, atol=1e-12)
        naive = g.mu * g.h * np.exp(u - np.max(u))
        assert np.allclose(p, naive / naive.sum(), atol=1e-12)


def test_el_gradient_k2_oracle(k2, k2_spec):
    u = np.array([1.0, -1.0])
    grad = el_gradient(k2, k2_spec, u, 0.0, 1.0, 0)
    # directional derivative along (1,-1) must equal 4 - tanh(1)
    assert np.isclose(mu_inner(k2, grad, u), 4.0 - np.tanh(1.0), rtol=1e-12)
    expected = (4.0 - np.tanh(1.0)) / 2.0
    assert np.allclose(grad, [expected, -expected], rtol=1e-12)


def test_el_gradient_zero_for_constant_h(p3, p3_spec):
    for alpha, beta, k in [(0.0, 3.0, 0), (0.5, -2.0, 1), (2.0, 7.0, 1)]:
        grad = el_gradient(p3, p3_spec, np.zeros(3), alpha, beta, k)
        assert float(np.max(np.abs(grad))) <= 1e-14


def test_el_gradient_finite_difference():
    rng = np.random.default_rng(34)
    for _ in range(40):
        g = random_connected_graph(rng, int(rng.integers(3, 15)))
        spec = compute_spectrum(g)
        k = int(rng.integers(0, spec.num_distinct - 1))
        u = project_Ek_perp(spec, g, rng.standard_normal(g.num_vertices), k)
        phi = project_Ek_perp(spec, g, rng.standard_normal(g.num_vertices), k)
        alpha = float(rng.uniform(-2, 2))
        beta = float(rng.uniform(-3, 3))
        step = 1e-6
        fd = (eval_J(g, u + step * phi, alpha, beta)
              - eval_J(g, u - step * phi, alpha, beta)) / (2 * step)
        pairing = mu_inner(g, el_gradient(g, spec, u, alpha, beta, k), phi)
        assert abs(pairing - fd) <= 1e-6 * (1.0 + abs(fd))


def test_hessian_oracles(k2):
    phi = np.array([1.0, -1.0])
    assert np.isclose(hessian_quadratic_form(k2, np.zeros(2), 0.0, 8.0, phi),
                      -4.0, rtol=1e-12)
    assert np.isclose(hessian_quadratic_form(k2, np.zeros(2), 0.0, 2.0, phi),
                      2.0, rtol=1e-12)


def test_hessian_beta_zero_reduces_to_quadratic_form():
    rng = np.random.default_rng(35)
    g = random_connected_graph(rng, 8)
    u = rng.standard_normal(8)
    phi = rng.standard_normal(8)
    alpha = 0.7
    expected = dirichlet_energy(g, phi) - alpha * float(np.dot(g.mu, phi * phi))
    assert np.isclose(hessian_quadratic_form(g, u, alpha, 0.0, phi), expected,
                      rtol=1e-12)


def test_hessian_finite_difference():
    rng = np.random.default_rng(36)
    for _ in range(40):
        g = random_connected_graph(rng, int(rng.integers(3, 15)))
        u = rng.standard_normal(g.num_vertices)
        phi = rng.standard_normal(g.num_vertices)
        alpha = float(rng.uniform(-2, 2))
        beta = float(rng.uniform(-3, 3))
        step = 1e-4
        second = (eval_J(g, u + step * phi, alpha, beta)
                  - 2.0 * eval_J(g, u, alpha, beta)
                  + eval_J(g, u - step * phi, alpha, beta)) / step**2
        form = hessian_quadratic_form(g, u, alpha, beta, phi)
        assert abs(form - second) <= 1e-5 * (1.0 + abs(form))


def test_heu_lower_bound_equality_at_zero(k2, k2_spec):
    bound = heu_lower_bound(k2, k2_spec, np.zeros(2))
    assert bound.holds
    assert np.isclose(bound.lhs, 2.0, rtol=1e-14)
    assert np.isclose(bound.rhs, 2.0, rtol=1e-14)


def test_heu_lower_bound_k2_oracle(k2, k2_spec):
    bound = heu_lower_bound(k2, k2_spec, np.array([1.0, -1.0]))
    assert np.isclose(bound.lhs, np.e + np.exp(-1.0), rtol=1e-12)
    assert np.isclose(bound.rhs, 2.0 * np.exp(-np.sqrt(0.5) * 2.0), rtol=1e-12)
    assert bound.holds


def test_heu_lower_bound_rejects_nonzero_mean(k2, k2_spec):
    with pytest.raises(ValueError, match="mean-zero"):
        heu_lower_bound(k2, k2_spec, np.array([1.0, 0.0]))


def test_heu_lower_bound_random_sweep():
    rng = np.random.default_rng(37)
    for _ in range(30):
        g = random_connected_graph(rng, int(rng.integers(2, 20)))
        spec = compute_spectrum(g)
        u = random_mean_zero(rng, g, scale=float(rng.uniform(0.1, 5.0)))
        assert heu_lower_bound(g, spec, u).holds


def test_tm_constant_k2_closed_form(k2):
    # unit Dirichlet sphere in the 1-D mean-zero space is v = +-(1/2, -1/2)
    value = estimate_tm_constant(k2, 1.0, budget=3)
    assert np.isclose(value, 2.0 * np.exp(0.25), rtol=1e-9)


def test_tm_constant_theta_zero_gives_volume():
    rng = np.random.default_rng(38)
    g = random_connected_graph(rng, 7)
    assert np.isclose(estimate_tm_constant(g, 0.0, budget=2), g.volume, rtol=1e-12)


def test_tm_constant_p3_oracle_and_monotonicity(p3):
    # 2-D sphere: u = a v1 + b v2 with a^2 + 3 b^2 = 1 in the mu-orthonormal
    # eigenbasis; dense angular scan is an independent oracle
    v1 = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    v2 = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)
    angles = np.linspace(0.0, np.pi, 20001)
    best = -np.inf
    for t in angles:
        u = np.cos(t) * v1 + (np.sin(t) / np.sqrt(3.0)) * v2
        best = max(best, float(np.sum(np.exp(u * u))))
    low = estimate_tm_constant(p3, 1.0, budget=2)
    mid = estimate_tm_constant(p3, 1.0, budget=6)
    high = estimate_tm_constant(p3, 1.0, budget=12)
    assert low <= mid <= high
    assert high >= 3.0
    assert abs(high - best) <= 1e-4 * best


def test_tm_constant_argument_validation(k2):
    with pytest.raises(ValueError, match="budget"):
        estimate_tm_constant(k2, 1.0, budget=0)
    single = Graph(("a",), np.array([1.0]), np.array([1.0]), ())
    with pytest.raises(ValueError, match="trivial"):
        estimate_tm_constant(single, 1.0, budget=1)


def test_norm_equivalence_lower_bound():
    # ||u||_{1,alpha}^2 >= (1 - alpha_+/lambda_1) * dirichlet for u in H
    rng = np.random.default_rng(39)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(3, 15)))
        spec = compute_spectrum(g)
        lam1 = spec.eigenvalue(1)
        u = random_mean_zero(rng, g)
        alpha = float(rng.uniform(-lam1, 0.95 * lam1))
        value = norm_one_alpha(g, u, alpha, lam1) ** 2
        floor = (1.0 - max(alpha, 0.0) / lam1) * dirichlet_energy(g, u)
        assert value >= floor - 1e-9 * (1.0 + abs(floor))
