from __future__ import annotations

import numpy as np
import pytest

from kwgraph import (
    dirichlet_energy,
    gamma,
    integrate,
    laplacian,
    mu_inner,
    norm_one_alpha,
    project_mean_zero,
    random_connected_graph,
)

from conftest import random_mean_zero


def brute_laplacian(g, u):
    # direct double loop over the neighbor formula
    out = np.zeros(g.num_vertices)
    for i, j, w in g.edges:
        out[i] += w * (u[j] - u[i])
        out[j] += w * (u[i] - u[j])
    return out / g.mu


def test_integrate_oracles(k2, p3):
    assert integrate(k2, [2.0, 4.0]) == 6.0
    assert integrate(k2, np.ones(2)) == 2.0  # volume
    assert integrate(p3, [1.0, -2.0, 1.0]) == 0.0


def test_laplacian_single_edge(k2):
    assert np.allclose(laplacian(k2, [0.0, 2.0]), [2.0, -2.0])


def test_laplacian_kills_constants(p3):
    assert np.allclose(laplacian(p3, 3.7 * np.ones(3)), 0.0, atol=1e-14)


def test_laplacian_p3_eigenvector(p3):
    # (1,0,-1) is a lambda=1 eigenvector of -Delta
    assert np.allclose(laplacian(p3, [1.0, 0.0, -1.0]), [-1.0, 0.0, 1.0])


def test_laplacian_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = random_connected_graph(rng, int(rng.integers(2, 30)))
        u = rng.standard_normal(g.num_vertices)
        assert np.allclose(laplacian(g, u), brute_laplacian(g, u), atol=1e-12)


def test_gamma_oracles(k2):
    assert np.allclose(gamma(k2, [1.0, -1.0], [1.0, -1.0]), [2.0, 2.0])
    assert np.allclose(gamma(k2, [1.0, -1.0], [5.0, 5.0]), [0.0, 0.0])
    assert np.allclose(gamma(k2, [1.0, -1.0], [0.0, 2.0]), [-2.0, -2.0])


def test_dirichlet_oracles(k2, p3):
    assert dirichlet_energy(k2, [1.0, -1.0]) == 4.0
    assert dirichlet_energy(p3, [1.0, 0.0, -1.0]) == 2.0
    assert dirichlet_energy(p3, np.full(3, 9.9)) == 0.0


def test_dirichlet_equals_integrated_gamma():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = random_connected_graph(rng, int(rng.integers(2, 30)))
        u = rng.standard_normal(g.num_vertices)
        lhs = dirichlet_energy(g, u)
        rhs = integrate(g, gamma(g, u, u))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_dirichlet_constant_shift_invariance():
    rng = np.random.default_rng(6)
    g = random_connected_graph(rng, 12)
    u = rng.standard_normal(12)
    assert np.isclose(dirichlet_energy(g, u), dirichlet_energy(g, u + 4.2),
                      rtol=1e-12)


def test_green_identity():
    rng = np.random.default_rng(9)
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(2, 30)))
        u = rng.standard_normal(g.num_vertices)
        v = rng.standard_normal(g.num_vertices)
        lhs = integrate(g, laplacian(g, u) * v)
        rhs = -integrate(g, gamma(g, u, v))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))


def test_laplacian_self_adjoint_in_mu():
    rng = np.random.default_rng(10)
    for _ in range(50):
        g = random_connected_graph(rng, int(rng.integers(2, 25)))
        u = rng.standard_normal(g.num_vertices)
        v = rng.standard_normal(g.num_vertices)
        lhs = mu_inner(g, laplacian(g, u), v)
        rhs = mu_inner(g, u, laplacian(g, v))
        assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(lhs))


def test_project_mean_zero_oracles(k2, p3):
    assert np.allclose(project_mean_zero(k2, [3.0, 1.0]), [1.0, -1.0])
    assert np.allclose(project_mean_zero(p3, [1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0])
    assert np.allclose(project_mean_zero(p3, 8.0 * np.ones(3)), 0.0)


def test_project_mean_zero_idempotent_and_orthogonal():
    rng = np.random.default_rng(12)
    for _ in range(30):
        g = random_connected_graph(rng, int(rng.integers(2, 25)))
        f = rng.standard_normal(g.num_vertices)
        h = rng.standard_normal(g.num_vertices)
        pf = project_mean_zero(g, f)
        assert abs(integrate(g, pf)) <= 1e-12 * (1.0 + float(np.abs(f).max())) * g.volume
        assert np.allclose(project_mean_zero(g, pf), pf, atol=1e-13)
        # f - Pf is constant, hence mu-orthogonal to every projection
        assert abs(mu_inner(g, f - pf, project_mean_zero(g, h))) <= 1e-11


def test_norm_one_alpha_oracles(k2):
    u = [1.0, -1.0]
    assert np.isclose(norm_one_alpha(k2, u, 1.0, 2.0), np.sqrt(2.0), rtol=1e-12)
    assert np.isclose(norm_one_alpha(k2, u, 0.0, 2.0),
                      np.sqrt(dirichlet_energy(k2, u)), rtol=1e-12)


def test_norm_one_alpha_rejects_alpha_at_lambda1(k2):
    with pytest.raises(ValueError, match="not below"):
        norm_one_alpha(k2, [1.0, -1.0], 2.0, 2.0)


def test_norm_one_alpha_rejects_negative_radicand(k2):
    # a constant is outside H, where the form stops being definite
    with pytest.raises(ValueError, match="radicand"):
        norm_one_alpha(k2, [1.0, 1.0], 1.0, 2.0)


def test_norm_one_alpha_clamps_a_rounding_level_radicand(p3, p3_spec):
    # alpha a relative 1e-14 above lambda_1 = 1 leaves a radicand of
    # about -1e-14 for u = u_1: rounding, not a domain error
    lam1 = p3_spec.eigenvalue(1)
    u1 = p3_spec.bases[1][0]
    alpha = lam1 * (1 + 1e-14)
    assert dirichlet_energy(p3, u1) - alpha * integrate(p3, u1 * u1) < 0.0
    assert norm_one_alpha(p3, u1, alpha, 2.0 * lam1) == 0.0


def test_sup_norm_bound():
    # max|u| <= mu_min^{-1/2} ||u||_{L2(mu)} for mean-zero u
    rng = np.random.default_rng(14)
    for _ in range(50):
        g = random_connected_graph(rng, int(rng.integers(2, 30)))
        u = random_mean_zero(rng, g)
        lhs = float(np.max(np.abs(u)))
        rhs = np.sqrt(integrate(g, u * u) / g.mu_min)
        assert lhs <= rhs * (1.0 + 1e-12)
