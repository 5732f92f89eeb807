"""The variational functionals and their first and second variations.

    J_{alpha,beta}(u) = (1/2) integral(|grad u|^2 - alpha u^2) - beta log integral(h e^u)

with J_beta = J_{0,beta}. The exponential integral is always handled in
log space (max-shifted), so evaluation stays finite for |u| in the
thousands; the pointwise density h e^u / integral(h e^u) is bounded by
1/mu(x) and never overflows.

Also provides the constructive lower bound on integral(h e^u) for
mean-zero u, and a lower estimate of the Trudinger-Moser type constant
sup { integral(e^{theta u^2}) : u in H, ||grad u||_2 = 1 }, found by
the power method in eigen-coordinates, where the integral is convex on
the unit sphere, and bracketed within a factor n by the diagonal of the
Green's matrix.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .calculus import dirichlet_energy, integrate, laplacian, project_mean_zero
from .graphs import Graph, as_vertex_function
from .spectral import (Spectrum, _coord_shift, compute_spectrum, poincare_constant,
                       project_Ek_perp)

__all__ = [
    "HeuBound",
    "el_gradient",
    "estimate_tm_constant",
    "eval_J",
    "heu_weights",
    "hessian_quadratic_form",
    "heu_lower_bound",
    "log_integral_h_exp",
]


def _logsumexp(a: np.ndarray, b: np.ndarray | float = 1.0) -> float:
    """log sum_x b_x e^{a_x} for positive weights b, shifted by max(a)."""
    top = float(np.max(a))
    if not math.isfinite(top):
        return top
    return top + math.log(float(np.sum(b * np.exp(a - top))))


def log_integral_h_exp(g: Graph, u) -> float:
    """log integral(h e^u dmu), computed with max-shifting."""
    u = as_vertex_function(g, u)
    return _logsumexp(u, g.mu * g.h)


def heu_weights(g: Graph, u) -> np.ndarray:
    """Normalized weights p_x = mu(x) h(x) e^{u(x)} / integral(h e^u).

    The weights are a probability vector; p_x / mu(x) is the pointwise
    density h e^u / integral(h e^u) appearing in the Euler-Lagrange
    equations, bounded by 1/mu(x).
    """
    u = as_vertex_function(g, u)
    logs = np.log(g.mu * g.h) + u
    return np.exp(logs - _logsumexp(logs))


def eval_J(g: Graph, u, alpha: float, beta: float) -> float:
    """Evaluate J_{alpha,beta}(u)."""
    u = as_vertex_function(g, u)
    quad = 0.5 * (dirichlet_energy(g, u) - alpha * integrate(g, u * u))
    return quad - beta * log_integral_h_exp(g, u)


def el_gradient(g: Graph, spectrum: Spectrum, u, alpha: float, beta: float,
                k: int) -> np.ndarray:
    """Projected Euler-Lagrange gradient of J_{alpha,beta} on E_k^perp.

    The unconstrained gradient in the mu-inner product is
    -Delta u - alpha u - beta h e^u / integral(h e^u); the result is its
    mu-orthogonal projection onto E_k^perp. At a constrained critical
    point this vanishes, which is equivalent to the Kazdan-Warner
    equation with multipliers.
    """
    u = as_vertex_function(g, u)
    return project_Ek_perp(spectrum, g, _vertex_gradient(g, u, alpha, beta), k)


def _vertex_gradient(g: Graph, u: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """-Delta u - alpha u - beta h e^u / integral(h e^u), unprojected."""
    density = heu_weights(g, u) / g.mu
    return -laplacian(g, u) - alpha * u - beta * density


def hessian_quadratic_form(g: Graph, u, alpha: float, beta: float, phi) -> float:
    """Second variation of J_{alpha,beta} at ``u`` along ``phi``.

    Equals integral(|grad phi|^2 - alpha phi^2) - beta Var_p(phi) where
    p is the normalized h e^u measure, so for beta <= 0 the form is
    bounded below by the (1,alpha) quadratic form.
    """
    phi = as_vertex_function(g, phi)
    quad = dirichlet_energy(g, phi) - alpha * integrate(g, phi * phi)
    p = heu_weights(g, u)
    mean = float(p @ phi)
    variance = float(p @ (phi * phi)) - mean * mean
    return quad - beta * variance


class HeuBound(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def _safe_exp(x: float) -> float:
    return math.exp(x) if x < 709.0 else math.inf


def heu_lower_bound(g: Graph, spectrum: Spectrum, u) -> HeuBound:
    """Constructive lower bound on integral(h e^u) for mean-zero u.

    integral(h e^u dmu) >= C1 exp(C2 ||grad u||_2) with
    C1 = min(h) Vol(V) and C2 = -sqrt(C_P / mu_min), C_P the Poincare
    constant. Both sides are evaluated in log space and returned
    exponentiated. Raises ValueError when u is not mean-zero.
    """
    u = as_vertex_function(g, u)
    l2 = math.sqrt(integrate(g, u * u))
    if abs(integrate(g, u)) > 1e-10 * l2:
        raise ValueError("u is not mean-zero; the bound only applies on H")
    log_lhs = log_integral_h_exp(g, u)
    c1 = float(np.min(g.h)) * g.volume
    c2 = -math.sqrt(poincare_constant(spectrum) / g.mu_min)
    log_rhs = math.log(c1) + c2 * math.sqrt(dirichlet_energy(g, u))
    # the comparison lives in log space; the reported sides saturate to
    # inf rather than overflow for very large u
    return HeuBound(_safe_exp(log_lhs), _safe_exp(log_rhs), log_lhs >= log_rhs)


def estimate_tm_constant(g: Graph, theta: float, budget: int) -> float:
    """Lower estimate of sup integral(e^{theta v^2}) over the unit
    Dirichlet sphere in H, by the power method with restarts.

    With u_s the mu-orthonormal eigenfunctions of -Delta for lambda_s > 0,
    the coordinates c of v = sum_s c_s u_s / sqrt(lambda_s) have
    ||grad v||_2 = |c|, so the sphere is |c| = 1. There
    F(c) = integral(e^{theta v^2}) is convex for theta >= 0, and the
    step c' = grad F / |grad F| never decreases F: convexity gives
    F(c') >= F(c) + grad F . (c' - c), and grad F . c' = |grad F|
    >= grad F . c by Cauchy-Schwarz. No step size or line search is
    needed. A restart stops when log F stops strictly increasing, or
    after 300 steps, and is scored at its end point rescaled onto the
    sphere computed from the graph itself.

    With the Green's matrix G_xy = sum_s u_s(x) u_s(y) / lambda_s,
    Cauchy-Schwarz gives v_x^2 <= |c|^2 G_xx, with equality at
    c_x = (u_s(x) / sqrt(lambda_s))_s / sqrt(G_xx), where
    v = G[x] / sqrt(G_xx). One restart starts at the c_x with the
    largest F, and ``budget`` more at standard normal draws of
    generators seeded with (0, r), r < budget. So, up to rounding,

        max_x mu_x e^{theta G_xx} <= estimate <= sup <= sum_x mu_x e^{theta G_xx},

    which puts the estimate within a factor n of the supremum; it is
    deterministic, at least Vol(V), and nondecreasing in ``budget``,
    and saturates to inf where the supremum overflows float64. Raises
    ValueError for a budget below 1, a single vertex, a theta that is
    not finite and >= 0, or a disconnected graph.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if g.num_vertices < 2:
        raise ValueError("the mean-zero subspace is trivial on a single vertex")
    if not 0.0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and >= 0, got {theta!r}")
    spectrum = compute_spectrum(g)
    rows = spectrum.split(0)[1]
    root_lam = np.sqrt(_coord_shift(spectrum, 0, 0.0))
    coords = rows / root_lam[:, None]
    # row x of G / sqrt(G_xx) is the v of the start with v_x^2 = G_xx
    green = coords.T @ coords
    peaks = green / np.sqrt(np.diag(green))[:, None]
    top = max(range(g.num_vertices), key=lambda x: _logsumexp(theta * peaks[x] ** 2, g.mu))
    starts = [coords[:, top]]
    for r in range(budget):
        z = np.random.default_rng((0, r)).standard_normal(g.num_vertices)
        starts.append(root_lam * (rows @ (g.mu * z)))
    best = -math.inf
    for c in starts:
        v = (c / np.linalg.norm(c)) @ coords
        value = _logsumexp(theta * v * v, g.mu)
        for _ in range(300):
            # grad F / (2 theta F), finite however large theta v^2 is
            c = coords @ (g.mu * np.exp(theta * v * v - value) * v)
            trial = (c / np.linalg.norm(c)) @ coords
            trial_value = _logsumexp(theta * trial * trial, g.mu)
            if not trial_value > value:
                break
            v, value = trial, trial_value
        # the eigenfunctions are orthonormal only to rounding, which puts
        # |c| = 1 up to ~1e-8 off the sphere on ill-conditioned graphs
        v = project_mean_zero(g, v)
        best = max(best, _logsumexp(theta * v * v / dirichlet_energy(g, v), g.mu))
    return _safe_exp(best)
