"""The variational functionals and their first and second variations.

    J_{alpha,beta}(u) = (1/2) integral(|grad u|^2 - alpha u^2) - beta log integral(h e^u)

with J_beta = J_{0,beta}. The exponential integral is always handled in
log space (max-shifted), so evaluation stays finite for |u| in the
thousands; the pointwise density h e^u / integral(h e^u) is bounded by
1/mu(x) and never overflows.

Also provides the constructive lower bound on integral(h e^u) for
mean-zero u, and an empirical Trudinger-Moser style estimate of
sup { integral(e^{theta u^2}) : u in H, ||grad u||_2 = 1 }.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .calculus import dirichlet_energy, integrate, laplacian, mu_inner, project_mean_zero
from .graphs import Graph, as_vertex_function
from .spectral import Spectrum, poincare_constant, project_Ek_perp

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


def _log_tm_objective(g: Graph, theta: float, v: np.ndarray) -> float:
    return _logsumexp(theta * v * v, g.mu)


def _unit_energy(g: Graph, v: np.ndarray) -> np.ndarray | None:
    v = project_mean_zero(g, v)
    energy = dirichlet_energy(g, v)
    if not energy > 1e-300:
        return None
    return v / math.sqrt(energy)


def _ascend_tm(g: Graph, theta: float, v0: np.ndarray, max_steps: int = 300) -> float:
    v = _unit_energy(g, v0)
    if v is None:
        # constant start direction; nudge deterministically
        bump = np.zeros(g.num_vertices)
        bump[0] = 1.0
        v = _unit_energy(g, v0 + bump)
        if v is None:
            return _log_tm_objective(g, theta, np.zeros(g.num_vertices))
    value = _log_tm_objective(g, theta, v)
    step = 1.0
    for _ in range(max_steps):
        # mu-Riesz gradient of log F, projected onto the tangent space of
        # the unit-energy sphere inside H; the sphere normal in the
        # mu-metric is -Delta v, so the predicted slope is ||d||^2 >= 0
        riesz = 2.0 * theta * v * np.exp(theta * v * v - value)
        grad_h = project_mean_zero(g, riesz)
        normal = -laplacian(g, v)
        normal_sq = mu_inner(g, normal, normal)
        if normal_sq > 0.0:
            d = grad_h - (mu_inner(g, grad_h, normal) / normal_sq) * normal
        else:
            d = grad_h
        slope = mu_inner(g, d, d)
        if slope <= 1e-24:
            break
        improved = False
        while step >= 1e-14:
            trial = _unit_energy(g, v + step * d)
            if trial is not None:
                trial_value = _log_tm_objective(g, theta, trial)
                if trial_value > value + 1e-4 * step * slope:
                    v, value = trial, trial_value
                    improved = True
                    step = min(step * 2.0, 1.0)
                    break
            step *= 0.5
        if not improved:
            break
    return value


def estimate_tm_constant(g: Graph, theta: float, budget: int, seed: int = 0) -> float:
    """Empirical estimate of sup integral(e^{theta u^2}) over the unit
    Dirichlet sphere in H, by projected gradient ascent with restarts.

    Restart r draws its start from a generator seeded with (seed, r),
    so the estimate is deterministic and monotone nondecreasing in
    ``budget``. This is a lower estimate of the supremum; no sharpness
    is claimed.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if g.num_vertices < 2:
        raise ValueError("the mean-zero subspace is trivial on a single vertex")
    best = -math.inf
    for r in range(budget):
        rng = np.random.default_rng((seed, r))
        start = rng.standard_normal(g.num_vertices)
        best = max(best, _ascend_tm(g, theta, start))
    return math.exp(best)
