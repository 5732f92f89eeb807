"""Solver-independent certification of claimed solutions.

Given a candidate u for the constrained problem on E_k^perp, this
module recomputes the Lagrange multipliers from their closed forms,
evaluates the Kazdan-Warner residual pointwise, and checks subspace
membership. Everything here is a direct evaluation of the
Euler-Lagrange identities; nothing depends on how u was produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import integrate, laplacian
from .functional import heu_weights
from .graphs import Graph, as_vertex_function
from .spectral import Spectrum

__all__ = [
    "CheckResult",
    "kw_residual",
    "multipliers",
    "verify_candidate",
    "verify_solution",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    limit: float

    def __str__(self) -> str:
        word = "pass" if self.passed else "FAIL"
        return f"{word} {self.name}: value={self.value!r} limit={self.limit!r}"


def multipliers(g: Graph, spectrum: Spectrum, u, beta: float,
                k: int) -> tuple[float, tuple[tuple[int, int, float], ...]]:
    """Closed-form Lagrange multipliers for the problem on E_k^perp.

    Returns (xi, t) with xi = beta / Vol(V) and, for each eigenvalue
    group s = 1..k and basis function u_si,
    t_si = beta integral(h u_si e^u) / integral(h e^u), reported as
    (s, i, value) triples with i starting at 1.
    """
    u = as_vertex_function(g, u)
    values = beta * (spectrum.split(k)[0] @ heu_weights(g, u))
    labels = [(s, i) for s in range(1, k + 1)
              for i in range(1, int(spectrum.multiplicities[s]) + 1)]
    return beta / g.volume, tuple((s, i, float(v)) for (s, i), v in zip(labels, values))


def kw_residual(g: Graph, spectrum: Spectrum, u, alpha: float, beta: float,
                k: int) -> np.ndarray:
    """Pointwise residual of the Kazdan-Warner equation on E_k^perp:

        Delta u + alpha u + beta h e^u / integral(h e^u) - xi - sum t_si u_si

    with the multipliers of :func:`multipliers` (xi = beta / Vol(V),
    t = beta E_k p) read off the same weights p = :func:`heu_weights`,
    p_x = mu(x) h(x) e^u(x) / integral(h e^u). For an exact constrained critical point this vanishes identically; by
    construction it always lies in E_k^perp, so it equals minus the
    projected gradient up to rounding.
    """
    u = as_vertex_function(g, u)
    p = heu_weights(g, u)
    ek = spectrum.split(k)[0]
    return (laplacian(g, u) + alpha * u + beta * (p / g.mu) - beta / g.volume
            - (beta * (ek @ p)) @ ek)


def _group_norms(t: dict[tuple[int, int], float]) -> dict[int, float]:
    """The norm (sum_i t_si^2)^(1/2) of each group s of multipliers."""
    squares: dict[int, float] = {}
    for (s, _), value in t.items():
        squares[s] = squares.get(s, 0.0) + value * value
    return {s: math.sqrt(total) for s, total in squares.items()}


# A candidate near the float range overflows to inf or nan, and the
# residual checks fail on those values; silence only the warnings.
@np.errstate(over="ignore", invalid="ignore")
def verify_candidate(g: Graph, spectrum: Spectrum, u, alpha: float, beta: float,
                     k: int, tol: float = 1e-8,
                     claimed_xi: float | None = None,
                     claimed_t: tuple[tuple[int, int, float], ...] | None = None,
                     ) -> list[CheckResult]:
    """Run every certification check on a candidate solution.

    Checks, each a separate :class:`CheckResult`:

    - mean_zero: |integral(u)| <= tol * Vol(V)
    - eigenspace_orthogonality: max_s<=k,i |<u, u_si>_mu| <= tol
    - kw_residual_sup: sup |residual| <= tol
    - kw_residual_l2: L2(mu) norm <= tol * sqrt(Vol(V))
    - residual_mean_zero: |integral(residual)| <= tol * Vol(V)
      (integrating the equation over V must give 0 = 0)
    - multiplier_xi: the claimed xi matches its closed form to tol
    - multiplier_t: the claimed t_si carry the recomputed (s, i) labels,
      and for each group s the norm |t_s| = (sum_i t_si^2)^(1/2) matches
      the recomputed one to tol. The individual t_si depend on the basis
      chosen inside a multiple eigenvalue (a relabelling of the vertices
      can rotate it); the group norm does not. A label mismatch fails
      with value inf.

    The multiplier checks run only when claims are supplied.
    """
    u = as_vertex_function(g, u)
    ek = spectrum.split(k)[0]
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    checks: list[CheckResult] = []

    mean_abs = abs(integrate(g, u))
    checks.append(CheckResult("mean_zero", mean_abs <= tol * g.volume,
                              mean_abs, tol * g.volume))

    worst = float(np.max(np.abs(ek @ (g.mu * u)), initial=0.0))
    checks.append(CheckResult("eigenspace_orthogonality", worst <= tol, worst, tol))

    r = kw_residual(g, spectrum, u, alpha, beta, k)
    sup = float(np.max(np.abs(r)))
    checks.append(CheckResult("kw_residual_sup", sup <= tol, sup, tol))
    l2 = float(np.sqrt(integrate(g, r * r)))
    l2_limit = tol * float(np.sqrt(g.volume))
    checks.append(CheckResult("kw_residual_l2", l2 <= l2_limit, l2, l2_limit))
    r_mean = abs(integrate(g, r))
    checks.append(CheckResult("residual_mean_zero", r_mean <= tol * g.volume,
                              r_mean, tol * g.volume))

    if claimed_xi is not None or claimed_t is not None:
        xi, t = multipliers(g, spectrum, u, beta, k)
        if claimed_xi is not None:
            diff = abs(claimed_xi - xi)
            checks.append(CheckResult("multiplier_xi", diff <= tol, diff, tol))
        if claimed_t is not None:
            recomputed = {(s, i): value for s, i, value in t}
            claimed = {(int(s), int(i)): float(value) for s, i, value in claimed_t}
            if set(claimed) != set(recomputed):
                checks.append(CheckResult("multiplier_t", False, float("inf"), tol))
            else:
                norms, claimed_norms = _group_norms(recomputed), _group_norms(claimed)
                diff = max((abs(claimed_norms[s] - norms[s]) for s in norms), default=0.0)
                checks.append(CheckResult("multiplier_t", diff <= tol, diff, tol))
    return checks


def verify_solution(g: Graph, spectrum: Spectrum, report, tol: float = 1e-8,
                    ) -> list[CheckResult]:
    """Certify a solver report the same way an external candidate is
    certified, comparing its claimed multipliers against the closed
    forms. ``report`` needs the SolveReport fields (minimizer, alpha,
    beta, regime, xi, t_multipliers); the solver module itself is not
    imported, so reports can be reconstructed from serialized form.
    """
    return verify_candidate(
        g, spectrum, report.minimizer, report.alpha, report.beta,
        report.regime.subspace_index, tol,
        claimed_xi=report.xi, claimed_t=report.t_multipliers,
    )
