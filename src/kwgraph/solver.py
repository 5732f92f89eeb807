"""Regime classification and constrained minimization.

For a spectrum with distinct eigenvalues lambda_0 = 0 < lambda_1 < ...
< lambda_{m-1} and a subspace index k (0 <= k <= m-2), the position of
alpha relative to lambda_{k+1} decides everything:

- alpha < lambda_{k+1}: J_{alpha,beta} attains its minimum on E_k^perp
  for every beta.
- alpha = lambda_{k+1} (within eq_tol): beta = 0 yields an exact
  eigenfunction solution; beta < 0 pushes the minimizer into
  E_{k+1}^perp; beta > 0 makes the functional unbounded below.
- alpha > lambda_{k+1}: unbounded below along the lambda_{k+1} ray.

Minimization runs in coordinates over a mu-orthonormal basis of the
subspace, from u = 0, as one loop. Every step is one backtracking
search c + s d, s = 1, 1/2, ..., that takes the first point passing
the step's acceptance test:

1. Armijo decrease of J along the Levenberg-damped Newton direction.
   Where J may be non-convex, the first _GD_ITER_CAP steps go along
   steepest descent instead, until the gradient is small. Where J is
   strictly convex, so that its critical point is unique, Newton runs
   from the first step; Cholesky then succeeds undamped, so each step
   is plain Newton. The test is beta <= 0 or beta * max_{x,y} R_xy < 4,
   with S = diag(lambda_s - alpha) > 0 on the subspace, B its basis and
   R_xy = |S^-1/2 (B[:, x] - B[:, y])|^2. The coordinate Hessian is
   S^1/2 (I - beta Cov_p(S^-1/2 B)) S^1/2, and by Popoviciu's inequality
   every directional variance under p is at most max R / 4, so the
   Hessian is positive definite at every u (see _strictly_convex).
2. Once J stops measurably decreasing, a damped Newton step that cuts
   the projected gradient by 10%: near a strict minimum J reaches its
   floating-point floor before the gradient reaches grad_tol.
3. At a saddle (u = 0 is critical whenever h is constant), a quarter
   of the model decrease along the most negative curvature direction.

The loop converges where the gradient is below grad_tol and the
projected Hessian has no negative curvature that J can follow.

Where no minimum exists, the divergence probe samples J along the ray
t * u_{k+1,1}. How far out it samples is worked out from the spectrum:
a closed-form quadratic envelope U(t) >= J(t u_{k+1,1}) gives the ray
length at which U falls to twice DIVERGENCE_DEPTH, and the last sample
certifies divergence when it lies below DIVERGENCE_DEPTH. The probe is
inconclusive only when alpha lies below lambda_{k+1} inside eq_tol, or
when that length is so large that float64 rounding of the quadratic
term would swamp the depth.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .functional import (_vertex_gradient, el_gradient, eval_J, heu_weights,
                         log_integral_h_exp)
from .graphs import Graph
from .spectral import Spectrum, _canonical_sign, _coord_shift
from .verify import kw_residual, multipliers

__all__ = [
    "BoundedRegimeError",
    "ProbeReport",
    "ProbeVerdict",
    "Regime",
    "RegimeTag",
    "SolveReport",
    "SolveStatus",
    "SolverOptions",
    "UnboundedRegimeError",
    "classify_regime",
    "default_eq_tol",
    "minimize",
    "probe_divergence",
]

# iterations of plain steepest descent before the damped Newton
# direction is allowed even above _NEWTON_SWITCH_TOL, where J may be
# non-convex; keeps badly conditioned spectra convergent within default
# max_iters. Where _strictly_convex holds, Newton runs from the start.
_GD_ITER_CAP = 100

# sufficient-decrease constant and step shrink factor of the line searches
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5

# gradient sup-norm below which the damped Newton direction is tried
_NEWTON_SWITCH_TOL = 1e-3

# a probe certifies divergence when its last sample lies below this depth
DIVERGENCE_DEPTH = -1.0e5

# a probe samples at least t = 2^0 .. 2^this along its ray
_MIN_RAY_EXPONENT = 20

_EPS = float(np.finfo(float).eps)


class RegimeTag(enum.Enum):
    MINIMIZER_IN_EK_PERP = "MINIMIZER_IN_EK_PERP"
    EIGENFUNCTION_SOLUTION = "EIGENFUNCTION_SOLUTION"
    MINIMIZER_IN_NEXT_PERP = "MINIMIZER_IN_NEXT_PERP"
    UNBOUNDED_BELOW = "UNBOUNDED_BELOW"


class SolveStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"


class ProbeVerdict(enum.Enum):
    UNBOUNDED = "unbounded"
    INCONCLUSIVE = "inconclusive"


class UnboundedRegimeError(RuntimeError):
    """minimize was called where the functional has no minimum."""


class BoundedRegimeError(ValueError):
    """probe_divergence was called where the functional is bounded below."""


@dataclass(frozen=True)
class Regime:
    """Classification outcome: which problem to solve and where.

    ``subspace_index`` is the j of the subspace E_j^perp the minimizer
    lives in (or the probed k for UNBOUNDED_BELOW);
    ``trivial_subspace`` flags E_j^perp = {0}, where u = 0 is the
    unique, exact solution.
    """

    tag: RegimeTag
    subspace_index: int
    trivial_subspace: bool = False


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and limits for :func:`minimize`."""

    grad_tol: float = 1e-10
    max_iters: int = 10_000

    def __post_init__(self) -> None:
        if not 0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be finite and positive, got {self.grad_tol!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters!r}")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Everything needed to certify a solve independently.

    ``iterations`` counts the accepted steps of every kind; ``trace``
    holds J at the start and after each of them, so it has
    ``iterations + 1`` entries and ends at ``objective``. ``grad_sup``
    is the sup norm of the projected gradient at ``minimizer``. In the
    eigenfunction regime the minimizer is u_{k+1,1}, no step is taken,
    and ``alpha`` is lambda_{k+1}, the value the classification matched
    (the requested alpha may differ from it by up to eq_tol).
    """

    regime: Regime
    minimizer: np.ndarray
    objective: float
    grad_sup: float
    xi: float
    t_multipliers: tuple[tuple[int, int, float], ...]
    residual_sup: float
    iterations: int
    status: SolveStatus
    alpha: float
    beta: float
    trace: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Divergence-ray evidence: J sampled along t * u_{k+1,1}."""

    direction: np.ndarray
    samples: tuple[tuple[float, float], ...]
    verdict: ProbeVerdict


def default_eq_tol(lam: float) -> float:
    """Equality tolerance for alpha vs an eigenvalue: 1e-9 * (1 + |lambda|)."""
    return 1e-9 * (1.0 + abs(lam))


def classify_regime(spectrum: Spectrum, alpha: float, beta: float, k: int = 0) -> Regime:
    """Place (alpha, beta, k) in the trichotomy around lambda_{k+1}, with
    alpha = lambda_{k+1} meaning equal within ``default_eq_tol``.

    Raises ValueError for a non-finite alpha or beta, or when
    lambda_{k+1} does not exist.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"alpha and beta must be finite, got alpha={alpha!r}, beta={beta!r}")
    m = spectrum.num_distinct
    if not 0 <= k <= m - 2:
        raise ValueError(
            f"k={k} out of range 0..{m - 2}: lambda_{{k+1}} must exist")
    lam = spectrum.eigenvalue(k + 1)
    eq_tol = default_eq_tol(lam)
    if alpha < lam - eq_tol:
        return Regime(RegimeTag.MINIMIZER_IN_EK_PERP, k)
    if abs(alpha - lam) <= eq_tol:
        if beta == 0:
            return Regime(RegimeTag.EIGENFUNCTION_SOLUTION, k)
        if beta < 0:
            return Regime(RegimeTag.MINIMIZER_IN_NEXT_PERP, k + 1,
                          trivial_subspace=(k + 1 >= m - 1))
        return Regime(RegimeTag.UNBOUNDED_BELOW, k)
    return Regime(RegimeTag.UNBOUNDED_BELOW, k)


def _coord_gradient(g: Graph, basis: np.ndarray, u: np.ndarray,
                    alpha: float, beta: float) -> np.ndarray:
    """Coordinate gradient, taken through the vertex-space gradient.

    The closed form (lambda - alpha) c - beta B p would drift from the
    Euler-Lagrange residual verify measures when |u| is large; going
    through -Delta u keeps "converged" equivalent to "certifies".
    """
    return basis @ (g.mu * _vertex_gradient(g, u, alpha, beta))


def _coord_hessian(g: Graph, u: np.ndarray, beta: float, basis: np.ndarray,
                   shift: np.ndarray) -> np.ndarray:
    """Hessian of J in the coordinates of the mu-orthonormal eigenbasis
    rows: diag(lambda - alpha) - beta Cov_p(rows), p the normalized
    h e^u measure."""
    p = heu_weights(g, u)
    mean = basis @ p
    cov = (basis * p) @ basis.T - np.outer(mean, mean)
    return np.diag(shift) - beta * cov


def _strictly_convex(basis: np.ndarray, shift: np.ndarray, beta: float) -> bool:
    """Whether J is strictly convex on the span of ``basis``, so that its
    critical point is unique: beta <= 0, or beta * max_{x,y} R_xy < 4.

    With S = diag(shift) > 0 and G = B^T S^-1 B (B = basis),
    R_xy = |S^-1/2 (B[:, x] - B[:, y])|^2 = G_xx + G_yy - 2 G_xy. The
    coordinate Hessian is S^1/2 (I - beta Cov_p(S^-1/2 B)) S^1/2. For a
    unit vector v, v^T Cov_p(S^-1/2 B) v is the variance under p of
    f(x) = v^T S^-1/2 B[:, x], which by Popoviciu's inequality is at most
    (max f - min f)^2 / 4 <= max R / 4 (Cauchy-Schwarz). So the Hessian
    is positive definite at every u when beta max R < 4, and for
    beta <= 0 because Cov_p is positive semidefinite.
    """
    if beta <= 0:
        return True
    green = (basis / shift[:, None]).T @ basis
    diag = np.diag(green)
    return beta * float(np.max(diag[:, None] + diag[None, :] - 2.0 * green)) < 4.0


def _levenberg_direction(hess: np.ndarray, gc: np.ndarray) -> np.ndarray | None:
    """Solve (H + delta I) p = -g with delta doubled from 1e-8 until the
    Cholesky factorization succeeds."""
    eye = np.eye(hess.shape[0])
    delta = 0.0
    for _ in range(80):
        try:
            factor = np.linalg.cholesky(hess + delta * eye)
        except np.linalg.LinAlgError:
            delta = 1e-8 if delta == 0.0 else 2.0 * delta
            continue
        y = np.linalg.solve(factor, -gc)
        p = np.linalg.solve(factor.T, y)
        if np.all(np.isfinite(p)):
            return p
        delta = 1e-8 if delta == 0.0 else 2.0 * delta
    return None


def _backtrack(basis: np.ndarray, c: np.ndarray, direction: np.ndarray, tries: int,
               accept) -> tuple[np.ndarray, np.ndarray, float] | None:
    """The first of c + s d, s = 1, 1/2, ... (``tries`` of them) whose
    vertex function u passes the acceptance test, as (c, u, J).

    ``accept(u, s)`` returns J(u) to accept the point and None to
    reject it. Returns None when every trial is rejected.
    """
    step = 1.0
    for _ in range(tries):
        c_new = c + step * direction
        u_new = c_new @ basis
        J_new = accept(u_new, step)
        if J_new is not None:
            return c_new, u_new, J_new
        step *= _BACKTRACK
    return None


def _objective_below(g: Graph, u: np.ndarray, alpha: float, beta: float,
                     bound: float) -> float | None:
    """J(u) when it is finite and at most ``bound``, else None."""
    J = eval_J(g, u, alpha, beta)
    return J if np.isfinite(J) and J <= bound else None


def _finalize(g: Graph, spectrum: Spectrum, regime: Regime, u: np.ndarray,
              alpha: float, beta: float, objective: float, grad_sup: float | None,
              iterations: int, status: SolveStatus,
              trace: tuple[float, ...]) -> SolveReport:
    """Certificate and report for a copy of u (so a kept report does not
    pin the spectrum's n x n buffer); a grad_sup of None is computed here."""
    j = regime.subspace_index
    if grad_sup is None:
        grad = el_gradient(g, spectrum, u, alpha, beta, j)
        grad_sup = float(np.max(np.abs(grad)))
    xi, t = multipliers(g, spectrum, u, beta, j)
    r = kw_residual(g, spectrum, u, alpha, beta, j)
    u = u.copy()
    u.flags.writeable = False
    return SolveReport(
        regime=regime,
        minimizer=u,
        objective=float(objective),
        grad_sup=float(grad_sup),
        xi=xi,
        t_multipliers=t,
        residual_sup=float(np.max(np.abs(r))),
        iterations=iterations,
        status=status,
        alpha=float(alpha),
        beta=float(beta),
        trace=trace,
    )


def minimize(g: Graph, spectrum: Spectrum, alpha: float, beta: float, k: int = 0,
             opts: SolverOptions | None = None) -> SolveReport:
    """Minimize J_{alpha,beta} over the subspace the regime dictates.

    Raises :class:`UnboundedRegimeError` when classification says no
    minimum exists (use :func:`probe_divergence` there). Otherwise
    returns a report whose minimizer, multipliers, and residual can be
    re-certified by the verify module. The returned u is *a* minimizer;
    it is the unique one where J is strictly convex (beta <= 0 among
    others, see :func:`_strictly_convex`), and no uniqueness is claimed
    elsewhere.
    """
    if opts is None:
        opts = SolverOptions()
    regime = classify_regime(spectrum, alpha, beta, k)
    if regime.tag is RegimeTag.UNBOUNDED_BELOW:
        raise UnboundedRegimeError(
            f"J is unbounded below for alpha={alpha}, beta={beta}, k={k}; "
            "use probe_divergence to certify a divergence ray")
    j = regime.subspace_index
    if regime.tag is RegimeTag.EIGENFUNCTION_SOLUTION:
        # u_{j+1,1} solves exactly, with J = 0 at alpha = lambda_{j+1}
        return _finalize(g, spectrum, regime, spectrum.bases[j + 1][0],
                         spectrum.eigenvalue(j + 1), beta, 0.0, None, 0,
                         SolveStatus.CONVERGED, (0.0,))

    basis = spectrum.split(j)[1]
    u = np.zeros(g.num_vertices)
    J = eval_J(g, u, alpha, beta)
    trace = [J]
    if basis.shape[0] == 0:
        # E_j^perp = {0}: u = 0 is the whole subspace and solves exactly
        return _finalize(g, spectrum, regime, u, alpha, beta, J, None, 0,
                         SolveStatus.CONVERGED, tuple(trace))

    shift = _coord_shift(spectrum, j, alpha)
    convex = _strictly_convex(basis, shift, beta)
    c = np.zeros(basis.shape[0])
    status = SolveStatus.MAX_ITERS
    # set when an Armijo search can no longer measurably decrease J; the
    # steps after it are accepted on the gradient until it is stationary
    stalled = False
    it = 0
    while True:
        gc = _coord_gradient(g, basis, u, alpha, beta)
        grad_sup = float(np.max(np.abs(gc @ basis)))
        if grad_sup <= opts.grad_tol:
            evals, evecs = np.linalg.eigh(_coord_hessian(g, u, beta, basis, shift))
            if evals[0] >= -1e-9 * (1.0 + float(np.max(np.abs(evals)))):
                status = SolveStatus.CONVERGED
                break
        if it >= opts.max_iters:
            break
        if grad_sup <= opts.grad_tol:
            # a saddle: follow the most negative curvature either way, for
            # a quarter of the decrease the quadratic model predicts
            direction = _canonical_sign(evecs[:, 0])
            curvature = abs(float(evals[0]))

            def accept(v, s):
                return _objective_below(g, v, alpha, beta, J - 0.25 * curvature * s * s)
            step = (_backtrack(basis, c, direction, 60, accept)
                    or _backtrack(basis, c, -direction, 60, accept))
            if step is None:
                # J cannot follow the curvature at representable step
                # sizes; accept the point
                status = SolveStatus.CONVERGED
                break
            stalled = False
        elif stalled:
            # J sits at its floating-point floor while the gradient is
            # still above grad_tol, which no J-based test can see; cut
            # the gradient itself with damped Newton steps
            direction = _levenberg_direction(_coord_hessian(g, u, beta, basis, shift), gc)
            if direction is None:
                break

            def accept(v, s):
                gv = _coord_gradient(g, basis, v, alpha, beta)
                if float(np.max(np.abs(gv @ basis))) < 0.9 * grad_sup:
                    return eval_J(g, v, alpha, beta)
                return None
            step = _backtrack(basis, c, direction, 30, accept)
            if step is None:
                break
        else:
            direction = None
            if convex or grad_sup < _NEWTON_SWITCH_TOL or it >= _GD_ITER_CAP:
                hess = _coord_hessian(g, u, beta, basis, shift)
                direction = _levenberg_direction(hess, gc)
            if direction is None:
                direction = -gc
            slope = float(gc @ direction)

            def accept(v, s):
                return _objective_below(g, v, alpha, beta, J + _ARMIJO_C * s * slope)
            step = _backtrack(basis, c, direction, 80, accept)
            stalled = step is None or step[2] == J
            if step is None:
                continue
        c, u, J = step
        it += 1
        trace.append(J)

    return _finalize(g, spectrum, regime, u, alpha, beta, J, grad_sup, it,
                     status, tuple(trace))


def probe_divergence(g: Graph, spectrum: Spectrum, alpha: float, beta: float,
                     k: int = 0) -> ProbeReport:
    """Sample J_{alpha,beta} along the ray t * v, v = u_{k+1,1}, at t = 2^0..2^E.

    Only callable in regimes classified unbounded below; raises
    :class:`BoundedRegimeError` otherwise. v is mean-zero and mu-unit, so
    J(t v) = (lambda_{k+1} - alpha) t^2 / 2 - beta log integral(h e^{t v}),
    and with x* = argmax v the log term is bounded on both sides:

        log(mu(x*) h(x*)) + t v(x*) <= log integral(h e^{t v})
                                    <= log integral(h) + t v(x*).

    Taking the side that fits the sign of beta gives the envelope
    J(t v) <= U(t) = a t^2 + b t + c with a = (lambda_{k+1} - alpha) / 2,
    b = -beta v(x*), and c = -beta log(mu(x*) h(x*)) for beta > 0 or
    c = -beta log integral(h) for beta <= 0. With t* the smallest t > 0
    where U(t) <= 2 * DIVERGENCE_DEPTH, E = max(20, ceil(log2 t*)). E = 20
    when U never gets that deep, or when t* lies so far out that rounding
    of the quadratic term, about t^2 eps (|lambda_{k+1}| + |alpha|), could
    reach 1e-3 |DIVERGENCE_DEPTH|; past that length samples are rounding
    noise.

    The verdict is ``unbounded`` when the last sample lies below
    ``DIVERGENCE_DEPTH``, else ``inconclusive``. That happens only when
    alpha lies below lambda_{k+1} inside eq_tol, where U turns back up,
    or past the rounding cap.
    """
    regime = classify_regime(spectrum, alpha, beta, k)
    if regime.tag is not RegimeTag.UNBOUNDED_BELOW:
        raise BoundedRegimeError(
            f"(alpha={alpha}, beta={beta}, k={k}) classifies as "
            f"{regime.tag.value}; the functional is bounded below there")
    lam = spectrum.eigenvalue(k + 1)
    # a copy, so a kept report does not pin the spectrum's n x n buffer
    direction = spectrum.bases[k + 1][0].copy()
    direction.flags.writeable = False
    top = int(np.argmax(direction))
    if beta > 0:
        log_h = math.log(g.mu[top] * g.h[top])
    else:
        log_h = log_integral_h_exp(g, np.zeros(g.num_vertices))
    # U(t) - 2 * DIVERGENCE_DEPTH = a t^2 + b t + c
    a = 0.5 * (lam - alpha)
    b = -beta * float(direction[top])
    c = -beta * log_h - 2.0 * DIVERGENCE_DEPTH
    exponent = _MIN_RAY_EXPONENT
    disc = b * b - 4.0 * a * c
    if disc >= 0.0 and math.sqrt(disc) > b:
        # the first root past t = 0, written so that it stays accurate
        # as a -> 0 and equals -c / b at a = 0
        t_star = 2.0 * c / (math.sqrt(disc) - b)
        noise = t_star * t_star * _EPS * (abs(lam) + abs(alpha))
        if t_star > 2.0 ** _MIN_RAY_EXPONENT and noise <= -1e-3 * DIVERGENCE_DEPTH:
            exponent = math.ceil(math.log2(t_star))
    samples = []
    for e in range(exponent + 1):
        t = float(2.0 ** e)
        samples.append((t, eval_J(g, t * direction, alpha, beta)))
    if samples[-1][1] < DIVERGENCE_DEPTH:
        verdict = ProbeVerdict.UNBOUNDED
    else:
        verdict = ProbeVerdict.INCONCLUSIVE
    return ProbeReport(direction=direction, samples=tuple(samples), verdict=verdict)
