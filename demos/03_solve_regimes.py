"""
Solving across the (alpha, beta) regimes
========================================

The position of alpha relative to lambda_{k+1} decides whether the
functional J_{alpha,beta} has a minimum, and on which subspace. This
script classifies and solves one case per regime on the unit path.
"""

import numpy as np

from kwgraph import (
    classify_regime,
    compute_spectrum,
    minimize,
    path_graph,
    probe_divergence,
    UnboundedRegimeError,
)

g = path_graph(3)
spec = compute_spectrum(g)
lam1 = spec.eigenvalue(1)
print("lambda_1 =", lam1)
print()


def show(alpha, beta):
    regime = classify_regime(spec, alpha, beta, 0)
    print(f"alpha={alpha:g} beta={beta:g}: {regime.tag.value}")
    try:
        report = minimize(g, spec, alpha, beta)
    except UnboundedRegimeError:
        probe = probe_divergence(g, spec, alpha, beta)
        t, J = probe.samples[-1]
        print(f"  no minimum; probe verdict {probe.verdict.value}, "
              f"J({t:g} * u_1) = {J:.4g}")
        print()
        return
    print(f"  status={report.status.value} iterations={report.iterations}")
    print(f"  minimizer u = {np.round(report.minimizer, 6)}")
    print(f"  objective = {report.objective:.12g}")
    print(f"  residual_sup = {report.residual_sup:.3g}  xi = {report.xi:g}")
    print()


# below the gap: minimum on the mean-zero functions for every beta
show(0.5, 7.0)
show(0.5, -7.0)

# at the gap the sign of beta decides
show(lam1, 0.0)     # exact eigenfunction solves the equation
show(lam1, -1.0)    # minimum moves to E_1^perp
show(lam1, 1.0)     # unbounded below

# above the gap: always unbounded
show(lam1 + 0.5, 0.0)
