"""
Analytic bounds and independent certification
=============================================

Three supporting capabilities: the constructive lower bound on
integral(h e^u) for mean-zero u, a Trudinger-Moser-type constant
estimated by the power method in eigen-coordinates (where the integral
is convex, so no step lowers it) and bracketed by the Green's matrix
diagonal, and the verification pass that re-certifies a solve report
from scratch.
"""

import numpy as np

from kwgraph import (
    complete_graph,
    compute_spectrum,
    estimate_tm_constant,
    heu_lower_bound,
    minimize,
    path_graph,
    project_mean_zero,
    verify_solution,
)

g = path_graph(3)
spec = compute_spectrum(g)

# the bound integral(h e^u) >= C1 exp(-C2 ||grad u||) holds for every
# mean-zero u; sample a few amplitudes
rng = np.random.default_rng(11)
print("lower bound on integral(h e^u):")
for scale in (0.1, 1.0, 10.0):
    u = project_mean_zero(g, scale * rng.standard_normal(3))
    bound = heu_lower_bound(g, spec, u)
    print(f"  scale {scale:>5}: lhs = {bound.lhs:.6g}  rhs = {bound.rhs:.6g}"
          f"  holds = {bound.holds}")
print()

# the sharp constant sup integral(e^(theta v^2)) over unit-energy
# mean-zero v, estimated by the power method with restarts; it lies
# between max_x and sum_x of mu_x e^(theta G_xx), G the Green's matrix.
# On the two-clique the two ends meet at the exact value 2 e^(1/4)
k2 = complete_graph(2)
estimate = estimate_tm_constant(k2, theta=1.0, budget=4)
print("two-clique constant estimate:", estimate)
print("exact value 2 exp(1/4)     :", 2.0 * np.exp(0.25))
print()

# larger budgets only improve the estimate
for budget in (1, 4, 16):
    value = estimate_tm_constant(g, theta=0.8, budget=budget)
    print(f"path graph, theta=0.8, budget {budget:>2}: {value:.10g}")
print()

# every solve report carries enough to be re-certified independently
report = minimize(g, spec, 0.5, 6.0)
checks = verify_solution(g, spec, report, tol=1e-8)
print("re-certifying a solve at alpha=0.5, beta=6:")
for check in checks:
    print(" ", check)
