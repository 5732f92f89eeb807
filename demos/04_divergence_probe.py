"""
Certifying unboundedness along an eigen-ray
===========================================

Where no minimum exists, J_{alpha,beta} diverges along the ray
t * u_{k+1,1} through the first eigenfunction above the gap. The probe
samples J at t = 2^0, 2^1, ..., out to a length it works out from the
spectrum, and certifies divergence when the last sample lies below a
fixed depth.
"""

from kwgraph import complete_graph, compute_spectrum, probe_divergence

g = complete_graph(2)
spec = compute_spectrum(g)
print("lambda_1 =", spec.eigenvalue(1))
print()

# alpha above the gap: quadratic divergence, certified quickly
report = probe_divergence(g, spec, 3.0, 0.0)
print("alpha=3 beta=0 along u_1:")
for t, J in report.samples[::4]:
    print(f"  t = {t:>9g}   J = {J:.6g}")
print("verdict:", report.verdict.value)
print()

# alpha exactly at the gap with beta > 0: the quadratic term vanishes
# on the ray and the log term wins only linearly
report = probe_divergence(g, spec, 2.0, 1.0)
print("alpha=2 beta=1 along u_1:")
for t, J in report.samples[::4]:
    print(f"  t = {t:>9g}   J = {J:.6g}")
print("verdict:", report.verdict.value)
print()

# a smaller beta makes the linear descent slower; the probe reads the
# needed ray length off a closed-form envelope and samples further out
report = probe_divergence(g, spec, 2.0, 0.1)
t, J = report.samples[-1]
print(f"alpha=2 beta=0.1: last sample J = {J:.6g} at t = 2^{len(report.samples) - 1}")
print("verdict:", report.verdict.value)
print()

# alpha a hair below the gap, inside the equality tolerance: classified
# unbounded, but on this ray the quadratic term turns J back up before
# it gets deep, so the probe says so instead of guessing
report = probe_divergence(g, spec, 2.0 - 1.5e-9, 1e-3)
t, J = report.samples[-1]
print(f"alpha=2-1.5e-9 beta=1e-3: last sample J = {J:.6g} at t = {t:g}")
print("verdict:", report.verdict.value)
