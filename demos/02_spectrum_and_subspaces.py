"""
The spectrum of -Delta and its subspaces
========================================

Compute distinct eigenvalues with multiplicities and mu-orthonormal
eigenbases, then project onto the span E_k of the first k nonzero
eigenspaces and its complement E_k^perp inside the mean-zero functions.
"""

import numpy as np

from kwgraph import (
    compute_spectrum,
    laplacian,
    mu_inner,
    path_graph,
    poincare_constant,
    project_Ek,
    project_Ek_perp,
    random_connected_graph,
)

g = path_graph(3)
spec = compute_spectrum(g)
print("distinct eigenvalues:", spec.distinct_eigenvalues)
print("multiplicities:     ", list(spec.multiplicities))
print("Poincare constant:  ", poincare_constant(spec))
print()

# each basis row solves the eigenvalue equation of -Delta
for s, lam in enumerate(spec.distinct_eigenvalues):
    for vec in spec.bases[s]:
        residual = np.max(np.abs(-laplacian(g, vec) - lam * vec))
        print(f"lambda_{s} = {lam:g}  eigen-residual = {residual:.2e}  v = {vec}")
print()

# Spectrum.split(k) gives the basis rows spanning E_k and E_k^perp
e1, e1_perp = spec.split(1)
print("E_1 rows:     ", e1.tolist())
print("E_1^perp rows:", e1_perp.tolist())
print()

# splitting a function into constant + E_1 + E_1^perp parts
u = np.array([2.0, -1.0, 0.5])
mean = mu_inner(g, u, np.ones(3)) / g.volume
inside = project_Ek(spec, g, u, 1)
outside = project_Ek_perp(spec, g, u, 1)
print("u            =", u)
print("constant part =", mean)
print("E_1 part      =", inside)
print("E_1^perp part =", outside)
print("reassembled   =", mean + inside + outside)
print()

# the same machinery on a random graph with heavy weights
rng = np.random.default_rng(3)
big = random_connected_graph(rng, 8)
big_spec = compute_spectrum(big)
print("random graph eigenvalues:", np.round(big_spec.distinct_eigenvalues, 4))
rows = big_spec.rows
gram = (rows * big.mu) @ rows.T
print("orthonormality gap:", np.max(np.abs(gram - np.eye(rows.shape[0]))))
