"""Spectral decomposition of -Delta in the mu-inner product.

The combinatorial Laplacian L = D - W is symmetrized to
M^{-1/2} L M^{-1/2} (M = diag(mu)), decomposed with a dense symmetric
eigensolver, and mapped back through M^{-1/2}, which makes the
eigenvectors exactly mu-orthonormal up to rounding. Eigenvalues are
grouped into distinct values at a relative tolerance. The eigenvector of
a simple eigenvalue is normalized in place in the mu-inner product; a
group of multiplicity > 1 is re-orthonormalized by Gram-Schmidt in the
mu-inner product. Every basis row gets a deterministic sign (first
nonzero entry positive), and the bases are row views of one read-only
n x n buffer.

Eigenvalue groups are indexed 0..m-1 with lambda_0 = 0; E_k denotes the
direct sum of the eigenspaces for lambda_1..lambda_k, and E_k^perp its
mu-orthogonal complement inside the mean-zero subspace H. Both come from
``Spectrum.split(k)`` as row slices of the buffer; every projection,
multiplier and solver basis takes its rows from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import mu_inner, project_mean_zero
from .graphs import Graph, _connected, as_vertex_function

__all__ = [
    "DEFAULT_GROUPING_TOL",
    "Spectrum",
    "compute_spectrum",
    "poincare_constant",
    "project_Ek",
    "project_Ek_perp",
    "spectrum_from_dict",
    "spectrum_to_dict",
]

DEFAULT_GROUPING_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Distinct eigenvalues of -Delta with mu-orthonormal eigenbases.

    ``rows`` holds every eigenfunction as a row, in eigenvalue order,
    mu-orthonormal across the entire spectrum; ``bases[k]`` is the view
    of the rows spanning the k-th eigenspace, and ``bases[0]`` is the
    single constant Vol(V)^{-1/2}.
    """

    distinct_eigenvalues: np.ndarray
    multiplicities: np.ndarray
    rows: np.ndarray
    grouping_tol: float
    bases: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rows.shape[0] != int(np.sum(self.multiplicities)):
            raise ValueError("multiplicities do not add up to the number of basis rows")
        bounds = np.concatenate(([0], np.cumsum(self.multiplicities))).tolist()
        object.__setattr__(self, "bases",
                           tuple(self.rows[a:b] for a, b in zip(bounds, bounds[1:])))

    @property
    def num_distinct(self) -> int:
        return len(self.distinct_eigenvalues)

    def eigenvalue(self, k: int) -> float:
        if not 0 <= k < self.num_distinct:
            raise IndexError(f"eigenvalue index {k} out of range 0..{self.num_distinct - 1}")
        return float(self.distinct_eigenvalues[k])

    def split(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows spanning E_k and rows spanning E_k^perp, as views of ``rows``."""
        if not 0 <= k <= self.num_distinct - 1:
            raise ValueError(f"k={k} out of range 0..{self.num_distinct - 1}")
        start = int(np.sum(self.multiplicities[:k + 1]))
        return self.rows[1:start], self.rows[start:]


def _negative_leading(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows whose first entry above 1e-12 * max|row| is negative."""
    magnitude = np.abs(rows)
    significant = magnitude > 1e-12 * magnitude.max(axis=1, keepdims=True)
    first = significant.argmax(axis=1)
    return rows[np.arange(len(rows)), first] < 0


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    return -v if _negative_leading(v[None, :])[0] else v


def _mu_normalize(mu: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Divide ``v`` in place by its norm in the inner product weighted by ``mu``."""
    norm = np.sqrt(float(np.dot(mu * v, v)))
    if norm <= 1e-13:
        raise np.linalg.LinAlgError("rank loss while orthonormalizing an eigenspace")
    v /= norm
    return v


def _mu_orthonormalize(g: Graph, rows: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt in the mu-inner product, with reorthogonalization."""
    out: list[np.ndarray] = []
    for row in rows:
        v = row.astype(float).copy()
        for _ in range(2):
            for q in out:
                v -= mu_inner(g, v, q) * q
        out.append(_mu_normalize(g.mu, v))
    return np.array(out)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def compute_spectrum(g: Graph, grouping_tol: float = DEFAULT_GROUPING_TOL) -> Spectrum:
    """Eigendecomposition of -Delta on a connected graph.

    Raises ValueError for a ``grouping_tol`` that is not finite and
    positive, or when the zero eigenvalue is not simple: the graph is
    disconnected, or ``grouping_tol`` merged lambda_0 with lambda_1.
    """
    if not 0 < grouping_tol < np.inf:
        raise ValueError(f"grouping_tol must be finite and positive, got {grouping_tol!r}")
    n = g.num_vertices
    # L = D - W scaled to M^{-1/2} L M^{-1/2} in one buffer; the result
    # is exactly symmetric because L and outer(s, s) are. Keep every
    # floating-point operation here and below as it is: near-resonant
    # solves change their outcome with the last bit of the spectrum.
    lap = np.zeros((n, n))
    ei, ej, ew = g.edge_arrays
    lap[ei, ej] = ew
    lap[ej, ei] = ew
    degree = lap.sum(axis=1)
    np.subtract(0.0, lap, out=lap)
    lap.reshape(-1)[::n + 1] += degree
    inv_sqrt_mu = 1.0 / np.sqrt(g.mu)
    scaling = np.outer(inv_sqrt_mu, inv_sqrt_mu)
    lap *= scaling
    del scaling
    evals, evecs = np.linalg.eigh(lap)
    del lap
    # eigenvectors as rows, mapped back through M^{-1/2}
    rows = np.ascontiguousarray(evecs.T)
    del evecs
    rows *= inv_sqrt_mu

    scale = max(float(evals[-1]), 1.0)
    starts = np.flatnonzero(np.diff(evals) > grouping_tol * scale) + 1
    bounds = np.concatenate(([0], starts, [n])).tolist()
    if bounds[1] != 1:
        if _connected(g):
            raise ValueError(
                f"grouping_tol={grouping_tol!r} merged lambda_0 = 0 with "
                f"lambda_1 = {float(evals[1])!r}; use a smaller tolerance")
        raise ValueError(
            "zero eigenvalue is not simple: the graph is disconnected (run validate)"
        )

    distinct = evals[bounds[:-1]]
    distinct[0] = 0.0
    rows[0] = 1.0 / np.sqrt(g.volume)
    for s in range(1, len(bounds) - 1):
        a, b = bounds[s], bounds[s + 1]
        if b - a == 1:
            _mu_normalize(g.mu, rows[a])
        else:
            distinct[s] = np.mean(evals[a:b])
            rows[a:b] = _mu_orthonormalize(g, rows[a:b])
    flip = _negative_leading(rows)
    rows[flip] = -rows[flip]
    _read_only(rows)
    return Spectrum(
        distinct_eigenvalues=_read_only(distinct),
        multiplicities=_read_only(np.diff(bounds)),
        rows=rows,
        grouping_tol=float(grouping_tol),
    )


def project_Ek(spectrum: Spectrum, g: Graph, f, k: int) -> np.ndarray:
    """mu-orthogonal projection onto E_k = span of eigenspaces 1..k."""
    f = as_vertex_function(g, f)
    ek = spectrum.split(k)[0]
    return (ek @ (g.mu * f)) @ ek


def project_Ek_perp(spectrum: Spectrum, g: Graph, f, k: int) -> np.ndarray:
    """mu-orthogonal projection onto E_k^perp inside the mean-zero subspace.

    For k = 0 this is the plain mean-zero projection.
    """
    return project_mean_zero(g, f) - project_Ek(spectrum, g, f, k)


def poincare_constant(spectrum: Spectrum) -> float:
    """Sharp Poincare constant C_P = 1/lambda_1 on the mean-zero subspace."""
    if spectrum.num_distinct < 2:
        raise ValueError("graph has a single vertex: no nonzero eigenvalue exists")
    return 1.0 / spectrum.eigenvalue(1)


def spectrum_to_dict(spectrum: Spectrum) -> dict:
    """JSON-ready dict; floats survive a json round-trip bit-exactly."""
    return {
        "distinct_eigenvalues": [float(v) for v in spectrum.distinct_eigenvalues],
        "multiplicities": [int(m) for m in spectrum.multiplicities],
        "bases": [[[float(x) for x in row] for row in block] for block in spectrum.bases],
        "grouping_tol": float(spectrum.grouping_tol),
    }


def spectrum_from_dict(doc: dict) -> Spectrum:
    """Inverse of :func:`spectrum_to_dict`; ignores unknown keys."""
    return Spectrum(
        distinct_eigenvalues=_read_only(np.array(doc["distinct_eigenvalues"], dtype=float)),
        multiplicities=_read_only(np.array(doc["multiplicities"], dtype=int)),
        rows=_read_only(np.array([row for block in doc["bases"] for row in block],
                                 dtype=float)),
        grouping_tol=float(doc["grouping_tol"]),
    )
