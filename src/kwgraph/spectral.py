"""Spectral decomposition of -Delta in the mu-inner product.

The combinatorial Laplacian L = D - W is symmetrized to
M^{-1/2} L M^{-1/2} (M = diag(mu)), decomposed with a dense symmetric
eigensolver, and mapped back through M^{-1/2}, which makes the
eigenvectors mu-orthonormal up to rounding. Each row keeps its own
eigenvalue. A row whose rounding-level component along the constant
could show in a mean-zero check has it subtracted, and every row is then
normalized in place in the mu-inner product; rows are never mixed. Every
basis row gets a deterministic sign (first nonzero entry positive), and
the bases are row views of one read-only n x n buffer.

One rule says when two values are the same eigenvalue: they differ by at
most 1e-9 (1 + |lambda|) plus the rounding floor 8 n eps lambda_max,
below which a dense symmetric eigensolver cannot tell eigenvalues apart
(backward stability and Weyl's inequality). ``compute_spectrum`` groups
consecutive eigenvalues by it, and ``Spectrum.tolerance`` gives it to
the regime classification.

Eigenvalue groups are indexed 0..m-1 with lambda_0 = 0; E_k denotes the
direct sum of the eigenspaces for lambda_1..lambda_k, and E_k^perp its
mu-orthogonal complement inside the mean-zero subspace H. Both come from
``Spectrum.split(k)`` as row slices of the buffer; every projection,
multiplier and solver basis takes its rows from there.

``compute_spectrum`` keeps the last graph it decomposed, keyed by the
bits of mu and of the edge arrays, with its spectrum: one entry, no
more. A graph with the same bits, parsed again or with another h, gets
the same read-only object back without a decomposition. The entry holds
that spectrum's n x n buffer until another graph is decomposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import project_mean_zero
from .graphs import Graph, _connected, as_vertex_function

__all__ = [
    "Spectrum",
    "compute_spectrum",
    "poincare_constant",
    "project_Ek",
    "project_Ek_perp",
    "spectrum_to_dict",
]

_EPS = float(np.finfo(float).eps)


def _tolerance(lam, evals: np.ndarray):
    """Largest distance at which a value is still the eigenvalue ``lam``
    of a spectrum with ascending eigenvalues ``evals``."""
    return 1e-9 * (1.0 + np.abs(lam)) + 8 * len(evals) * _EPS * abs(float(evals[-1]))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Distinct eigenvalues of -Delta with mu-orthonormal eigenbases.

    ``rows`` holds every eigenfunction as a row, in eigenvalue order,
    mu-orthonormal across the entire spectrum, and ``row_eigenvalues``
    the eigenvalue of each row. ``bases[k]`` is the view of the rows
    spanning the k-th eigenvalue group, and ``bases[0]`` is the single
    constant Vol(V)^{-1/2}. ``distinct_eigenvalues[k]`` is the smallest
    member of group k, the eigenvalue of ``bases[k][0]``.
    """

    multiplicities: np.ndarray
    rows: np.ndarray
    row_eigenvalues: np.ndarray
    distinct_eigenvalues: np.ndarray = field(init=False)
    bases: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _bounds: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.rows.shape[0]
        if int(np.sum(self.multiplicities)) != n or self.row_eigenvalues.shape != (n,):
            raise ValueError("multiplicities and row_eigenvalues must match the basis rows")
        bounds = np.concatenate(([0], np.cumsum(self.multiplicities))).tolist()
        object.__setattr__(self, "_bounds", tuple(bounds))
        object.__setattr__(self, "distinct_eigenvalues",
                           _read_only(self.row_eigenvalues[bounds[:-1]]))
        object.__setattr__(self, "bases",
                           tuple(self.rows[a:b] for a, b in zip(bounds, bounds[1:])))

    @property
    def num_distinct(self) -> int:
        return len(self.distinct_eigenvalues)

    def eigenvalue(self, k: int) -> float:
        if not 0 <= k < self.num_distinct:
            raise IndexError(f"eigenvalue index {k} out of range 0..{self.num_distinct - 1}")
        return float(self.distinct_eigenvalues[k])

    def members(self, k: int) -> np.ndarray:
        """The eigenvalue of each row of ``bases[k]``, ascending."""
        return self.row_eigenvalues[self._bounds[k]:self._bounds[k + 1]]

    def tolerance(self, lam: float) -> float:
        """How far a value may lie from ``lam`` and still be the same
        eigenvalue: 1e-9 (1 + |lam|) + 8 n eps lambda_max."""
        return float(_tolerance(lam, self.row_eigenvalues))

    def split(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows spanning E_k and rows spanning E_k^perp, as views of ``rows``."""
        if not 0 <= k <= self.num_distinct - 1:
            raise ValueError(f"k={k} out of range 0..{self.num_distinct - 1}")
        start = self._bounds[k + 1]
        return self.rows[1:start], self.rows[start:]


def _coord_shift(spectrum: Spectrum, j: int, alpha: float) -> np.ndarray:
    """lambda_s - alpha for each row of ``spectrum.split(j)[1]``."""
    return spectrum.row_eigenvalues[spectrum._bounds[j + 1]:] - alpha


def _negative_leading(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows whose first entry above 1e-12 * max|row| is negative."""
    magnitude = np.abs(rows)
    significant = magnitude > 1e-12 * magnitude.max(axis=1, keepdims=True)
    first = significant.argmax(axis=1)
    return rows[np.arange(len(rows)), first] < 0


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    return -v if _negative_leading(v[None, :])[0] else v


def _mu_normalize(mu: np.ndarray, v: np.ndarray) -> None:
    """Divide ``v`` in place by its norm in the inner product weighted by ``mu``."""
    v /= np.sqrt(float(np.dot(mu * v, v)))


# (key, spectrum) of the last graph compute_spectrum decomposed
_last: tuple[tuple[bytes, ...], Spectrum] | None = None


def compute_spectrum(g: Graph) -> Spectrum:
    """Eigendecomposition of -Delta on a connected graph.

    The last graph decomposed is remembered, keyed by the bits of ``mu``
    and of the three ``edge_arrays`` (h and the vertex ids do not enter
    -Delta): a graph with the same bits gets the same read-only
    ``Spectrum`` object back, and any other graph is decomposed anew and
    takes the single entry's place. The entry holds one n x n buffer
    until another graph is decomposed.

    Raises ValueError when the zero eigenvalue is not simple: the graph
    is disconnected, or lambda_1 lies within the tolerance of 0. Such a
    graph leaves no entry.
    """
    global _last
    key = (g.mu.tobytes(), *(arr.tobytes() for arr in g.edge_arrays))
    last = _last
    if last is not None and last[0] == key:
        return last[1]
    # release the held spectrum, from the memo and from this frame, before
    # eigh allocates, so that at most one n x n buffer outlives it
    _last = last = None
    spectrum = _decompose(g)
    # one tuple, so that no reader pairs one graph's key with another's
    # spectrum
    _last = (key, spectrum)
    return spectrum


def _decompose(g: Graph) -> Spectrum:
    """The eigendecomposition behind the memo of :func:`compute_spectrum`."""
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

    starts = np.flatnonzero(np.diff(evals) > _tolerance(evals[:-1], evals)) + 1
    bounds = np.concatenate(([0], starts, [n])).tolist()
    if bounds[1] != 1:
        if _connected(g):
            raise ValueError(
                f"lambda_1 = {float(evals[1])!r} cannot be told apart from lambda_0 = 0")
        raise ValueError(
            "zero eigenvalue is not simple: the graph is disconnected (run validate)"
        )

    evals[0] = 0.0
    rows[0] = 1.0 / np.sqrt(g.volume)
    # subtract a row's component along the constant only where it could
    # show; a row within the threshold keeps every bit eigh gave it
    threshold = 1e-12 * np.sqrt(g.volume)
    for row in rows[1:]:
        leak = float(np.dot(row, g.mu))
        if abs(leak) > threshold:
            row -= leak / g.volume
        _mu_normalize(g.mu, row)
    flip = _negative_leading(rows)
    rows[flip] = -rows[flip]
    _read_only(rows)
    return Spectrum(
        multiplicities=_read_only(np.diff(bounds)),
        rows=rows,
        row_eigenvalues=_read_only(evals),
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
        "row_eigenvalues": [float(v) for v in spectrum.row_eigenvalues],
    }
