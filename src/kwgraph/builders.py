"""Convenience graph constructors for tests, demos, and experiments."""

from __future__ import annotations

import math
import operator
import string

import numpy as np

from .graphs import Graph

__all__ = ["complete_graph", "path_graph", "random_connected_graph"]

# candidate-pair draws taken from the generator at once by
# random_connected_graph; bounds its extra memory, not its output
_BLOCK = 65536


def _default_ids(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple(string.ascii_lowercase[:n])
    return tuple(f"v{i}" for i in range(n))


def _vertex_array(value, n: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    return arr


def path_graph(n: int, mu=1.0, h=1.0, weight: float = 1.0,
               ids: tuple[str, ...] | None = None) -> Graph:
    """Path on n vertices with uniform edge weight; mu and h may be
    scalars or per-vertex arrays."""
    if n < 1:
        raise ValueError("need at least one vertex")
    edges = tuple((i, i + 1, float(weight)) for i in range(n - 1))
    return Graph(ids or _default_ids(n), _vertex_array(mu, n), _vertex_array(h, n), edges)


def complete_graph(n: int, mu=1.0, h=1.0, weight: float = 1.0,
                   ids: tuple[str, ...] | None = None) -> Graph:
    """Complete graph on n vertices with uniform edge weight."""
    if n < 1:
        raise ValueError("need at least one vertex")
    edges = tuple((i, j, float(weight)) for i in range(n) for j in range(i + 1, n))
    return Graph(ids or _default_ids(n), _vertex_array(mu, n), _vertex_array(h, n), edges)


def _check_range(name: str, value) -> tuple[float, float]:
    low, high = (float(x) for x in value)
    if not 0.0 < low <= high < math.inf:
        raise ValueError(f"{name} must satisfy 0 < low <= high < inf, got {value!r}")
    return low, high


def random_connected_graph(rng: np.random.Generator, num_vertices: int,
                           mu_range: tuple[float, float] = (0.1, 10.0),
                           w_range: tuple[float, float] = (0.1, 10.0),
                           h_range: tuple[float, float] = (0.1, 10.0),
                           extra_edge_prob: float = 0.3) -> Graph:
    """Random connected graph: a random recursive tree plus independent
    extra edges. Measures, weights, and h are drawn uniformly from the
    given ranges, each of which needs 0 < low <= high < inf.

    Stream contract: the draws from ``rng`` are, in order, mu and h as
    two size-n uniform draws; for v = 1..n-1, a parent
    ``integers(0, v)`` and a tree-edge weight ``uniform(*w_range)``;
    then, for every pair i < j in row-major order that is not a tree
    edge, one double, and when it is below ``extra_edge_prob`` one more
    double u for the weight ``low + (high - low) * u``. The pair doubles
    are drawn in blocks that never reach past the last candidate pair,
    so the graph and the generator state afterwards do not depend on the
    block size, and extra memory stays O(n + edges + block), never
    O(n^2). Arguments are checked before the first draw."""
    try:
        if isinstance(num_vertices, bool):
            raise TypeError
        n = operator.index(num_vertices)
    except TypeError:
        raise ValueError(f"num_vertices must be an integer, got {num_vertices!r}") from None
    if n < 1:
        raise ValueError("need at least one vertex")
    p = float(extra_edge_prob)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"extra_edge_prob must lie in [0, 1], got {extra_edge_prob!r}")
    mu_range = _check_range("mu_range", mu_range)
    w_range = _check_range("w_range", w_range)
    h_range = _check_range("h_range", h_range)
    mu = rng.uniform(*mu_range, size=n)
    h = rng.uniform(*h_range, size=n)
    edges: list[tuple[int, int, float]] = []
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        edges.append((parent, v, float(rng.uniform(*w_range))))
    edges += _extra_edges(rng, n, edges, p, w_range)
    return Graph(_default_ids(n), mu, h, tuple(edges))


def _extra_edges(rng: np.random.Generator, n: int, tree: list[tuple[int, int, float]],
                 p: float, w_range: tuple[float, float]) -> list[tuple[int, int, float]]:
    """The extra edges of random_connected_graph on top of its tree.

    Pairs i < j are numbered in row-major order, and candidates are the
    non-tree pairs. With t the sorted tree pair numbers, candidate c is
    pair c + #{k : t_k - k <= c}. Both that count and the row of the
    pair only grow with c, so one merge walk maps every accept."""
    total = (n - 1) * (n - 2) // 2
    low, high = w_range
    tree_pairs = sorted(i * (2 * n - i - 1) // 2 + j - i - 1 for i, j, _ in tree)
    before = [t - k for k, t in enumerate(tree_pairs)] + [total]  # sentinel
    skip = 0  # tree pairs before the current candidate
    i, next_row = 0, n - 1  # row of the current pair; pair number of (i + 1, i + 2)
    edges: list[tuple[int, int, float]] = []
    start = 0  # candidate number of the block's first draw
    while start < total:
        m = min(total - start, _BLOCK)
        draws = rng.random(m)
        taken = 0  # block draws used as weights so far
        weight_at = -1
        for k in np.flatnonzero(draws < p).tolist():
            if k == weight_at:
                continue
            c = start + k - taken
            while before[skip] <= c:
                skip += 1
            pair = c + skip
            while pair >= next_row:
                i += 1
                next_row += n - 1 - i
            weight_at = k + 1
            if weight_at < m:
                u = float(draws[weight_at])
                taken += 1
            else:
                u = rng.random()
            edges.append((i, pair - next_row + n, low + (high - low) * u))
        start += m - taken
    return edges
