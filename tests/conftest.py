from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from kwgraph import Graph, complete_graph, compute_spectrum, path_graph, random_connected_graph

# the same examples on every run and machine, with no timing-based failures
settings.register_profile("kwgraph", derandomize=True, deadline=None)
settings.load_profile("kwgraph")


@pytest.fixture(scope="session")
def k2():
    return complete_graph(2)


@pytest.fixture(scope="session")
def p3():
    return path_graph(3)


@pytest.fixture(scope="session")
def k3():
    return complete_graph(3)


@pytest.fixture(scope="session")
def k2_spec(k2):
    return compute_spectrum(k2)


@pytest.fixture(scope="session")
def p3_spec(p3):
    return compute_spectrum(p3)


@pytest.fixture(scope="session")
def k3_spec(k3):
    return compute_spectrum(k3)


K2_DOC = """\
{
  "vertices": [
    {"id": "a", "mu": 1.0, "h": 1.0},
    {"id": "b", "mu": 1.0, "h": 1.0}
  ],
  "edges": [
    {"u": "a", "v": "b", "w": 1.0}
  ]
}
"""

P3_DOC = """\
{
  "vertices": [
    {"id": "a", "mu": 1.0, "h": 1.0},
    {"id": "b", "mu": 1.0, "h": 1.0},
    {"id": "c", "mu": 1.0, "h": 1.0}
  ],
  "edges": [
    {"u": "a", "v": "b", "w": 1.0},
    {"u": "b", "v": "c", "w": 1.0}
  ]
}
"""


@pytest.fixture
def k2_path(tmp_path):
    path = tmp_path / "k2.json"
    path.write_text(K2_DOC, encoding="utf-8")
    return path


@pytest.fixture
def p3_path(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(P3_DOC, encoding="utf-8")
    return path


def random_mean_zero(rng: np.random.Generator, g, scale: float = 1.0) -> np.ndarray:
    from kwgraph import project_mean_zero

    return project_mean_zero(g, scale * rng.standard_normal(g.num_vertices))


def log_uniform_graph(seed: int, n: int) -> Graph:
    """A random connected graph with mu, w and h log-uniform in 1e-2..1e2."""
    rng = np.random.default_rng(seed)
    tree = random_connected_graph(rng, n)

    def draw(size):
        return 10.0 ** rng.uniform(-2.0, 2.0, size)
    weights = draw(len(tree.edges))
    edges = tuple((i, j, float(w)) for (i, j, _), w in zip(tree.edges, weights))
    return Graph(tree.vertex_ids, draw(n), draw(n), edges)
