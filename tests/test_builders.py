"""random_connected_graph: the same graphs and the same generator stream
as the plain pair loop, whatever the draw block size; bad arguments are
rejected before any draw."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwgraph import Graph, builders, random_connected_graph


def loop_graph(rng, n, mu_range=(0.1, 10.0), w_range=(0.1, 10.0), h_range=(0.1, 10.0),
               extra_edge_prob=0.3):
    """The builder as one rng.random() per candidate pair in a double loop."""
    mu = rng.uniform(*mu_range, size=n)
    h = rng.uniform(*h_range, size=n)
    edges = []
    used = set()
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        edges.append((parent, v, float(rng.uniform(*w_range))))
        used.add((parent, v))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in used and rng.random() < extra_edge_prob:
                edges.append((i, j, float(rng.uniform(*w_range))))
                used.add((i, j))
    return Graph(builders._default_ids(n), mu, h, tuple(edges))


def assert_same_stream(seed, n, **kwargs):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert random_connected_graph(rng, n, **kwargs) == loop_graph(ref_rng, n, **kwargs)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def log_range():
    exponents = st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2).map(sorted)
    return exponents.map(lambda e: (10.0 ** e[0], 10.0 ** e[1]))


@pytest.mark.parametrize("block", [None, 1, 2, 3])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
       p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       mu_range=log_range(), w_range=log_range(), h_range=log_range())
def test_same_graph_and_stream_as_pair_loop(block, seed, n, p, mu_range, w_range, h_range):
    # small blocks put accepts, and so weight draws, on block boundaries
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(builders, "_BLOCK", block)
        assert_same_stream(seed, n, mu_range=mu_range, w_range=w_range, h_range=h_range,
                           extra_edge_prob=p)


def test_benchmark_pool_graph_matches_pair_loop():
    assert_same_stream([20230818, 640, 0], 640, extra_edge_prob=8 / 639)


@pytest.mark.parametrize("build", [builders.path_graph, builders.complete_graph])
def test_fixed_builders_need_a_vertex(build):
    with pytest.raises(ValueError, match="at least one vertex"):
        build(0)


@pytest.mark.parametrize("kwargs", [
    {"extra_edge_prob": math.nan},
    {"extra_edge_prob": -1.0},
    {"extra_edge_prob": 2.0},
    {"num_vertices": 2.7},
    {"num_vertices": True},
    {"num_vertices": 0},
    {"mu_range": (-1.0, 1.0)},
    {"w_range": (2.0, 1.0)},
    {"h_range": (1.0, math.inf)},
    {"h_range": (math.nan, 1.0)},
])
def test_rejects_bad_arguments_before_any_draw(kwargs):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        random_connected_graph(rng, **{"num_vertices": 5, **kwargs})
    assert rng.bit_generator.state == state
