from __future__ import annotations

import json
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kwgraph import (
    Graph,
    Spectrum,
    complete_graph,
    compute_spectrum,
    dirichlet_energy,
    integrate,
    laplacian,
    mu_inner,
    parse_graph,
    path_graph,
    poincare_constant,
    project_Ek,
    project_Ek_perp,
    project_mean_zero,
    random_connected_graph,
    serialize_graph,
    spectral,
    spectrum_to_dict,
)
from conftest import dense_laplacian, log_uniform_graph


def spectrum_from_dict(doc: dict) -> Spectrum:
    """A Spectrum built directly from a ``spectrum_to_dict`` document
    read back from JSON text, as a reader of ``spectrum --json`` builds
    it, on a read-only row buffer."""
    doc = json.loads(json.dumps(doc))
    rows = np.array([row for block in doc["bases"] for row in block])
    rows.flags.writeable = False
    return Spectrum(multiplicities=np.array(doc["multiplicities"]), rows=rows,
                    row_eigenvalues=np.array(doc["row_eigenvalues"]))


def all_eigenpairs(spectrum):
    for k, block in enumerate(spectrum.bases):
        lam = spectrum.eigenvalue(k)
        for vec in block:
            yield lam, vec


def brute_eigenvalues(g):
    # independent oracle: generalized problem L u = lambda M u
    return scipy.linalg.eigh(dense_laplacian(g), np.diag(g.mu), eigvals_only=True)


def test_k2_spectrum(k2_spec):
    assert np.allclose(k2_spec.distinct_eigenvalues, [0.0, 2.0], atol=1e-12)
    assert list(k2_spec.multiplicities) == [1, 1]
    assert np.allclose(k2_spec.bases[0], np.full((1, 2), 1 / np.sqrt(2)))
    assert np.allclose(k2_spec.bases[1], [[1 / np.sqrt(2), -1 / np.sqrt(2)]])


def test_p3_spectrum(p3_spec):
    assert np.allclose(p3_spec.distinct_eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)
    assert list(p3_spec.multiplicities) == [1, 1, 1]
    # canonical sign: first nonzero coordinate positive
    assert np.allclose(p3_spec.bases[1], [[1, 0, -1] / np.sqrt(2)], atol=1e-12)
    assert np.allclose(p3_spec.bases[2], [[1, -2, 1] / np.sqrt(6)], atol=1e-12)


def test_k3_spectrum_groups_multiplicity(k3_spec):
    assert np.allclose(k3_spec.distinct_eigenvalues, [0.0, 3.0], atol=1e-12)
    assert list(k3_spec.multiplicities) == [1, 2]


def test_zeroth_eigenvalue_is_exact():
    rng = np.random.default_rng(21)
    g = random_connected_graph(rng, 17)
    spec = compute_spectrum(g)
    assert spec.eigenvalue(0) == 0.0
    assert np.allclose(spec.bases[0][0], 1.0 / np.sqrt(g.volume))


def test_eigen_residuals_and_orthonormality_random():
    rng = np.random.default_rng(22)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 30)))
        spec = compute_spectrum(g)
        assert int(np.sum(spec.multiplicities)) == g.num_vertices
        vectors = [vec for _, vec in all_eigenpairs(spec)]
        lams = [lam for lam, _ in all_eigenpairs(spec)]
        for lam, vec in zip(lams, vectors):
            residual = -laplacian(g, vec) - lam * vec
            assert float(np.max(np.abs(residual))) <= 1e-9 * (1.0 + lam)
        gram = np.array([[mu_inner(g, a, b) for b in vectors] for a in vectors])
        assert float(np.max(np.abs(gram - np.eye(len(vectors))))) <= 1e-10


def test_eigenvalues_match_generalized_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(3, 25)))
        spec = compute_spectrum(g)
        mine = np.repeat(spec.distinct_eigenvalues, spec.multiplicities)
        oracle = brute_eigenvalues(g)
        scale = 1.0 + float(np.max(np.abs(oracle)))
        assert float(np.max(np.abs(np.sort(mine) - np.sort(oracle)))) <= 1e-9 * scale


def test_completeness_identity():
    rng = np.random.default_rng(24)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(3, 25)))
        spec = compute_spectrum(g)
        f = rng.standard_normal(g.num_vertices)
        mean = integrate(g, f) / g.volume
        for k in range(spec.num_distinct):
            rebuilt = mean + project_Ek(spec, g, f, k) + project_Ek_perp(spec, g, f, k)
            assert float(np.max(np.abs(rebuilt - f))) <= 1e-10


def test_project_Ek_perp_oracles(p3, p3_spec):
    f = np.array([2.0, -2.0, 0.0])  # = (1,0,-1) + (1,-2,1)
    assert np.allclose(project_Ek_perp(p3_spec, p3, f, 1), [1.0, -2.0, 1.0],
                       atol=1e-12)
    g0 = project_Ek_perp(p3_spec, p3, f, 0)
    assert np.allclose(g0, project_mean_zero(p3, f), atol=1e-13)
    eigvec = np.array([1.0, 0.0, -1.0])
    assert np.allclose(project_Ek_perp(p3_spec, p3, eigvec, 1), 0.0, atol=1e-12)


def test_project_Ek_perp_rejects_bad_k(p3, p3_spec):
    with pytest.raises(ValueError, match="out of range"):
        project_Ek_perp(p3_spec, p3, np.zeros(3), 3)


def test_poincare_constants(k2_spec, p3_spec, k3_spec):
    assert np.isclose(poincare_constant(k2_spec), 0.5, rtol=1e-12)
    assert np.isclose(poincare_constant(p3_spec), 1.0, rtol=1e-12)
    assert np.isclose(poincare_constant(k3_spec), 1.0 / 3.0, rtol=1e-12)


def test_poincare_requires_gap():
    g = Graph(("a",), np.array([2.0]), np.array([1.0]), ())
    spec = compute_spectrum(g)
    assert spec.num_distinct == 1
    with pytest.raises(ValueError, match="single vertex"):
        poincare_constant(spec)


@pytest.mark.parametrize("k", [-1, 3])
def test_eigenvalue_index_out_of_range(p3_spec, k):
    with pytest.raises(IndexError, match="out of range 0..2"):
        p3_spec.eigenvalue(k)


def test_rayleigh_bounds():
    rng = np.random.default_rng(25)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(4, 20)))
        spec = compute_spectrum(g)
        for k in range(spec.num_distinct - 1):
            u = project_Ek_perp(spec, g, rng.standard_normal(g.num_vertices), k)
            mass = integrate(g, u * u)
            if mass < 1e-12:
                continue
            energy = dirichlet_energy(g, u)
            lam = spec.eigenvalue(k + 1)
            assert energy >= lam * mass * (1.0 - 1e-9)


def test_spectral_gap_estimate():
    # for u in E_{k+1}^perp: quad form at lambda_{k+1} dominates a fixed
    # fraction of the Dirichlet energy
    rng = np.random.default_rng(26)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(5, 20)))
        spec = compute_spectrum(g)
        for k in range(spec.num_distinct - 2):
            u = project_Ek_perp(spec, g, rng.standard_normal(g.num_vertices), k + 1)
            energy = dirichlet_energy(g, u)
            if energy < 1e-12:
                continue
            lam1 = spec.eigenvalue(k + 1)
            lam2 = spec.eigenvalue(k + 2)
            lhs = energy - lam1 * integrate(g, u * u)
            rhs = (lam2 - lam1) / lam2 * energy
            assert lhs >= rhs - 1e-9 * (1.0 + energy)


def test_disconnected_graph_is_rejected():
    g = Graph(("a", "b", "c", "d"), np.ones(4), np.ones(4),
              ((0, 1, 1.0), (2, 3, 1.0)))
    with pytest.raises(ValueError, match="disconnected"):
        compute_spectrum(g)


def test_lambda1_within_the_tolerance_of_0_is_not_called_disconnected():
    # K2 with w = 1e-13 is connected, but lambda_1 = 2e-13 lies within
    # 1e-9 (1 + 0) of lambda_0 = 0
    with pytest.raises(ValueError, match=r"lambda_1 = 2(\.0\d*)?e-13 cannot be told "
                                         r"apart from lambda_0 = 0") as info:
        compute_spectrum(complete_graph(2, weight=1e-13))
    assert "disconnected" not in str(info.value)


def test_spectrum_dict_round_trip(p3_spec):
    doc = spectrum_to_dict(p3_spec)
    back = spectrum_from_dict(doc)
    assert np.array_equal(back.distinct_eigenvalues, p3_spec.distinct_eigenvalues)
    assert np.array_equal(back.multiplicities, p3_spec.multiplicities)
    for mine, theirs in zip(back.bases, p3_spec.bases):
        assert np.array_equal(mine, theirs)
    assert np.array_equal(back.row_eigenvalues, p3_spec.row_eigenvalues)


def test_weighted_path_spectrum_against_oracle():
    g = path_graph(4, mu=np.array([1.0, 2.0, 0.5, 1.5]), weight=2.0)
    spec = compute_spectrum(g)
    mine = np.repeat(spec.distinct_eigenvalues, spec.multiplicities)
    oracle = brute_eigenvalues(g)
    assert np.allclose(np.sort(mine), np.sort(oracle), atol=1e-10)


def _mutable_parts(value) -> list:
    """The writable arrays and mutable containers reachable in ``value``
    through tuples."""
    if isinstance(value, np.ndarray):
        return [value] if value.flags.writeable else []
    if isinstance(value, tuple):
        return [part for item in value for part in _mutable_parts(item)]
    return [] if isinstance(value, (int, float)) else [value]


@pytest.mark.parametrize("make", [compute_spectrum], ids=["compute_spectrum"])
def test_spectrum_arrays_are_read_only(make):
    g = complete_graph(4)
    spec = make(g)
    # the memoized object every later caller of the same graph shares
    assert make(g) is spec
    for arr in (spec.distinct_eigenvalues, spec.multiplicities, *spec.bases):
        with pytest.raises(ValueError, match="read-only"):
            arr[-1] = 100
    assert [name for name, value in vars(spec).items() if _mutable_parts(value)] == []


def _stacked(blocks, n):
    return np.vstack(blocks) if blocks else np.empty((0, n))


@pytest.mark.parametrize("make", [
    compute_spectrum,
    lambda g: spectrum_from_dict(spectrum_to_dict(compute_spectrum(g))),
], ids=["compute_spectrum", "spectrum_from_dict"])
@pytest.mark.parametrize("graph", [
    complete_graph(1),
    path_graph(3),
    complete_graph(5),
    random_connected_graph(np.random.default_rng(7), 9, extra_edge_prob=0.3),
], ids=["K1", "P3", "K5", "random9"])
def test_split_is_zero_copy_stacked_bases(make, graph):
    spec = make(graph)
    n, m = graph.num_vertices, spec.num_distinct
    assert spec.rows.shape == (n, n)
    assert not spec.rows.flags.writeable
    for k in range(m):
        ek, perp = spec.split(k)
        for rows in (spec.bases[k], ek, perp):
            # views of the read-only buffer, never copies
            assert not rows.flags.writeable
            assert rows.size == 0 or np.shares_memory(rows, spec.rows)
        assert np.array_equal(ek, _stacked(spec.bases[1:k + 1], n))
        assert np.array_equal(perp, _stacked(spec.bases[k + 1:], n))
    for k in (-1, m):
        with pytest.raises(ValueError, match=rf"k={k} out of range 0\.\.{m - 1}"):
            spec.split(k)


def test_spectrum_rejects_mismatched_multiplicities(p3_spec):
    with pytest.raises(ValueError, match="multiplicities"):
        Spectrum(multiplicities=np.array([1, 1]), rows=p3_spec.rows,
                 row_eigenvalues=p3_spec.row_eigenvalues)


def per_group_spectrum(g):
    """Reference assembly: one dense build, eigenvalues grouped by the
    tolerance rule, then row by row the constant component removed where
    it exceeds 1e-12 sqrt(Vol), the mu-normalization and the canonical
    sign."""
    n = g.num_vertices
    weights = np.zeros((n, n))
    ei, ej, ew = g.edge_arrays
    weights[ei, ej] = ew
    weights[ej, ei] = ew
    lap = np.diag(weights.sum(axis=1)) - weights
    inv_sqrt_mu = 1.0 / np.sqrt(g.mu)
    sym = lap * np.outer(inv_sqrt_mu, inv_sqrt_mu)
    sym = 0.5 * (sym + sym.T)
    evals, evecs = np.linalg.eigh(sym)
    vectors = evecs * inv_sqrt_mu[:, None]
    floor = 8 * n * np.finfo(float).eps * abs(evals[-1])
    groups = [[0]]
    for idx in range(1, n):
        if evals[idx] - evals[idx - 1] <= 1e-9 * (1.0 + abs(evals[idx - 1])) + floor:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    if len(groups[0]) != 1:
        raise ValueError("disconnected")

    def signed(v):
        nonzero = np.flatnonzero(np.abs(v) > 1e-12 * float(np.max(np.abs(v))))
        return -v if len(nonzero) and v[nonzero[0]] < 0 else v

    def normalized(v):
        v = v.copy()
        leak = float(np.dot(v, g.mu))
        if abs(leak) > 1e-12 * np.sqrt(g.volume):
            v -= leak / g.volume
        return v / np.sqrt(float(np.dot(g.mu * v, v)))

    row_eigenvalues = np.concatenate(([0.0], evals[1:]))
    bases = [np.full((1, n), 1.0 / np.sqrt(g.volume))]
    for group in groups[1:]:
        bases.append(np.array([signed(normalized(vectors[:, idx])) for idx in group]))
    distinct = row_eigenvalues[[group[0] for group in groups]]
    return (distinct, np.array([len(gr) for gr in groups]), row_eigenvalues, bases)


def _wide_random_graphs():
    rng = np.random.default_rng(31)
    return [random_connected_graph(rng, n, mu_range=(1e-2, 1e2), w_range=(1e-2, 1e2),
                                   h_range=(1e-2, 1e2), extra_edge_prob=p)
            for n, p in ((3, 0.3), (12, 0.3), (40, 0.1), (90, 0.05))]


@pytest.mark.parametrize("g", [
    *_wide_random_graphs(),
    complete_graph(5),
    complete_graph(9),
    path_graph(7),
    Graph(("a",), np.array([2.0]), np.array([1.0]), ()),
    complete_graph(2, mu=np.array([0.5, 3.0])),
    log_uniform_graph(0, 3),
], ids=["random-n3", "random-n12", "random-n40", "random-n90", "K5", "K9", "P7",
        "n1", "n2", "log-uniform-leak"])
def test_compute_spectrum_bitwise_matches_per_group_assembly(g):
    spec = compute_spectrum(g)
    distinct, multiplicities, row_eigenvalues, bases = per_group_spectrum(g)
    assert np.array_equal(spec.distinct_eigenvalues, distinct)
    assert np.array_equal(spec.multiplicities, multiplicities)
    assert np.array_equal(spec.row_eigenvalues, row_eigenvalues)
    assert len(spec.bases) == len(bases)
    for mine, ref in zip(spec.bases, bases):
        assert mine.shape == ref.shape
        assert np.array_equal(mine, ref)


def test_compute_spectrum_and_reference_reject_disconnected_graph():
    g = Graph(("a", "b", "c"), np.ones(3), np.ones(3), ((0, 1, 1.0),))
    with pytest.raises(ValueError, match="disconnected"):
        per_group_spectrum(g)
    with pytest.raises(ValueError, match="disconnected"):
        compute_spectrum(g)


# ------------------------------------------------------------ the memo

@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(spectral, "_last", None)


@pytest.fixture
def eigh_sizes(monkeypatch):
    """The matrix size of every np.linalg.eigh call the test makes."""
    sizes = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(spectral.np.linalg, "eigh", counting)
    return sizes


def _memo_graph():
    return random_connected_graph(np.random.default_rng(41), 12, extra_edge_prob=0.3)


def test_a_graph_parsed_again_gets_the_same_spectrum_without_eigh(empty_memo, eigh_sizes):
    text = serialize_graph(_memo_graph())
    spec = compute_spectrum(parse_graph(text))
    assert eigh_sizes == [12]
    assert compute_spectrum(parse_graph(text)) is spec
    assert eigh_sizes == [12]


def _one_ulp_up(g, field):
    mu, edges = g.mu.copy(), list(g.edges)
    if field == "mu":
        mu[3] = np.nextafter(mu[3], np.inf)
    else:
        i, j, w = edges[5]
        edges[5] = (i, j, float(np.nextafter(w, np.inf)))
    return Graph(g.vertex_ids, mu, g.h, edges)


@pytest.mark.parametrize("field", ["mu", "w"])
def test_a_one_ulp_change_misses(empty_memo, eigh_sizes, field):
    g = _memo_graph()
    other = _one_ulp_up(g, field)
    fresh = compute_spectrum(other)
    compute_spectrum(g)
    eigh_sizes.clear()
    spec = compute_spectrum(other)
    assert eigh_sizes == [12]
    assert spec is not fresh
    for name in ("multiplicities", "rows", "row_eigenvalues", "distinct_eigenvalues"):
        assert np.array_equal(getattr(spec, name), getattr(fresh, name))


def test_a_graph_that_differs_only_in_h_and_ids_hits(empty_memo, eigh_sizes):
    g = _memo_graph()
    spec = compute_spectrum(g)
    other = Graph([f"v{x}" for x in range(12)], g.mu, 2.0 * g.h, g.edges)
    assert compute_spectrum(other) is spec
    assert eigh_sizes == [12]


@pytest.mark.parametrize("bad, message", [
    (Graph(("a", "b", "c", "d"), np.ones(4), np.ones(4), ((0, 1, 1.0), (2, 3, 1.0))),
     "disconnected"),
    (complete_graph(2, weight=1e-13), "cannot be told apart"),
], ids=["disconnected", "lambda1-at-0"])
def test_a_refused_graph_raises_on_every_call_and_leaves_no_entry(empty_memo, bad, message):
    for before in (None, path_graph(4)):
        if before is not None:
            compute_spectrum(before)
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                compute_spectrum(bad)
            assert spectral._last is None


def test_the_held_spectrum_is_released_before_the_next_eigh(empty_memo, monkeypatch):
    held = weakref.ref(compute_spectrum(path_graph(5)))
    assert held() is not None
    alive = []
    eigh = np.linalg.eigh

    def watching(a, *args, **kwargs):
        alive.append(held() is not None)
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(spectral.np.linalg, "eigh", watching)
    compute_spectrum(complete_graph(5))
    assert alive == [False]


def test_threads_alternating_two_graphs_each_get_their_own_spectrum(empty_memo):
    graphs = (path_graph(6), complete_graph(6))
    want = [compute_spectrum(g).row_eigenvalues for g in graphs]
    wrong, done = [], []

    def ask(offset):
        for i in range(200):
            which = (i + offset) % 2
            if not np.array_equal(compute_spectrum(graphs[which]).row_eigenvalues,
                                  want[which]):
                wrong.append((offset, i))
        done.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1, 2, 3]
    assert wrong == []


# ------------------------------------------------- spectrum properties

def _relabelled(g, perm):
    """``g`` with vertex x renamed perm[x]."""
    inverse = np.argsort(perm)
    return Graph([g.vertex_ids[x] for x in inverse], g.mu[inverse], g.h[inverse],
                 [(int(perm[i]), int(perm[j]), w) for i, j, w in g.edges])


def _mu_distance(mu, a, b):
    return float(np.sqrt(np.dot(mu, (a - b) ** 2)))


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12), data=st.data())
def test_relabelling_permutes_the_spectrum(seed, n, data):
    g = random_connected_graph(np.random.default_rng(seed), n, extra_edge_prob=0.3)
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
    spec = compute_spectrum(g)
    other = _relabelled(g, perm)
    relabelled = compute_spectrum(other)
    # a relabelled graph is its own memo entry, unless nothing moved
    assert (relabelled is spec) == bool(np.all(perm == np.arange(n)))
    lam = spec.row_eigenvalues
    assert np.all(np.abs(relabelled.row_eigenvalues - lam)
                  <= [spec.tolerance(x) for x in lam])
    # Davis-Kahan: a row of a simple eigenvalue is off by at most the
    # eigensolver's backward error over its distance to the rest; the
    # rows moved by at most 0.9 n eps lambda_max / gap on 400 random draws
    backward = 10 * n * spectral._EPS * float(lam[-1])
    for r in range(1, n):
        gap = float(np.min(np.abs(np.delete(lam, r) - lam[r])))
        if gap <= spec.tolerance(lam[r]):
            continue
        mine, theirs = spec.rows[r], relabelled.rows[r][perm]
        sign = 1.0 if np.dot(g.mu * mine, theirs) > 0 else -1.0
        assert _mu_distance(g.mu, mine, sign * theirs) <= backward / gap


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30), log_uniform=st.booleans())
def test_rows_are_mu_orthonormal_and_multiplicities_sum_to_n(seed, n, log_uniform):
    if log_uniform:
        g = log_uniform_graph(seed, n)
    else:
        g = random_connected_graph(np.random.default_rng(seed), n)
    spec = compute_spectrum(g)
    assert int(np.sum(spec.multiplicities)) == n
    gram = (spec.rows * g.mu) @ spec.rows.T
    assert float(np.max(np.abs(gram - np.eye(n)))) <= 1e-10


def _cycle_graph(n, mu, weight):
    return Graph([str(x) for x in range(n)], np.full(n, mu), np.ones(n),
                 [(x, (x + 1) % n, weight) for x in range(n)])


def _closed_form(name, n):
    """Eigenvalues of -Delta at mu = w = 1, ascending, with multiplicity."""
    if name == "path":
        return 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)
    if name == "cycle":
        return np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    return np.array([0.0] + [float(n)] * (n - 1))


@settings(max_examples=60)
@given(name=st.sampled_from(["path", "cycle", "complete"]), n=st.integers(3, 30),
       mu=st.floats(0.1, 10.0), weight=st.floats(0.1, 10.0))
def test_path_cycle_and_complete_graphs_match_their_closed_forms(name, n, mu, weight):
    build = {"path": path_graph, "complete": complete_graph}.get(name)
    g = _cycle_graph(n, mu, weight) if build is None else build(n, mu=mu, weight=weight)
    spec = compute_spectrum(g)
    want = weight / mu * _closed_form(name, n)
    assert np.all(np.abs(spec.row_eigenvalues - want)
                  <= [spec.tolerance(x) for x in want])
    distinct, counts = np.unique(np.round(want / want[-1], 9), return_counts=True)
    assert spec.multiplicities.tolist() == counts.tolist()
