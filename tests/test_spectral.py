from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.linalg

from kwgraph import (
    Graph,
    Spectrum,
    complete_graph,
    compute_spectrum,
    dirichlet_energy,
    integrate,
    laplacian,
    mu_inner,
    path_graph,
    poincare_constant,
    project_Ek,
    project_Ek_perp,
    project_mean_zero,
    random_connected_graph,
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


@pytest.mark.parametrize("make", [compute_spectrum], ids=["compute_spectrum"])
def test_spectrum_arrays_are_read_only(make):
    spec = make(complete_graph(4))
    for arr in (spec.distinct_eigenvalues, spec.multiplicities, *spec.bases):
        with pytest.raises(ValueError, match="read-only"):
            arr[-1] = 100


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
