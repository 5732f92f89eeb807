"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL
line (visible under ``pytest -s``) before asserting. Tolerances are
stated inline and are not adjustable from the command line.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

from kwgraph import (
    RegimeTag,
    SolveStatus,
    ProbeVerdict,
    complete_graph,
    compute_spectrum,
    dirichlet_energy,
    el_gradient,
    eval_J,
    gamma,
    heu_lower_bound,
    hessian_quadratic_form,
    integrate,
    laplacian,
    minimize,
    mu_inner,
    multipliers,
    path_graph,
    poincare_constant,
    probe_divergence,
    project_Ek,
    project_Ek_perp,
    project_mean_zero,
    random_connected_graph,
    serialize_graph,
)
from kwgraph.cli import main as cli_main


def _gate(num: int, name: str, failures: list) -> None:
    ok = not failures
    print(f"acceptance {num}/8 {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{name}: {len(failures)} failure(s); first: {failures[:3]}"


def _graph_pool(seed: int, count: int, lo: int, hi: int):
    rng = np.random.default_rng(seed)
    return [random_connected_graph(rng, int(rng.integers(lo, hi + 1)))
            for _ in range(count)], rng


# -------------------------------------------------------------- 1


def test_spectral_certificates():
    """Eigen-residuals, mu-orthonormality, and completeness on named
    and random graphs up to 40 vertices."""
    failures = []
    graphs = [complete_graph(2), path_graph(3), complete_graph(3)]
    pool, rng = _graph_pool(101, 50, 2, 40)
    graphs += pool
    for idx, g in enumerate(graphs):
        spec = compute_spectrum(g)
        rows = np.vstack(spec.bases)
        gram = (rows * g.mu) @ rows.T
        ortho = float(np.max(np.abs(gram - np.eye(rows.shape[0]))))
        if ortho > 1e-10:
            failures.append((idx, "orthonormality", ortho))
        for s, lam in enumerate(spec.distinct_eigenvalues):
            for vec in spec.bases[s]:
                res = float(np.max(np.abs(-laplacian(g, vec) - lam * vec)))
                if res > 1e-9 * (1.0 + lam):
                    failures.append((idx, "eigen_residual", s, res))
        u = rng.standard_normal(g.num_vertices)
        mean = integrate(g, u) / g.volume
        for k in range(spec.num_distinct):
            # constant part + E_k part + complement-in-H part is everything
            recon = mean + project_Ek(spec, g, u, k) + project_Ek_perp(spec, g, u, k)
            gap = float(np.max(np.abs(recon - u)))
            if gap > 1e-10:
                failures.append((idx, "completeness", k, gap))
    _gate(1, "spectral certificates (53 graphs)", failures)


# -------------------------------------------------------------- 2


def test_calculus_identities():
    """Green identity, Poincare inequality with eigenfunction equality,
    and the sup-norm bound through mu_min."""
    failures = []
    pool, rng = _graph_pool(102, 25, 2, 30)
    specs = [compute_spectrum(g) for g in pool]
    for trial in range(1000):
        g = pool[trial % len(pool)]
        u = rng.standard_normal(g.num_vertices)
        v = rng.standard_normal(g.num_vertices)
        lhs = mu_inner(g, -laplacian(g, u), v)
        rhs = integrate(g, gamma(g, u, v))
        ei, ej, ew = g.edge_arrays
        scale = 1.0 + float(np.sum(np.abs(ew * (u[ej] - u[ei]) * (v[ej] - v[ei]))))
        if abs(lhs - rhs) > 1e-12 * scale:
            failures.append(("green", trial, lhs - rhs))
    for idx, (g, spec) in enumerate(zip(pool, specs)):
        cp = poincare_constant(spec)
        for _ in range(10):
            u = rng.standard_normal(g.num_vertices)
            w = project_mean_zero(g, u)
            lhs = integrate(g, w * w)
            rhs = cp * dirichlet_energy(g, u)
            if lhs > rhs * (1.0 + 1e-9) + 1e-9:
                failures.append(("poincare", idx, lhs - rhs))
        eig = spec.bases[1][0]
        lhs = integrate(g, eig * eig)
        rhs = cp * dirichlet_energy(g, eig)
        if abs(lhs - rhs) > 1e-9 * (1.0 + abs(lhs)):
            failures.append(("poincare_equality", idx, lhs - rhs))
    for trial in range(1000):
        g = pool[trial % len(pool)]
        u = project_mean_zero(g, 10.0 * rng.standard_normal(g.num_vertices))
        lhs = float(np.max(np.abs(u)))
        rhs = float(np.sqrt(integrate(g, u * u) / g.mu_min))
        if lhs > rhs * (1.0 + 1e-12):
            failures.append(("sup_norm", trial, lhs - rhs))
    _gate(2, "calculus identities (1000 + 1000 draws)", failures)


# -------------------------------------------------------------- 3


def test_derivatives_match_finite_differences():
    """el_gradient against central differences of J, and the Hessian
    quadratic form against second differences."""
    failures = []
    pool, rng = _graph_pool(103, 20, 2, 12)
    specs = [compute_spectrum(g) for g in pool]
    for trial in range(1000):
        g = pool[trial % len(pool)]
        spec = specs[trial % len(pool)]
        alpha = float(rng.uniform(-2.0, 2.0))
        beta = float(rng.uniform(-3.0, 3.0))
        k = int(rng.integers(0, min(3, spec.num_distinct - 1)))
        u = rng.standard_normal(g.num_vertices)
        phi = project_Ek_perp(spec, g, rng.standard_normal(g.num_vertices), k)
        grad = el_gradient(g, spec, u, alpha, beta, k)
        analytic = mu_inner(g, grad, phi)
        eps = 1e-6
        fd = (eval_J(g, u + eps * phi, alpha, beta)
              - eval_J(g, u - eps * phi, alpha, beta)) / (2.0 * eps)
        if abs(analytic - fd) > 1e-6 * max(1.0, abs(fd)):
            failures.append(("gradient", trial, analytic - fd))
    for trial in range(1000):
        g = pool[trial % len(pool)]
        alpha = float(rng.uniform(-2.0, 2.0))
        beta = float(rng.uniform(-3.0, 3.0))
        u = rng.standard_normal(g.num_vertices)
        phi = rng.standard_normal(g.num_vertices)
        q = hessian_quadratic_form(g, u, alpha, beta, phi)
        # J can reach ~100 here, so smaller steps lose the second
        # difference to cancellation; 1e-3 keeps both error terms small
        eps = 1e-3
        sd = (eval_J(g, u + eps * phi, alpha, beta)
              - 2.0 * eval_J(g, u, alpha, beta)
              + eval_J(g, u - eps * phi, alpha, beta)) / (eps * eps)
        if abs(q - sd) > 1e-5 * max(1.0, abs(q)):
            failures.append(("hessian", trial, q - sd))
    _gate(3, "derivative checks vs finite differences (2000 draws)", failures)


# -------------------------------------------------------------- 4


def _line_minimum(g, beta: float):
    """Ground truth for the two-vertex clique: scan J(t, -t) on
    [-50, 50], then golden-section the bracketing interval."""

    def F(t):
        return eval_J(g, np.array([t, -t]), 0.0, beta)

    ts = np.linspace(-50.0, 50.0, 4001)
    vals = np.array([F(t) for t in ts])
    i = int(np.argmin(vals))
    a = ts[max(i - 1, 0)]
    b = ts[min(i + 1, len(ts) - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = F(c), F(d)
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = F(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = F(d)
    t_star = 0.5 * (a + b)
    return t_star, F(t_star)


def test_two_vertex_ground_truth():
    """Solver output against an independent one-dimensional scan plus
    golden-section refinement, for a spread of beta."""
    failures = []
    g = complete_graph(2)
    spec = compute_spectrum(g)
    for beta in (-8.0, -3.0, 0.0, 2.0, 8.0, 50.0):
        t_star, J_star = _line_minimum(g, beta)
        report = minimize(g, spec, 0.0, beta)
        if report.status is not SolveStatus.CONVERGED:
            failures.append((beta, "status", report.status))
            continue
        if abs(report.objective - J_star) > 1e-8:
            failures.append((beta, "objective", report.objective - J_star))
        if abs(abs(report.minimizer[0]) - abs(t_star)) > 1e-6:
            failures.append((beta, "t", report.minimizer[0], t_star))
    _gate(4, "one-dimensional ground truth (6 beta values)", failures)


# -------------------------------------------------------------- 5


def test_random_graph_solves():
    """Converged solves with small residuals and exact subspace
    membership across random graphs, k in {0, 1}, five beta values."""
    failures = []
    pool, rng = _graph_pool(105, 20, 4, 12)
    for idx, g in enumerate(pool):
        spec = compute_spectrum(g)
        for k in (0, 1):
            if k > spec.num_distinct - 2:
                failures.append((idx, k, "missing eigenvalue"))
                continue
            gap = spec.eigenvalue(k + 1)
            alpha = float(rng.uniform(-1.0, 0.9 * gap))
            for beta in (-5.0, -1.0, 0.0, 1.0, 5.0):
                report = minimize(g, spec, alpha, beta, k=k)
                if report.status is not SolveStatus.CONVERGED:
                    failures.append((idx, k, beta, "status", report.status))
                    continue
                if report.residual_sup > 1e-8:
                    failures.append((idx, k, beta, "residual", report.residual_sup))
                u = report.minimizer
                membership = abs(integrate(g, u)) / g.volume
                for s in range(1, k + 1):
                    for vec in spec.bases[s]:
                        membership = max(membership, abs(mu_inner(g, u, vec)))
                if membership > 1e-10:
                    failures.append((idx, k, beta, "membership", membership))
    _gate(5, "random-graph solves (20 graphs x k x 5 beta)", failures)


# -------------------------------------------------------------- 6


def _regime_family():
    rng = np.random.default_rng(106)
    r6 = random_connected_graph(rng, 6)
    cases = []
    for g in (complete_graph(2), path_graph(3), complete_graph(3), r6):
        spec = compute_spectrum(g)
        cases.append((g, spec, 0))
        if spec.num_distinct >= 3:
            cases.append((g, spec, 1))
    return cases


def test_regime_trichotomy():
    """Behavior at and above the spectral gap: certified divergence
    above, and the three-way split exactly at the eigenvalue."""
    failures = []
    for case_idx, (g, spec, k) in enumerate(_regime_family()):
        lam = spec.eigenvalue(k + 1)
        for beta in (-1.0, 0.0, 1.0):
            probe = probe_divergence(g, spec, lam + 1.0, beta, k=k)
            if probe.verdict is not ProbeVerdict.UNBOUNDED:
                failures.append((case_idx, "above-gap verdict", beta))
            elif probe.samples[-1][1] >= -1e6:
                failures.append((case_idx, "above-gap depth", beta,
                                 probe.samples[-1][1]))
        probe = probe_divergence(g, spec, lam, 1.0, k=k)
        if probe.verdict is not ProbeVerdict.UNBOUNDED:
            failures.append((case_idx, "at-gap positive beta verdict"))
        report = minimize(g, spec, lam, 0.0, k=k)
        if report.regime.tag is not RegimeTag.EIGENFUNCTION_SOLUTION:
            failures.append((case_idx, "at-gap zero beta regime"))
        else:
            u = report.minimizer
            res = float(np.max(np.abs(-laplacian(g, u) - lam * u)))
            if res > 1e-9:
                failures.append((case_idx, "eigen equation residual", res))
        report = minimize(g, spec, lam, -1.0, k=k)
        if report.regime.tag is not RegimeTag.MINIMIZER_IN_NEXT_PERP:
            failures.append((case_idx, "at-gap negative beta regime"))
        elif report.status is not SolveStatus.CONVERGED:
            failures.append((case_idx, "next-perp status", report.status))
        else:
            if report.residual_sup > 1e-8:
                failures.append((case_idx, "next-perp residual",
                                 report.residual_sup))
            xi, t = multipliers(g, spec, report.minimizer, report.beta,
                                report.regime.subspace_index)
            if abs(xi - report.xi) > 1e-10:
                failures.append((case_idx, "xi recompute", xi - report.xi))
            if len(t) != len(report.t_multipliers) or any(
                    (a[0], a[1]) != (b[0], b[1]) or abs(a[2] - b[2]) > 1e-10
                    for a, b in zip(t, report.t_multipliers)):
                failures.append((case_idx, "t recompute"))
    _gate(6, "regime trichotomy at and above the gap (6 cases)", failures)


# -------------------------------------------------------------- 7


def test_exponential_integral_lower_bound():
    """The constructive lower bound on integral(h e^u) holds on 10^4
    mean-zero functions over random graphs with random positive h."""
    failures = []
    pool, rng = _graph_pool(107, 20, 2, 25)
    specs = [compute_spectrum(g) for g in pool]
    for trial in range(10_000):
        g = pool[trial % len(pool)]
        spec = specs[trial % len(pool)]
        scale = 10.0 ** rng.uniform(-1.0, 2.0)
        u = project_mean_zero(g, scale * rng.standard_normal(g.num_vertices))
        bound = heu_lower_bound(g, spec, u)
        if not bound.holds:
            failures.append((trial, bound.lhs, bound.rhs))
    _gate(7, "exponential-integral lower bound (10^4 draws)", failures)


# -------------------------------------------------------------- 8


def _silent_cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            return cli_main(list(argv))


def test_solve_reports_round_trip_through_verify(tmp_path):
    """Every solve report passes independent verification; every
    one-coordinate corruption of size 1e-2 is rejected."""
    failures = []
    rng = np.random.default_rng(108)
    graphs = {
        "k2": complete_graph(2),
        "p3": path_graph(3),
        "k3": complete_graph(3),
        "r6": random_connected_graph(rng, 6),
        "r8": random_connected_graph(rng, 8),
    }
    configs = []
    for name, g in graphs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_graph(g), encoding="utf-8")
        spec = compute_spectrum(g)
        lam1 = spec.eigenvalue(1)
        configs += [
            (name, path, 0.0, 4.0, 0),
            (name, path, 0.0, -2.0, 0),
            (name, path, 0.5 * lam1, 1.0, 0),
            (name, path, lam1, 0.0, 0),
            (name, path, lam1, -1.0, 0),
        ]
    emitted = 0
    for name, graph_path, alpha, beta, k in configs:
        report_path = tmp_path / f"report-{emitted}.json"
        code = _silent_cli("solve", str(graph_path),
                           "--alpha", repr(alpha), "--beta", repr(beta),
                           "--k", str(k), "--json", str(report_path))
        if code != 0:
            failures.append((name, alpha, beta, "solve exit", code))
            continue
        code = _silent_cli("verify", str(report_path))
        if code != 0:
            failures.append((name, alpha, beta, "verify exit", code))
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        for vid in doc["u"]:
            corrupted = json.loads(report_path.read_text(encoding="utf-8"))
            corrupted["u"][vid] += 1e-2
            bad_path = tmp_path / f"bad-{emitted}-{vid}.json"
            bad_path.write_text(json.dumps(corrupted), encoding="utf-8")
            code = _silent_cli("verify", str(bad_path))
            if code != 5:
                failures.append((name, alpha, beta, vid, "corrupt exit", code))
        emitted += 1
    if emitted != len(configs):
        failures.append(("emitted", emitted, "of", len(configs)))
    _gate(8, "verification round trip (25 reports, per-coordinate corruption)",
          failures)
