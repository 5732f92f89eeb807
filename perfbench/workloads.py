"""The workloads and the traced run's CLI calls: seeded question lists,
the answer each question needs, and the gate that decides whether the
answer is certified.

An *answer* takes one question ``(graph, alpha, beta, k)`` from JSON
text to a certified conclusion. Questions are drawn from fixed pools of
graphs, so that ``reference.json`` can hold the reference objective,
status or verdict of every question any seed can ask. The seed picks
which pool graphs a run uses, in which order, and which regime each gets.

kwgraph sees only the generated JSON text (or argv and files, for the
CLI calls of the traced run). Timed code calls kwgraph through the package
attributes (``kw.minimize``), so the traced run can rebind them; gate
code holds the original function objects and runs outside the timing.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import kwgraph as kw
from kwgraph.functional import eval_J as _eval_J

VERIFY_TOL = 1e-8
# sweep scripts place alpha from the eigenvalues; these come from the
# benchmark's own eigvalsh, so kwgraph's spectrum is checked against them
LAMBDA_RTOL = 1e-9
CLI_TIMEOUT_S = 60


@dataclass(frozen=True)
class Outcome:
    """How one answer ended. ``certified``: a checked conclusion was
    reached. ``correct``: no output was wrong, and nothing certified in
    the reference failed to certify now."""

    certified: bool
    correct: bool
    reason: str


def eigenvalues(g) -> np.ndarray:
    """Sorted eigenvalues of -Delta in the mu-inner product (the
    benchmark's own computation, independent of kwgraph.spectral)."""
    n = g.num_vertices
    ei, ej, ew = g.edge_arrays
    weights = np.zeros((n, n))
    weights[ei, ej] = ew
    weights[ej, ei] = ew
    lap = np.diag(weights.sum(axis=1)) - weights
    s = 1.0 / np.sqrt(g.mu)
    return np.linalg.eigvalsh(lap * np.outer(s, s))


def pool_graph(n: int, j: int, extra_edge_prob: float):
    """Graph j of the size-n pool; the same on every run and seed."""
    rng = np.random.default_rng([20230818, n, j])
    return kw.random_connected_graph(rng, n, extra_edge_prob=extra_edge_prob)


def interleave(counts: dict[int, int]) -> list[int]:
    """Spread ``counts[n]`` copies of each n evenly over one sequence,
    so that every prefix of it keeps about the same size mix."""
    slots = sorted(((i + 0.5) / c, n) for n, c in counts.items() for i in range(c))
    return [n for _, n in slots]


def _pick(rng: np.random.Generator, pool_size: int, count: int) -> list[int]:
    return [int(j) for j in rng.permutation(pool_size)[:count]]


# ---------------------------------------------------------------- solve-ladder
# Why: minimize (its polarized Hessian) takes well over 90% of each
# answer, so solver speed-ups show here first. One question per graph,
# so inputs share no work. Near resonance returns MaxIters on most pool
# graphs (a known defect), which keeps failed_frac above zero.

# answers per run, each on its own pool graph; every seed asks each
# (size, regime) pair equally often and differs in order and pairing.
# The n=40 answers (plus n=20 near resonance) are the slowest fifth, so
# p90 falls inside that group, and p50 inside the n=20 answers.
SOLVE_SIZES = {10: 49, 20: 70, 40: 21}
SOLVE_EDGE_PROB = 0.1

# name -> (alpha from (lambda_1, lambda_2), beta, k)
SOLVE_REGIMES = {
    "below-gap-beta+5": (lambda l1, l2: 0.5 * l1, 5.0, 0),
    "below-gap-beta-5": (lambda l1, l2: 0.5 * l1, -5.0, 0),
    "next-perp": (lambda l1, l2: l1, -5.0, 0),
    "k1-below-l2": (lambda l1, l2: 0.5 * (l1 + l2), 5.0, 1),
    "near-resonance": (lambda l1, l2: l1 - 1e-8, 1.0, 0),
    "beta+500": (lambda l1, l2: 0.5 * l1, 500.0, 0),
    "beta-500": (lambda l1, l2: 0.5 * l1, -500.0, 0),
}


def solve_question(n: int, j: int, regime: str, graph_texts: dict) -> dict:
    gid = f"n{n}/g{j}"
    g = pool_graph(n, j, SOLVE_EDGE_PROB)
    if gid not in graph_texts:
        graph_texts[gid] = kw.serialize_graph(g)
    lam = eigenvalues(g)
    alpha_of, beta, k = SOLVE_REGIMES[regime]
    return {"key": f"{gid}/{regime}", "group": regime, "graph": gid,
            "alpha": alpha_of(lam[1], lam[2]), "beta": beta, "k": k}


def solve_ladder_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    names = list(SOLVE_REGIMES)
    graphs = {n: _pick(rng, count, count) for n, count in SOLVE_SIZES.items()}
    offset = {n: int(rng.integers(len(names))) for n in SOLVE_SIZES}
    used = dict.fromkeys(SOLVE_SIZES, 0)
    texts: dict[str, str] = {}
    questions = []
    for n in interleave(SOLVE_SIZES):
        c = used[n]
        used[n] += 1
        j = graphs[n][c]
        questions.append(solve_question(n, j, names[(c + offset[n]) % len(names)], texts))
    return {"graphs": texts, "questions": questions}


def answer_solve(q: dict, text: str):
    g = kw.parse_graph(text)
    violations = kw.validate(g)
    if violations:
        raise ValueError("; ".join(violations))
    sp = kw.compute_spectrum(g)
    kw.classify_regime(sp, q["alpha"], q["beta"], q["k"])
    report = kw.minimize(g, sp, q["alpha"], q["beta"], q["k"])
    checks = kw.verify_solution(g, sp, report, VERIFY_TOL)
    return g, report, checks


def judge_report(g, report, failed_checks: list[str], ref: dict) -> Outcome:
    """Gate for a minimizer report: status, verify_solution at 1e-8, the
    objective re-evaluated through eval_J, and no worse than reference."""
    objective = report.objective
    reeval = _eval_J(g, report.minimizer, report.alpha, report.beta)
    tol = 1e-8 * (1.0 + abs(objective))
    was_certified = ref.get("certified", False)
    if report.status is not kw.SolveStatus.CONVERGED:
        return Outcome(False, not was_certified, f"status={report.status.value}")
    if failed_checks:
        return Outcome(False, False, "verify failed: " + ",".join(failed_checks))
    if abs(reeval - objective) > tol:
        return Outcome(False, False, f"objective {objective!r} re-evaluates to {reeval!r}")
    ref_obj = ref.get("objective")
    if ref_obj is not None and objective > ref_obj + 1e-8 * (1.0 + abs(ref_obj)):
        return Outcome(False, False, f"objective {objective!r} above reference {ref_obj!r}")
    return Outcome(True, True, "ok")


def run_solve(q: dict, texts: dict, ref: dict):
    g, report, checks = answer_solve(q, texts[q["graph"]])
    return lambda: judge_report(g, report, [c.name for c in checks if not c.passed], ref)


# -------------------------------------------------------------- spectral-large
# Why: no question iterates the minimizer. The cost sits in parsing
# (graphs), the dense eigh and its memory (spectral), and the O(n^2)
# random builder in setup_s (builders). Each graph gets four questions,
# which re-parse the JSON, so questions on one graph could share work.
# The probe at the gap is inconclusive on half the pool graphs (a known
# defect).

# per round of 25 visits of 4 answers: p50 falls inside the n=640 answers
# (36..84 of 100) and p90 inside the n=1500 ones (84..100)
SPECTRAL_VISITS = {160: 9, 640: 12, 1500: 4}
SPECTRAL_GRAPHS = {160: 3, 640: 2, 1500: 1}    # distinct graphs per run
SPECTRAL_POOL = {160: 8, 640: 6, 1500: 4}
SPECTRAL_DEGREE = 10.0
SPECTRAL_KINDS = ("probe-above-gap", "probe-at-gap-k1", "eigenfunction", "spectrum")


def spectral_edge_prob(n: int) -> float:
    # a spanning tree gives degree ~2; extra edges add p (n - 1)
    return (SPECTRAL_DEGREE - 2.0) / (n - 1)


def spectral_questions(n: int, j: int, graph_texts: dict) -> list[dict]:
    gid = f"n{n}/g{j}"
    g = pool_graph(n, j, spectral_edge_prob(n))
    if gid not in graph_texts:
        graph_texts[gid] = kw.serialize_graph(g)
    lam = eigenvalues(g)
    l1, l2 = float(lam[1]), float(lam[2])
    params = {
        "probe-above-gap": (1.5 * l1, 1.0, 0),
        "probe-at-gap-k1": (l2, 2.0, 1),
        "eigenfunction": (l1, 0.0, 0),
        "spectrum": (None, None, None),
    }
    return [{"key": f"{gid}/{kind}", "group": kind, "graph": gid, "lambda1": l1,
             "alpha": params[kind][0], "beta": params[kind][1], "k": params[kind][2]}
            for kind in SPECTRAL_KINDS]


def spectral_large_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    graphs = {n: _pick(rng, SPECTRAL_POOL[n], SPECTRAL_GRAPHS[n]) for n in SPECTRAL_VISITS}
    used = dict.fromkeys(SPECTRAL_VISITS, 0)
    texts: dict[str, str] = {}
    per_graph: dict[tuple[int, int], list[dict]] = {}
    questions = []
    for n in interleave(SPECTRAL_VISITS):
        j = graphs[n][used[n] % len(graphs[n])]
        used[n] += 1
        if (n, j) not in per_graph:
            per_graph[n, j] = spectral_questions(n, j, texts)
        questions.extend(per_graph[n, j])
    return {"graphs": texts, "questions": questions}


def _lambda_matches(got: float, want: float) -> bool:
    return abs(got - want) <= LAMBDA_RTOL * (1.0 + abs(want))


def run_spectral(q: dict, texts: dict, ref: dict):
    g = kw.parse_graph(texts[q["graph"]])
    violations = kw.validate(g)
    if violations:
        raise ValueError("; ".join(violations))
    sp = kw.compute_spectrum(g)
    kind = q["group"]
    if kind == "spectrum":
        cp = kw.poincare_constant(sp)
        l1 = sp.eigenvalue(1)

        def judge():
            if not _lambda_matches(l1, q["lambda1"]):
                return Outcome(False, False, f"lambda_1 {l1!r} != {q['lambda1']!r}")
            if not math.isclose(cp * l1, 1.0, rel_tol=1e-12):
                return Outcome(False, False, f"Poincare constant {cp!r} != 1/lambda_1")
            return Outcome(True, True, "ok")
        return judge
    kw.classify_regime(sp, q["alpha"], q["beta"], q["k"])
    if kind == "eigenfunction":
        report = kw.minimize(g, sp, q["alpha"], q["beta"], q["k"])
        checks = kw.verify_solution(g, sp, report, VERIFY_TOL)
        return lambda: judge_report(g, report, [c.name for c in checks if not c.passed], ref)
    probe = kw.probe_divergence(g, sp, q["alpha"], q["beta"], q["k"])
    return lambda: judge_probe(g, probe, q, ref)


def judge_probe(g, probe, q: dict, ref: dict) -> Outcome:
    """An ``unbounded`` verdict is certified when its deepest sample
    re-evaluates through eval_J below the probe's certification depth."""
    if probe.verdict is not kw.ProbeVerdict.UNBOUNDED:
        return Outcome(False, not ref.get("certified", False),
                       f"verdict={probe.verdict.value}")
    t, value = probe.samples[-1]
    reeval = _eval_J(g, t * probe.direction, q["alpha"], q["beta"])
    if not (reeval < kw.solver.DIVERGENCE_DEPTH
            and abs(reeval - value) <= 1e-8 * (1.0 + abs(value))):
        return Outcome(False, False, f"ray sample {value!r} re-evaluates to {reeval!r}")
    return Outcome(True, True, "ok")


# ----------------------------------------------------------------------- cli
# Not a workload of its own: 100 CLI calls at ~0.6 s each make a run of
# over a minute on top of the two in-process workloads. The traced runs
# time a few calls of each subcommand instead, where interpreter start and
# imports (scipy among them) dominate.

CLI_N = 10
CLI_POOL = 8
CLI_EDGE_PROB = 0.1
CLI_KINDS = ("solve", "verify", "probe", "spectrum")


def cli_questions(j: int, graph_texts: dict) -> list[dict]:
    """solve --json, verify on its report, probe and spectrum --json for
    pool graph j, in the order a user would run them."""
    gid = f"n{CLI_N}/g{j}"
    g = pool_graph(CLI_N, j, CLI_EDGE_PROB)
    graph_texts[gid] = kw.serialize_graph(g)
    l1 = float(eigenvalues(g)[1])
    params = {"solve": (0.5 * l1, 5.0), "verify": (0.5 * l1, 5.0),
              "probe": (1.5 * l1, 1.0), "spectrum": (None, None)}
    return [{"key": f"{gid}/{kind}", "group": kind, "graph": gid, "lambda1": l1,
             "alpha": params[kind][0], "beta": params[kind][1], "k": 0}
            for kind in CLI_KINDS]


def cli_argv(q: dict) -> list[str]:
    graph = q["graph"].replace("/", "-") + ".json"
    report = graph.replace(".json", ".report.json")
    kind = q["group"]
    if kind == "solve":
        return ["solve", graph, "--alpha", repr(q["alpha"]), "--beta", repr(q["beta"]),
                "--json", report]
    if kind == "verify":
        return ["verify", report]
    if kind == "probe":
        return ["probe", graph, "--alpha", repr(q["alpha"]), "--beta", repr(q["beta"])]
    return ["spectrum", graph, "--json"]


def write_cli_graphs(workdir: Path, texts: dict) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for gid, text in texts.items():
        (workdir / (gid.replace("/", "-") + ".json")).write_text(text, encoding="utf-8")


def run_cli(q: dict, workdir: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "kwgraph.cli", *cli_argv(q)],
                          cwd=workdir, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)


def judge_cli(q: dict, proc: subprocess.CompletedProcess, texts: dict, ref: dict) -> Outcome:
    """Gate for one CLI call: exit code, stdout parses as JSON, and the
    document carries a certified conclusion."""
    was_certified = ref.get("certified", False)
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return Outcome(False, False, f"exit {proc.returncode}, stdout is not JSON")
    kind = q["group"]
    if kind == "probe" and doc.get("verdict") != "unbounded":
        return Outcome(False, not was_certified, f"verdict={doc.get('verdict')}")
    if kind == "solve" and doc.get("status") != "Converged":
        return Outcome(False, not was_certified, f"status={doc.get('status')}")
    if proc.returncode != 0:
        return Outcome(False, False, f"exit {proc.returncode}")
    if kind == "verify" and doc.get("all_passed") is not True:
        return Outcome(False, False, "verify did not pass")
    if kind == "solve":
        g = kw.parse_graph(texts[q["graph"]])
        u = np.array([doc["u"][vid] for vid in g.vertex_ids])
        objective = doc["objective"]
        reeval = _eval_J(g, u, q["alpha"], q["beta"])
        if abs(reeval - objective) > 1e-8 * (1.0 + abs(objective)):
            return Outcome(False, False, f"objective {objective!r} re-evaluates to {reeval!r}")
        ref_obj = ref.get("objective")
        if ref_obj is not None and objective > ref_obj + 1e-8 * (1.0 + abs(ref_obj)):
            return Outcome(False, False, f"objective {objective!r} above reference {ref_obj!r}")
    if kind == "spectrum":
        l1 = doc["distinct_eigenvalues"][1]
        if not _lambda_matches(l1, q["lambda1"]):
            return Outcome(False, False, f"lambda_1 {l1!r} != {q['lambda1']!r}")
        if not math.isclose(doc["poincare_constant"] * l1, 1.0, rel_tol=1e-12):
            return Outcome(False, False, "Poincare constant != 1/lambda_1")
    return Outcome(True, True, "ok")


INPUTS = {
    "solve-ladder": solve_ladder_inputs,
    "spectral-large": spectral_large_inputs,
}
