"""Record the reference answer to every question any seed can ask.

    python3 perfbench/make_reference.py > perfbench/reference.json

For each pool question it stores whether the answer was certified, the
solver status or probe verdict, and the objective. run.py compares every
answer against this record: an objective above its reference, or a
question certified here that no longer certifies, is a correctness miss.
Re-record only when a change is meant to alter the answers.
"""

import benchenv

benchenv.prepare()

import json  # noqa: E402
import sys  # noqa: E402

import kwgraph as kw  # noqa: E402
import workloads as wl  # noqa: E402


def record_solve(q: dict, texts: dict) -> dict:
    try:
        g, report, checks = wl.answer_solve(q, texts[q["graph"]])
    except kw.UnboundedRegimeError:
        return {"certified": False, "status": "UnboundedRegimeError"}
    failed = [c.name for c in checks if not c.passed]
    outcome = wl.judge_report(g, report, failed, {})
    return {"certified": outcome.certified, "status": report.status.value,
            "objective": report.objective, "iterations": report.iterations}


def record_probe(q: dict, texts: dict) -> dict:
    g = kw.parse_graph(texts[q["graph"]])
    probe = kw.probe_divergence(g, kw.compute_spectrum(g), q["alpha"], q["beta"], q["k"])
    return {"certified": wl.judge_probe(g, probe, q, {}).certified,
            "verdict": probe.verdict.value}


def record_spectrum(q: dict, texts: dict) -> dict:
    g = kw.parse_graph(texts[q["graph"]])
    l1 = kw.compute_spectrum(g).eigenvalue(1)
    return {"certified": wl._lambda_matches(l1, q["lambda1"]), "lambda1": l1}


def record(q: dict, texts: dict) -> dict:
    kind = q["group"]
    if kind == "spectrum":
        return record_spectrum(q, texts)
    if kind.startswith("probe"):
        return record_probe(q, texts)
    return record_solve(q, texts)


def main() -> int:
    out: dict[str, dict] = {"solve-ladder": {}, "spectral-large": {}, "cli": {}}
    texts: dict[str, str] = {}
    for n, size in wl.SOLVE_SIZES.items():
        for j in range(size):
            for regime in wl.SOLVE_REGIMES:
                q = wl.solve_question(n, j, regime, texts)
                out["solve-ladder"][q["key"]] = record(q, texts)
            print(f"solve-ladder n={n} g{j}", file=sys.stderr)
    for n, size in wl.SPECTRAL_POOL.items():
        for j in range(size):
            for q in wl.spectral_questions(n, j, texts):
                out["spectral-large"][q["key"]] = record(q, texts)
            print(f"spectral-large n={n} g{j}", file=sys.stderr)
    for j in range(wl.CLI_POOL):
        for q in wl.cli_questions(j, texts):
            # the CLI verify re-certifies the solve report of the same graph
            solve = dict(q, group="solve") if q["group"] == "verify" else q
            out["cli"][q["key"]] = record(solve, texts)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
