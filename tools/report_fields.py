"""Compare every report field of the benchmark's solve and probe
answers, parent commit against the working tree.

    python3 tools/report_fields.py PARENT_REV

On each side (PARENT_REV exported with ``git archive``, and the working
tree) it answers every solve-ladder pool question, every spectral-large
eigenfunction question and every spectral-large probe question as the
benchmark does, with one BLAS thread. It records each SolveReport field
and verify check, and each ProbeReport's verdict, direction and
samples. It prints, per group (solve-ladder, eigenfunction, probe), how
many reports are identical in every field, and for each field that
differs, on how many reports and by how much at most (relative to the
parent's value). Exits 1 when a report differs.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from bench_pair import ROOT, export, git, run_script

# run in each checkout: prints {group: {question key: {field: value}}}
# as JSON, whose floats round-trip exactly
DUMP = """
import json, sys
sys.path.insert(0, "perfbench")
import benchenv
benchenv.prepare()
import kwgraph as kw
import workloads as wl

def fields(report, checks):
    return {"status": report.status.value, "iterations": report.iterations,
            "regime": [report.regime.tag.value, report.regime.subspace_index],
            "minimizer": report.minimizer.tolist(), "objective": report.objective,
            "grad_sup": report.grad_sup, "residual_sup": report.residual_sup,
            "xi": report.xi, "t_multipliers": report.t_multipliers,
            "alpha": report.alpha, "beta": report.beta, "trace": report.trace,
            "checks": [[c.name, c.passed, c.value, c.limit] for c in checks]}

def probe_fields(q, text):
    g = kw.parse_graph(text)
    sp = kw.compute_spectrum(g)
    probe = kw.probe_divergence(g, sp, q["alpha"], q["beta"], q["k"])
    return {"verdict": probe.verdict.value, "direction": probe.direction.tolist(),
            "samples": probe.samples}

out, texts = {"solve-ladder": {}, "eigenfunction": {}, "probe": {}}, {}
for n, size in wl.SOLVE_SIZES.items():
    for j in range(size):
        for regime in wl.SOLVE_REGIMES:
            q = wl.solve_question(n, j, regime, texts)
            out["solve-ladder"][q["key"]] = fields(*wl.answer_solve(q, texts[q["graph"]])[1:])
for n, size in wl.SPECTRAL_POOL.items():
    for j in range(size):
        for q in wl.spectral_questions(n, j, texts):
            if q["group"] == "eigenfunction":
                out["eigenfunction"][q["key"]] = fields(
                    *wl.answer_solve(q, texts[q["graph"]])[1:])
            elif q["group"].startswith("probe"):
                out["probe"][q["key"]] = probe_fields(q, texts[q["graph"]])
json.dump(out, sys.stdout)
"""


def largest_relative(a, b) -> float:
    """Largest |a - b| / |a| over matching numbers of two equal-shape
    values; inf where a non-number differs."""
    if isinstance(a, list):
        if len(a) != len(b):
            return float("inf")
        return max((largest_relative(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, float) and isinstance(b, float):
        return 0.0 if a == b else abs(a - b) / abs(a) if a else float("inf")
    return 0.0 if a == b else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        parent_root = Path(tmp) / "parent"
        export(git("rev-parse", args.parent_rev), parent_root)
        parent, change = (json.loads(run_script(root, "-c", DUMP))
                          for root in (parent_root, ROOT))
    differs = False
    for group, before in parent.items():
        after = change[group]
        if before.keys() != after.keys():
            sys.exit(f"error: the two sides answer different {group} questions")
        same = sum(before[k] == after[k] for k in before)
        print(f"{group}: {same} of {len(before)} reports identical in every field")
        for field in next(iter(before.values())):
            moved = [largest_relative(before[k][field], after[k][field]) for k in before
                     if before[k][field] != after[k][field]]
            if moved:
                print(f"  {field}: differs on {len(moved)}, largest relative {max(moved):.3g}")
        differs = differs or same < len(before)
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main())
