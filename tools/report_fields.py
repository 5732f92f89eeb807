"""Compare every SolveReport field of the benchmark's solve answers,
parent commit against the working tree.

    python3 tools/report_fields.py PARENT_REV

On each side (PARENT_REV exported with ``git archive``, and the working
tree) it answers every solve-ladder pool question and every
spectral-large eigenfunction question as the benchmark does, with one
BLAS thread, and records each report field and verify check. It prints,
per group, how many reports are identical in every field, and for each
field that differs, on how many reports and by how much at most
(relative to the parent's value). Exits 1 when a report differs.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from bench_pair import ROOT, export, git, run_script

# run in each checkout: prints {question key: {field: value}} as JSON,
# whose floats round-trip exactly
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

out, texts = {}, {}
questions = [wl.solve_question(n, j, regime, texts) for n, size in wl.SOLVE_SIZES.items()
             for j in range(size) for regime in wl.SOLVE_REGIMES]
questions += [q for n, size in wl.SPECTRAL_POOL.items() for j in range(size)
              for q in wl.spectral_questions(n, j, texts) if q["group"] == "eigenfunction"]
for q in questions:
    g, report, checks = wl.answer_solve(q, texts[q["graph"]])
    out[q["key"]] = fields(report, checks)
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
    if parent.keys() != change.keys():
        sys.exit("error: the two sides answer different questions")
    differs = False
    for group in ("solve-ladder", "eigenfunction"):
        keys = [k for k in parent if (k.endswith("/eigenfunction")) == (group == "eigenfunction")]
        same = sum(parent[k] == change[k] for k in keys)
        print(f"{group}: {same} of {len(keys)} reports identical in every field")
        for field in parent[keys[0]]:
            moved = [largest_relative(parent[k][field], change[k][field]) for k in keys
                     if parent[k][field] != change[k][field]]
            if moved:
                print(f"  {field}: differs on {len(moved)}, largest relative {max(moved):.3g}")
        differs = differs or same < len(keys)
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main())
