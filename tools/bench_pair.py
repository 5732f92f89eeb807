"""Run the benchmark in pairs, parent commit against the working tree.

    python3 tools/bench_pair.py PARENT_REV --label L --seeds 1-10

PARENT_REV's committed files are exported with ``git archive`` into a
temporary directory. In that checkout and in the working tree, one
script answers every pool question that ``perfbench/make_reference.py``
records, as the benchmark does, and records each answer's gate outcome
(``certified``, against an empty reference) and every report field:
each SolveReport field and verify check (or ``UnboundedRegimeError``),
each probe's verdict, direction and samples, and each spectrum
question's lambda_1 and Poincare constant. One ``perfbench/run.py
--trace 1`` run of seed 1 per workload gives each side's work per
answer. Then, for each seed (``--seeds 1`` is the quickest run) and
each workload of BENCHMARK.json, ``perfbench/run.py --trace 0`` runs
once on each side, the first side alternating from pair to pair.

It writes ``BENCH_<L>.json`` at the repo root: ``answers_identical``
(every field of every answer is identical), ``answers_differ`` (the
``group/key`` of each answer that differs), ``answer_fields`` (per
group, ``identical`` answers ``of`` how many, and for each field that
moved, on how many answers it ``differs`` and its ``largest_relative``
change; also printed to stderr), ``code_lines`` (per side, the code
lines of each ``src/kwgraph/*.py`` module and their total: non-blank
lines that are neither comments nor docstrings), ``work`` and
``work_identical``, every run's end-to-end metrics with
``failed``/``attempted``, and per workload each side's median and
quartiles, the number of pairs the working tree won, each side's pooled
``failed``/``attempted`` and their ``share``, and the seeds whose failed
share differs between the sides (also printed to stderr). When the
pooled shares differ although every seed's share is equal, it prints
that the gap comes from pass counts alone: runs end after whole passes,
so the pooled share weighs each seed by the number of passes its side
ran.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import math
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,7-9' -> a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def code_lines(source: str) -> int:
    """Non-blank lines of ``source`` that are neither comments nor docstrings."""
    tree = ast.parse(source)
    docstrings: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#")
               and number not in docstrings)


def package_code_lines(root: Path) -> dict[str, int]:
    """code_lines of each ``src/kwgraph/*.py`` module, and their ``total``."""
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted((root / "src" / "kwgraph").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def run_script(root: Path, *args: str) -> str:
    """stdout of ``python3 ARGS`` run in ``root``; exits on failure."""
    cmd = [sys.executable, *args]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


# run in each checkout: prints {group: {question key: {field: value}}} as
# JSON, whose floats round-trip exactly
DUMP = """
import json, sys
sys.path.insert(0, "perfbench")
import benchenv
benchenv.prepare()
import kwgraph as kw
import workloads as wl

def solve(q, texts):
    try:
        g, report, checks = wl.answer_solve(q, texts[q["graph"]])
    except kw.UnboundedRegimeError:
        return {"certified": False, "status": "UnboundedRegimeError"}
    failed = [c.name for c in checks if not c.passed]
    return {"certified": wl.judge_report(g, report, failed, {}).certified,
            "status": report.status.value, "iterations": report.iterations,
            "regime": [report.regime.tag.value, report.regime.subspace_index],
            "minimizer": report.minimizer.tolist(), "objective": report.objective,
            "grad_sup": report.grad_sup, "residual_sup": report.residual_sup,
            "xi": report.xi, "t_multipliers": report.t_multipliers,
            "alpha": report.alpha, "beta": report.beta, "trace": report.trace,
            "checks": [[c.name, c.passed, c.value, c.limit] for c in checks]}

def probe(q, texts):
    g = kw.parse_graph(texts[q["graph"]])
    probe = kw.probe_divergence(g, kw.compute_spectrum(g), q["alpha"], q["beta"], q["k"])
    return {"certified": wl.judge_probe(g, probe, q, {}).certified,
            "verdict": probe.verdict.value, "direction": probe.direction.tolist(),
            "samples": probe.samples}

def spectrum(q, texts):
    sp = kw.compute_spectrum(kw.parse_graph(texts[q["graph"]]))
    l1 = sp.eigenvalue(1)
    return {"certified": wl._lambda_matches(l1, q["lambda1"]), "lambda1": l1,
            "poincare": kw.poincare_constant(sp)}

def answer(q, texts):
    if q["group"] == "spectrum":
        return spectrum(q, texts)
    return (probe if q["group"].startswith("probe") else solve)(q, texts)

out, texts = {"solve-ladder": {}, "spectral-large": {}, "cli": {}}, {}
for n, size in wl.SOLVE_SIZES.items():
    for j in range(size):
        for regime in wl.SOLVE_REGIMES:
            q = wl.solve_question(n, j, regime, texts)
            out["solve-ladder"][q["key"]] = answer(q, texts)
for n, size in wl.SPECTRAL_POOL.items():
    for j in range(size):
        for q in wl.spectral_questions(n, j, texts):
            out["spectral-large"][q["key"]] = answer(q, texts)
for j in range(wl.CLI_POOL):
    for q in wl.cli_questions(j, texts):
        # the CLI verify re-certifies the solve report of the same graph,
        # so answer() takes it as that solve
        out["cli"][q["key"]] = answer(q, texts)
json.dump(out, sys.stdout)
"""


def largest_relative(a, b) -> float:
    """Largest |a - b| / |a| over matching numbers (int or float, not
    bool) of two values of the same shape; inf where a list length or a
    non-number differs, or where a is 0 and b is not."""
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((largest_relative(x, y) for x, y in zip(a, b)), default=0.0)
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        return 0.0 if a == b else abs(a - b) / abs(a) if a else math.inf
    return 0.0 if a == b else math.inf


def compare_answers(parent: dict, change: dict) -> tuple[list[str], dict]:
    """The ``group/key`` of every answer that differs between two dumps,
    and per group how many answers are identical of how many, and for
    each field that moved, on how many answers and by how much at most
    (relative to the parent's value). An answer or field that only one
    side has counts as moved."""
    differ: list[str] = []
    fields: dict = {}
    for group in sorted(parent.keys() | change.keys()):
        before, after = parent.get(group, {}), change.get(group, {})
        keys = sorted(before.keys() | after.keys())
        differing = [key for key in keys if before.get(key) != after.get(key)]
        moved: dict[str, list[float]] = {}
        for key in differing:
            a, b = before.get(key, {}), after.get(key, {})
            for name in a.keys() | b.keys():
                if name not in a or name not in b or a[name] != b[name]:
                    moved.setdefault(name, []).append(largest_relative(a.get(name),
                                                                       b.get(name)))
        differ.extend(f"{group}/{key}" for key in differing)
        fields[group] = {"identical": len(keys) - len(differing), "of": len(keys),
                         "moved": {name: {"differs": len(changes),
                                          "largest_relative": max(changes)}
                                   for name, changes in sorted(moved.items())}}
    return differ, fields


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    stdout = run_script(root, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0")
    result = json.loads(stdout.strip().splitlines()[-1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "failed": result["failed"], "attempted": result["attempted"],
            "correct": result["correct"]}


def work_counts(root: Path, workload: str, seconds: float) -> dict:
    """Work per answer of one traced run of seed 1: minimize iterations,
    the calls of every traced function made inside answers (set-up
    excluded), and the count of each minimize status."""
    stdout = run_script(root, "perfbench/run.py", "--workload", workload, "--seed", "1",
                        "--seconds", str(seconds), "--trace", "1")
    result = json.loads(stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    answers = result["attempted"]
    with np.load(root / "perfbench" / "out" / f"spans-{workload}.npz") as spans:
        counts = np.bincount(spans["name"][spans["answer"] >= 0], minlength=len(spans["names"]))
        calls = dict(zip(spans["names"].tolist(), counts.tolist()))
    traced = [k.removesuffix(".calls") for k in metrics if k.endswith(".calls")]
    return {
        "answers": answers,
        "iterations": metrics["solver.minimize.iterations"] / answers,
        "calls": {name: calls.get(name, 0) / answers for name in traced},
        "status": {k.removeprefix("solver.minimize.status."): int(v)
                   for k, v in metrics.items() if k.startswith("solver.minimize.status.")},
    }


def per_answer(work: dict) -> tuple:
    """What ``work_counts`` measured, with status counts as shares of the
    answers, so that runs of different lengths compare."""
    return (work["iterations"], work["calls"],
            {status: count / work["answers"] for status, count in work["status"].items()})


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    out: dict = {}
    for side in SIDES:
        out[side] = {}
        for name in better:
            q1, median, q3 = np.percentile([r[side]["metrics"][name] for r in runs], [25, 50, 75])
            out[side][name] = {"median": median, "q1": q1, "q3": q3}
    out["change_wins"] = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        out["change_wins"][name] = sum(
            sign * (r["parent"]["metrics"][name] - r["change"]["metrics"][name]) > 0 for r in runs)
    out["pairs"] = len(runs)
    out["failed"] = {side: {key: sum(r[side][key] for r in runs)
                            for key in ("failed", "attempted")} for side in SIDES}
    for pooled in out["failed"].values():
        pooled["share"] = pooled["failed"] / pooled["attempted"] if pooled["attempted"] else 0.0
    # runs end after whole passes, so compare shares, not counts
    out["failed_share_differs"] = [
        r["seed"] for r in runs
        if r["parent"]["failed"] * r["change"]["attempted"]
        != r["change"]["failed"] * r["parent"]["attempted"]]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    doc: dict = {
        "parent": git("rev-parse", args.parent_rev),
        "change": {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "seeds": args.seeds,
        "seconds": seconds,
        "machine": {"cpus": len(os.sched_getaffinity(0)), "arch": platform.machine(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "workloads": {},
    }
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory() as tmp:
        parent_root = Path(tmp) / "parent"
        export(doc["parent"], parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        answers = {side: json.loads(run_script(roots[side], "-c", DUMP)) for side in SIDES}
        doc["code_lines"] = {side: package_code_lines(roots[side]) for side in SIDES}
        doc["answers_differ"], doc["answer_fields"] = compare_answers(answers["parent"],
                                                                      answers["change"])
        doc["answers_identical"] = not doc["answers_differ"]
        print(json.dumps(doc["answer_fields"], indent=1), file=sys.stderr)
        doc["work"] = {side: {w: work_counts(roots[side], w, seconds) for w in workloads}
                       for side in SIDES}
        doc["work_identical"] = {w: per_answer(doc["work"]["parent"][w])
                                 == per_answer(doc["work"]["change"][w]) for w in workloads}
        if not all(doc["work_identical"].values()):
            print(f"work per answer differs: {doc['work_identical']}", file=sys.stderr)
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(roots[side], workload, seed, seconds)
                runs[workload].append(run)
                print(f"{workload} seed {seed} done", file=sys.stderr)
    for workload in workloads:
        summary = summarize(runs[workload], better)
        shares = {side: summary["failed"][side]["share"] for side in SIDES}
        if summary["failed_share_differs"]:
            print(f"{workload}: failed share differs on seeds "
                  f"{summary['failed_share_differs']}", file=sys.stderr)
        elif shares["parent"] != shares["change"]:
            print(f"{workload}: pooled failed share {shares['parent']:.6f} (parent) against "
                  f"{shares['change']:.6f} (change), with the same share on every seed: "
                  "the gap comes from pass counts alone", file=sys.stderr)
        doc["workloads"][workload] = {"summary": summary, "runs": runs[workload]}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
