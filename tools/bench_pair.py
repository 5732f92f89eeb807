"""Run the benchmark in pairs, parent commit against the working tree.

    python3 tools/bench_pair.py PARENT_REV --label L --seeds 1-10

First it runs ``perfbench/make_reference.py`` once on the committed
files of PARENT_REV (exported with ``git archive`` into a temporary
directory) and once in the working tree, and records whether the two
printed byte-identical answers, with the keys of the answers that differ
(also printed to stderr when there are any). It records each side's
work per answer from one ``perfbench/run.py --trace 1`` run of seed 1
per workload, and whether the two sides did the same work. Then, for
each seed and each workload of BENCHMARK.json, it runs
``perfbench/run.py --trace 0`` once on each side. Which side runs first
alternates from pair to pair. It writes ``BENCH_<L>.json`` at the repo
root: ``answers_identical``, ``answers_differ``, ``code_lines`` (per
side, the code lines of each ``src/kwgraph/*.py`` module and their
total: non-blank lines that are neither comments nor docstrings),
``work`` and ``work_identical``, every run's end-to-end metrics with
``failed``/``attempted``, and per workload each side's median and
quartiles, the number of pairs the working tree won, each side's pooled
``failed``/``attempted`` and their ``share``, and the seeds whose failed
share differs between the sides (also printed to stderr when there are
any). When the pooled shares differ although every seed's share is
equal, it prints that the gap comes from pass counts alone: runs end
after whole passes, so the pooled share weighs each seed by the number
of passes its side ran.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
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


def answers_differ(parent: str, change: str) -> list[str]:
    """The section/key of every answer that differs between two
    ``make_reference.py`` outputs."""
    a, b = json.loads(parent), json.loads(change)
    return sorted(f"{part}/{key}" for part in a.keys() | b.keys()
                  for key in a.get(part, {}).keys() | b.get(part, {}).keys()
                  if a.get(part, {}).get(key) != b.get(part, {}).get(key))


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
        answers = {side: run_script(roots[side], "perfbench/make_reference.py")
                   for side in SIDES}
        doc["code_lines"] = {side: package_code_lines(roots[side]) for side in SIDES}
        doc["answers_identical"] = answers["parent"] == answers["change"]
        doc["answers_differ"] = answers_differ(answers["parent"], answers["change"])
        if doc["answers_differ"]:
            print(f"answers differ: {doc['answers_differ']}", file=sys.stderr)
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
