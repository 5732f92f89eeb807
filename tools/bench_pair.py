"""Run the benchmark in pairs, parent commit against the working tree.

    python3 tools/bench_pair.py PARENT_REV --label L --seeds 1-10

For each seed and each workload of BENCHMARK.json, this runs
``perfbench/run.py --trace 0`` once on the committed files of PARENT_REV
(exported with ``git archive`` into a temporary directory) and once in
the working tree. Which side runs first alternates from pair to pair.
It writes ``BENCH_<L>.json`` at the repo root: every run's end-to-end
metrics with ``failed``/``attempted``, and per workload each side's
median and quartiles and the number of pairs the working tree won.
"""

from __future__ import annotations

import argparse
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


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "failed": result["failed"], "attempted": result["attempted"],
            "correct": result["correct"]}


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
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(roots[side], workload, seed, seconds)
                runs[workload].append(run)
                print(f"{workload} seed {seed} done", file=sys.stderr)
    for workload in workloads:
        doc["workloads"][workload] = {"summary": summarize(runs[workload], better),
                                      "runs": runs[workload]}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
