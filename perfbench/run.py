"""Time to a certified kwgraph answer, end to end and per layer.

    python3 perfbench/run.py --workload solve-ladder --seed 1 --seconds 10 --trace 0

Workloads: solve-ladder and spectral-large (see workloads.py for what
each stresses and why). Load is a closed loop with one client:
each question is asked only after the previous answer is checked. A run
measures for at least ``--seconds`` and at least 100 answers, so that 10
answers lie beyond the reported 90th percentile.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` is a separate
run that rebinds kwgraph's public functions to time every call into each
layer, times the CLI's start-up and subcommands in child processes, and
prints the per-layer metrics. Every run writes a result file
with its run record under perfbench/out/. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import benchenv

benchenv.prepare()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402


import kwgraph  # noqa: E402
import stats  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402

HERE = Path(__file__).resolve().parent
MIN_ANSWERS = stats.min_samples()
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CLI_REPEATS = 3
# every 5th traced answer is also timed untraced; 5 is coprime to the 4
# questions per graph and the 7 regimes, so the pairs cover every kind
OVERHEAD_EVERY = 5
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "answer_ms_p50": "ms",
    "answer_ms_p90": "ms",
    "answers_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


@dataclass(frozen=True)
class Record:
    question: dict
    ms: float
    outcome: Outcome


def check_kwgraph_source() -> None:
    origin = Path(kwgraph.__file__).resolve()
    if benchenv.SRC.resolve() not in origin.parents:
        sys.exit(f"error: kwgraph imported from {origin}, not from {benchenv.SRC}")


def run_record(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((benchenv.SRC / "kwgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=benchenv.ROOT,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit or None,
        "source_sha256": digest.hexdigest(),
        "nproc": benchenv.NPROC,
        "blas_threads": benchenv.BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "machine": platform.machine(),
    }


def child(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          **kwargs)


def timed_setups(workload: str, seed: int, path: Path) -> list[float]:
    """Wall time of whole set-up processes: start, import, inputs, write."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = child([sys.executable, str(HERE / "make_inputs.py"), workload, str(seed),
                      str(path)])
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed:\n{proc.stderr}")
    return times


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(import kwgraph.cli, outermost scipy imports) in ms, from the
    cumulative column of ``python -X importtime``."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    # the log is post-order; reversed, every parent precedes its children
    total_us = scipy_us = 0
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name == "kwgraph.cli":
            total_us = cumulative
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_us += cumulative
        stack.append((depth, name))
    return total_us / 1e3, scipy_us / 1e3


def import_breakdown() -> dict[str, float]:
    floor, total, scipy = [], [], []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        child([sys.executable, "-c", "pass"], check=True)
        floor.append((perf_counter() - t0) * 1e3)
        proc = child([sys.executable, "-X", "importtime", "-c", "import kwgraph.cli"],
                     check=True)
        t, s = parse_importtime(proc.stderr)
        total.append(t)
        scipy.append(s)
    return {"cli.interpreter_ms": statistics.median(floor),
            "cli.import_ms": statistics.median(total),
            "cli.import_scipy_ms": statistics.median(scipy)}


def make_answer(workload: str, inputs: dict, reference: dict):
    """Return answer(q) -> judge(): the timed part, then the untimed gate."""
    texts = inputs["graphs"]
    run = {"solve-ladder": workloads.run_solve, "spectral-large": workloads.run_spectral}
    return lambda q: run[workload](q, texts, reference.get(q["key"], {}))


def cli_calls(seed: int, reference: dict) -> tuple[dict[str, float], list[Record]]:
    """Median wall ms per CLI subcommand over CLI_REPEATS round trips on
    one small pool graph, with every call put through its gate."""
    texts: dict[str, str] = {}
    questions = workloads.cli_questions(seed % workloads.CLI_POOL, texts)
    workdir = benchenv.OUT / "cli-work"
    workloads.write_cli_graphs(workdir, texts)

    def answer(q):
        proc = workloads.run_cli(q, workdir)
        return lambda: workloads.judge_cli(q, proc, texts, reference.get(q["key"], {}))

    records = []
    for _ in range(CLI_REPEATS):
        for q in questions:
            seconds, judge = ask(answer, q)
            records.append(Record(q, seconds * 1e3, verdict(q, judge, reference)))
    ms = {f"cli.{kind}.ms": statistics.median(r.ms for r in records if r.question["group"] == kind)
          for kind in workloads.CLI_KINDS}
    return ms, records


def ask(answer, q: dict):
    """Time one answer; return (seconds, judge). Errors become failures."""
    t0 = perf_counter()
    try:
        judge = answer(q)
    except Exception as exc:  # an answer that raises is a failed answer, not a crash
        err = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        judge = lambda: Outcome(False, False, f"raised {err}")  # noqa: E731
    return perf_counter() - t0, judge


def rounds(questions: list[dict], start: float, seconds: float):
    """Whole passes over the question list, until at least MIN_ANSWERS
    answers and ``seconds`` have passed, so every run keeps the mix."""
    asked = 0
    while asked < MIN_ANSWERS or perf_counter() - start < seconds:
        yield from questions
        asked += len(questions)


def verdict(q: dict, judge, reference: dict) -> Outcome:
    try:
        outcome = judge()
    except Exception as exc:  # a malformed output fails the gate
        outcome = Outcome(False, False, f"gate raised {type(exc).__name__}: {exc}")
    if q["key"] not in reference:
        outcome = replace(outcome, correct=False, reason=f"no reference; {outcome.reason}")
    return outcome


def untraced_run(args, reference: dict) -> tuple[list[Record], dict, dict]:
    reference = reference[args.workload]
    inputs_path = benchenv.OUT / f"inputs-{args.workload}-{args.seed}.json"
    setups = timed_setups(args.workload, args.seed, inputs_path)
    inputs = json.loads(inputs_path.read_text(encoding="utf-8"))
    questions = inputs["questions"]
    answer = make_answer(args.workload, inputs, reference)
    ask(answer, questions[0])[1]()  # warm-up: lazy imports, BLAS threads
    records = []
    start = perf_counter()
    for q in rounds(questions, start, args.seconds):
        seconds, judge = ask(answer, q)
        records.append(Record(q, seconds * 1e3, verdict(q, judge, reference)))
    wall = perf_counter() - start
    times = [r.ms for r in records]
    metrics = {
        "answer_ms_p50": stats.percentile(times, 0.5),
        "answer_ms_p90": stats.percentile(times, stats.P90),
        "answers_per_s": len(records) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    extra = {"setup_s_samples": setups, "wall_s": wall}
    return records, metrics, extra


def traced_run(args, reference: dict) -> tuple[list[Record], dict, dict]:
    tracer = tr.Tracer()
    with tr.rebound(tracer), tracer.span(tr.SETUP):
        inputs = workloads.INPUTS[args.workload](args.seed)
    questions = inputs["questions"]
    metrics = dict.fromkeys(tr.per_layer_names(), 0.0)
    metrics.update(import_breakdown())
    cli_ms, cli_records = cli_calls(args.seed, reference["cli"])
    metrics.update(cli_ms)
    reference = reference[args.workload]
    answer = make_answer(args.workload, inputs, reference)
    ask(answer, questions[0])[1]()
    records = []
    paired_untraced = paired_traced = 0.0
    for i, q in enumerate(rounds(questions, perf_counter(), args.seconds)):
        if i % OVERHEAD_EVERY == 0:
            seconds, _ = ask(answer, q)
            paired_untraced += seconds
        tracer.answer_id = i
        with tr.rebound(tracer), tracer.span(tr.ANSWER):
            seconds, judge = ask(answer, q)
        tracer.answer_id = tr.NO_PARENT
        if i % OVERHEAD_EVERY == 0:
            paired_traced += seconds
        records.append(Record(q, seconds * 1e3, verdict(q, judge, reference)))
    tracer.save(benchenv.OUT / f"spans-{args.workload}.npz")
    summary = tr.summarize(tracer)
    metrics.update({k: v for k, v in {**summary, **tracer.counts}.items() if k in metrics})
    metrics["trace.overhead_frac"] = paired_traced / paired_untraced - 1.0
    metrics["failed_frac"] = stats.failed_frac([r.outcome.certified for r in records])[0]
    extra = {"spans": len(tracer.start), "inclusive_ms": tr.inclusive_ms(tracer),
             "cli_calls": answers_doc(cli_records)}
    return records, metrics, extra


def answers_doc(records: list[Record]) -> list[dict]:
    return [{"key": r.question["key"], "ms": r.ms, "certified": r.outcome.certified,
             "correct": r.outcome.correct, "reason": r.outcome.reason} for r in records]


def report(args, records: list[Record], metrics: dict, extra: dict) -> dict:
    frac, failed, attempted = stats.failed_frac([r.outcome.certified for r in records])
    side = extra.get("cli_calls", [])
    correct = all(r.outcome.correct for r in records) and all(c["correct"] for c in side)
    units = END_TO_END_UNITS if not args.trace else {m: per_layer_unit(m) for m in metrics}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"answers {attempted}  correct {correct}")
    if not args.trace:
        times = [r.ms for r in records]
        beyond = stats.count_beyond(times, metrics["answer_ms_p90"])
        print(f"  answer_ms_p50  {metrics['answer_ms_p50']:10.3f} ms   (n={attempted})")
        print(f"  answer_ms_p90  {metrics['answer_ms_p90']:10.3f} ms   "
              f"(n={attempted}, {beyond} beyond)")
        print(f"  answers_per_s  {metrics['answers_per_s']:10.3f} 1/s")
        print(f"  failed_frac    {frac:10.3f} ratio ({failed} failed / {attempted} attempted)")
        print(f"  peak_rss_mb    {metrics['peak_rss_mb']:10.1f} MB")
        print(f"  setup_s        {metrics['setup_s']:10.3f} s    "
              f"(median of {SETUP_REPEATS} set-ups)")
    else:
        for name, value in metrics.items():
            print(f"  {name:48s} {value:14.4f} {units[name]}")
        inclusive = extra["inclusive_ms"]
        if inclusive.get("functional.hessian_quadratic_form"):
            share = inclusive["functional.hessian_quadratic_form"] / inclusive["solver.minimize"]
            print(f"  solver.minimize inclusive {inclusive['solver.minimize']:.1f} ms, "
                  f"{share:.1%} of it under functional.hessian_quadratic_form")
    by_group: dict[str, Counter] = defaultdict(Counter)
    for r in records:
        by_group[r.question["group"]]["attempted"] += 1
        if not r.outcome.certified:
            by_group[r.question["group"]][r.outcome.reason] += 1
    for group, counts in by_group.items():
        n = counts.pop("attempted")
        if counts:
            print(f"  failed {group}: {sum(counts.values())}/{n}  {dict(counts)}")
    for c in answers_doc(records) + side:
        if not c["correct"]:
            print(f"  INCORRECT {c['key']}: {c['reason']}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_kwgraph_source()
    benchenv.OUT.mkdir(parents=True, exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    run = traced_run if args.trace else untraced_run
    records, metrics, extra = run(args, reference)
    result = report(args, records, metrics, extra)
    doc = {"run": run_record(args), **result, "extra": extra, "answers": answers_doc(records)}
    path = benchenv.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
