"""Spans around calls into kwgraph's public functions, for the traced run.

Every span has a name, a start, an end, the span that caused it and the
answer it belongs to. Spans are kept in memory as flat integer arrays
and written out when the run ends. A span's self time is its duration
minus the durations of its direct children.

``rebound`` replaces each traced function object wherever a kwgraph
module holds it (the package namespace, the defining module, and every
module that imported it by name), so calls one kwgraph module makes into
another are traced too. The originals are put back on exit.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# module -> public functions traced; the layers and functions the
# per-layer metrics name
TRACED = {
    "functional": ("eval_J", "hessian_quadratic_form", "heu_weights", "el_gradient"),
    "calculus": ("laplacian", "dirichlet_energy"),
    "solver": ("minimize", "probe_divergence", "classify_regime"),
    "spectral": ("compute_spectrum",),
    "graphs": ("parse_graph", "validate", "serialize_graph"),
    "builders": ("random_connected_graph",),
    "verify": ("verify_solution",),
}
STATUSES = ("Converged", "MaxIters", "Unbounded")
VERDICTS = ("unbounded", "inconclusive")
CLI_SUBCOMMANDS = ("solve", "verify", "probe", "spectrum")
ANSWER = "answer"
SETUP = "setup"
NO_PARENT = -1


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run reports, in order."""
    names = []
    for module, functions in TRACED.items():
        for fn in functions:
            names += [f"{module}.{fn}.calls", f"{module}.{fn}.self_ms"]
    names += ["solver.minimize.iterations"]
    names += [f"solver.minimize.status.{s}" for s in STATUSES]
    names += [f"solver.probe_divergence.verdict.{v}" for v in VERDICTS]
    names += ["verify.verify_solution.checks_failed"]
    names += ["cli.interpreter_ms", "cli.import_ms", "cli.import_scipy_ms"]
    names += [f"cli.{sub}.ms" for sub in CLI_SUBCOMMANDS]
    names += ["trace.overhead_frac", "trace.coverage_frac", "failed_frac"]
    return names


class Tracer:
    """In-memory span store. ``answer_id`` tags every span opened while
    it is set; spans nest through an explicit stack."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.answer = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.answer_id = NO_PARENT
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.answer.append(self.answer_id)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def arrays(self) -> dict[str, np.ndarray]:
        return {field: np.frombuffer(getattr(self, field), dtype=np.int64)
                for field in ("answer", "name", "parent", "start", "end")}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its children."""
    has_parent = parent >= 0
    child_total = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=len(duration))
    return duration - child_total


def summarize(tracer: Tracer) -> dict[str, float]:
    """calls and self_ms per span name, plus the share of answer time
    that kwgraph spans account for (``trace.coverage_frac``)."""
    a = tracer.arrays()
    duration = (a["end"] - a["start"]).astype(float)
    own = self_times(a["parent"], duration)
    out: dict[str, float] = {}
    for i, name in enumerate(tracer.names):
        mask = a["name"] == i
        out[f"{name}.calls"] = int(np.count_nonzero(mask))
        out[f"{name}.self_ms"] = float(own[mask].sum()) / 1e6
    if ANSWER in tracer._name_ids:
        roots = a["name"] == tracer._name_ids[ANSWER]
        in_answers = a["answer"] >= 0
        answer_ns = float(duration[roots & in_answers].sum())
        inner_ns = float(own[in_answers & ~roots].sum())
        out["trace.coverage_frac"] = inner_ns / answer_ns if answer_ns else 0.0
    return out


def inclusive_ms(tracer: Tracer) -> dict[str, float]:
    """Total span time per name, children included (no span here recurses)."""
    a = tracer.arrays()
    duration = (a["end"] - a["start"]).astype(float)
    totals = np.bincount(a["name"], weights=duration, minlength=len(tracer.names))
    return {name: float(totals[i]) / 1e6 for i, name in enumerate(tracer.names)}


def _observe_minimize(report, counts: Counter) -> None:
    counts["solver.minimize.iterations"] += report.iterations
    counts[f"solver.minimize.status.{report.status.value}"] += 1


def _observe_probe(report, counts: Counter) -> None:
    counts[f"solver.probe_divergence.verdict.{report.verdict.value}"] += 1


def _observe_verify(checks, counts: Counter) -> None:
    counts["verify.verify_solution.checks_failed"] += sum(not c.passed for c in checks)


OBSERVERS = {
    "solver.minimize": _observe_minimize,
    "solver.probe_divergence": _observe_probe,
    "verify.verify_solution": _observe_verify,
}


def _wrap(fn, name: str, tracer: Tracer):
    name_id = tracer.name_id(name)
    observe = OBSERVERS.get(name)

    def traced(*args, **kwargs):
        i = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if observe is not None:
            observe(result, tracer.counts)
        return result

    traced.__wrapped__ = fn
    return traced


@contextmanager
def rebound(tracer: Tracer):
    """Trace every function in TRACED, wherever a kwgraph module holds it."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "kwgraph" or name.startswith("kwgraph."))]
    replacement = {}
    for module, functions in TRACED.items():
        owner = sys.modules[f"kwgraph.{module}"]
        for fn_name in functions:
            fn = getattr(owner, fn_name)
            replacement[id(fn)] = (fn, _wrap(fn, f"{module}.{fn_name}", tracer))
    patched = []
    for m in modules:
        for attr, value in list(vars(m).items()):
            hit = replacement.get(id(value))
            if hit is not None and hit[0] is value:
                patched.append((m, attr, value))
                setattr(m, attr, hit[1])
    try:
        yield
    finally:
        for m, attr, value in patched:
            setattr(m, attr, value)
