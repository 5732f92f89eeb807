"""Command line front end: spectrum | solve | probe | verify.

All structured output is JSON on stdout; human diagnostics go to
stderr. Identical inputs and flags produce byte-identical stdout.

Exit codes:
    0  success
    1  input validation or flag error
    2  solve requested in an unbounded regime
    3  solver failed to converge
    4  probe inconclusive
    5  verification checks failed
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .graphs import Graph, _as_number, _json_object, parse_graph, validate
from .solver import (
    ProbeVerdict,
    SolveStatus,
    UnboundedRegimeError,
    minimize,
    probe_divergence,
)
from .spectral import Spectrum, compute_spectrum, poincare_constant, spectrum_to_dict
from .verify import verify_candidate

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNBOUNDED = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INCONCLUSIVE = 4
EXIT_FAILED_CHECKS = 5


class CliInputError(Exception):
    """Bad flags, unreadable files, or graphs failing validation."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-3" and "-inf" as flags (before Python 3.13),
        # so "--beta -1e-3" would lack its value; take every float literal
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    # argparse exits with code 2 by default, which collides with the
    # unbounded-regime code; route all flag errors through exit 1
    def error(self, message):
        raise CliInputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kwgraph",
                     description="Kazdan-Warner equations on finite weighted graphs")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("spectrum", help="eigenvalues and eigenbases of -Delta")
    sp.add_argument("graph", help="graph JSON document")
    sp.add_argument("--json", action="store_true",
                    help="emit the full spectrum (with bases) as JSON")
    sp.set_defaults(func=cmd_spectrum)

    # the problem that solve and probe both take
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("graph")
    problem.add_argument("--alpha", type=float, required=True)
    problem.add_argument("--beta", type=float, required=True)
    problem.add_argument("--k", type=int, default=0, help="subspace index (default 0)")

    so = sub.add_parser("solve", parents=[problem], help="minimize J_(alpha,beta) on E_k^perp")
    so.add_argument("--json", metavar="PATH", help="also write the report here")
    so.set_defaults(func=cmd_solve)

    pr = sub.add_parser("probe", parents=[problem],
                        help="certify unboundedness along an eigen-ray")
    pr.set_defaults(func=cmd_probe)

    ve = sub.add_parser("verify", help="re-certify a solution document")
    ve.add_argument("solution", help="solve report or hand-written candidate JSON")
    ve.add_argument("--tol", type=float, default=1e-8)
    ve.set_defaults(func=cmd_verify)

    return parser


def _read(path: str | Path, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliInputError(f"cannot read {what} '{path}': {exc}") from exc


def _load_graph(path: str | Path) -> tuple[Graph, Spectrum]:
    graph = parse_graph(_read(path, "graph"))
    violations = validate(graph)
    if violations:
        raise CliInputError(f"graph '{path}' failed validation: " + "; ".join(violations))
    return graph, compute_spectrum(graph)


def _emit(doc: dict, copy_path: str | None = None) -> None:
    # a non-finite number or an unwritable copy raises (exit 1) before
    # anything reaches stdout, so stdout is always strict JSON or empty
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if copy_path:
        try:
            Path(copy_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CliInputError(f"cannot write report '{copy_path}': {exc}") from exc
    sys.stdout.write(text)


def cmd_spectrum(args) -> int:
    graph, spectrum = _load_graph(args.graph)
    has_gap = spectrum.num_distinct >= 2
    if args.json:
        doc = spectrum_to_dict(spectrum)
        doc["poincare_constant"] = poincare_constant(spectrum) if has_gap else None
        _emit(doc)
    else:
        pairs = ", ".join(
            f"{lam:g} ({mult})"
            for lam, mult in zip(spectrum.distinct_eigenvalues, spectrum.multiplicities)
        )
        suffix = f"; C_P = {poincare_constant(spectrum):g}" if has_gap else ""
        print(f"λ: {pairs}{suffix}")
    return EXIT_OK


def _report_doc(graph_arg: str, graph: Graph, report, requested_k: int) -> dict:
    return {
        "graph": graph_arg,
        "alpha": report.alpha,
        "beta": report.beta,
        "k": requested_k,
        "regime": {
            "tag": report.regime.tag.value,
            "subspace_index": report.regime.subspace_index,
        },
        "status": report.status.value,
        "objective": report.objective,
        "iterations": report.iterations,
        "grad_sup": report.grad_sup,
        "residual_sup": report.residual_sup,
        "xi": report.xi,
        "t_multipliers": [
            {"s": s, "i": i, "value": value} for s, i, value in report.t_multipliers
        ],
        "u": {vid: float(val) for vid, val in zip(graph.vertex_ids, report.minimizer)},
    }


def cmd_solve(args) -> int:
    graph, spectrum = _load_graph(args.graph)
    try:
        report = minimize(graph, spectrum, args.alpha, args.beta, args.k)
    except UnboundedRegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNBOUNDED
    _emit(_report_doc(args.graph, graph, report, args.k), args.json)
    print(
        f"{report.regime.tag.value} (j={report.regime.subspace_index}): "
        f"status={report.status.value} objective={report.objective:.12g} "
        f"residual_sup={report.residual_sup:.3g} iterations={report.iterations}",
        file=sys.stderr,
    )
    return EXIT_OK if report.status is SolveStatus.CONVERGED else EXIT_NO_CONVERGENCE


def cmd_probe(args) -> int:
    graph, spectrum = _load_graph(args.graph)
    report = probe_divergence(graph, spectrum, args.alpha, args.beta, args.k)
    doc = {
        "graph": args.graph,
        "alpha": args.alpha,
        "beta": args.beta,
        "k": args.k,
        "verdict": report.verdict.value,
        "direction": {vid: float(v) for vid, v in zip(graph.vertex_ids, report.direction)},
        "samples": [[t, value] for t, value in report.samples],
    }
    _emit(doc)
    print(f"verdict: {report.verdict.value} "
          f"(final J = {report.samples[-1][1]:.6g} at t = {report.samples[-1][0]:g})",
          file=sys.stderr)
    return EXIT_OK if report.verdict is ProbeVerdict.UNBOUNDED else EXIT_INCONCLUSIVE


def _resolve_graph_path(raw: str, solution_dir: Path) -> Path:
    path = Path(raw)
    # an absolute path is itself: solution_dir / path == path
    local = solution_dir / path
    if local.exists():
        return local
    return path


def _as_index(value: object, context: str) -> int:
    """A whole JSON number, read like every other number of a document."""
    number = _as_number(value, context)
    if not number.is_integer():
        raise CliInputError(f"{context} must be a whole number, got {value!r}")
    return int(number)


def _claimed_t(doc: dict):
    raw = doc.get("t_multipliers")
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise CliInputError(f"'t_multipliers' must be a list, got {raw!r}")
    out = []
    for entry in raw:
        context = f"t_multipliers entry {entry!r}"
        if not isinstance(entry, dict) or not {"s", "i", "value"} <= entry.keys():
            raise CliInputError(f"{context} must be an object with keys s, i and value")
        out.append((_as_index(entry["s"], context), _as_index(entry["i"], context),
                    _as_number(entry["value"], context)))
    return tuple(out)


def _finite_or_null(x: float) -> float | None:
    # a failed check can measure inf, which strict JSON cannot hold
    return x if math.isfinite(x) else None


def cmd_verify(args) -> int:
    doc = _json_object(_read(args.solution, "solution"), "solution is not valid JSON",
                       "solution document must be a JSON object")
    kind = "probe document" if "verdict" in doc else "solution document"
    for fieldname in ("graph", "alpha", "beta", "u"):
        if fieldname not in doc:
            raise CliInputError(f"{kind} missing '{fieldname}': verify reads a solve "
                                "report or a candidate with a 'u' map")
    graph, spectrum = _load_graph(_resolve_graph_path(str(doc["graph"]),
                                                      Path(args.solution).parent))
    u_doc = doc["u"]
    if not isinstance(u_doc, dict) or set(u_doc) != set(graph.vertex_ids):
        raise CliInputError("'u' must map every vertex id to a value, exactly once")
    # a null regime is absent, as a null xi or t_multipliers is
    regime = {} if doc.get("regime") is None else doc["regime"]
    if not isinstance(regime, dict):
        raise CliInputError(f"'regime' must be an object, got {regime!r}")
    u = np.array([_as_number(u_doc[vid], f"u[{vid!r}]") for vid in graph.vertex_ids])
    alpha = _as_number(doc["alpha"], "'alpha'")
    beta = _as_number(doc["beta"], "'beta'")
    # the regime names the subspace when present, but a malformed k is refused anyway
    k = _as_index(doc.get("k", 0), "'k'")
    k = _as_index(regime.get("subspace_index", k), "'k'")
    claimed_xi = None if doc.get("xi") is None else _as_number(doc["xi"], "'xi'")
    checks = verify_candidate(graph, spectrum, u, alpha, beta, k, args.tol,
                              claimed_xi=claimed_xi, claimed_t=_claimed_t(doc))
    all_passed = all(c.passed for c in checks)
    _emit({
        "solution": args.solution,
        "k": k,
        "tol": args.tol,
        "all_passed": all_passed,
        "checks": [
            {"name": c.name, "passed": c.passed,
             "value": _finite_or_null(c.value), "limit": _finite_or_null(c.limit)}
            for c in checks
        ],
    })
    for check in checks:
        if not check.passed:
            print(f"FAIL {check.name}: value={check.value!r} exceeds {check.limit!r}",
                  file=sys.stderr)
    return EXIT_OK if all_passed else EXIT_FAILED_CHECKS


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliInputError, ValueError) as exc:
        # GraphFormatError and BoundedRegimeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
