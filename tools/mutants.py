"""Run tier-1 against a fixed list of one-edit source mutants of kwgraph.

    python3 tools/mutants.py [--only MODULE]

Each mutant replaces one piece of text in one module of ``src/kwgraph/``
and says in one line what fault it stands for. The text must occur
exactly once in that module, or the tool stops before running anything.
The tool copies ``src``, ``tests``, ``tools``, ``demos``, ``README.md``
and ``pyproject.toml`` into a temporary directory, checks that tier-1
passes there unmutated, and then, for one mutant at a time, edits the
copy and runs tier-1 with ``-x`` on it. Tier-1 there leaves out
``tests/test_mutants.py``, which checks this list against the unmutated
sources and so would fail on every mutant. A mutant is ``killed`` by the
first test that fails (or by ``timeout``), ``survived`` when tier-1
passes, or ``equivalent`` when the list marks it so, with the reason;
an equivalent mutant still runs, and its ``killed_by`` is kept.

A full run writes ``MUTANTS.json`` at the repo root. ``--only MODULE``
(``verify`` or ``verify.py``) runs that module's mutants and prints
their records without writing the file. Exits 1 when a mutant that is
not marked equivalent survives.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "demos", "README.md", "pyproject.toml")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    module: str
    old: str
    new: str
    reason: str
    equivalent: str | None = None


MUTANTS = (
    # verify: every check's limit, and the check that must not go missing
    Mutant("verify.py", 'CheckResult("kw_residual_sup", sup <= tol,',
           'CheckResult("kw_residual_sup", sup <= 2 * tol,',
           "kw_residual_sup passes a residual twice its limit"),
    Mutant("verify.py", 'CheckResult("kw_residual_l2", l2 <= l2_limit,',
           'CheckResult("kw_residual_l2", l2 <= 2 * l2_limit,',
           "kw_residual_l2 passes an L2 residual twice its limit"),
    Mutant("verify.py", 'CheckResult("eigenspace_orthogonality", worst <= tol,',
           'CheckResult("eigenspace_orthogonality", worst <= 1000 * tol,',
           "eigenspace_orthogonality passes a component along E_k 1000 times its limit"),
    Mutant("verify.py", 'CheckResult("mean_zero", mean_abs <= tol * g.volume,',
           'CheckResult("mean_zero", mean_abs <= 10 * tol * g.volume,',
           "mean_zero passes a mean ten times its limit"),
    Mutant("verify.py", 'CheckResult("multiplier_t", diff <= tol,',
           'CheckResult("multiplier_t", diff <= 10 * tol,',
           "multiplier_t passes a group norm off by ten times its limit"),
    Mutant("verify.py", 'CheckResult("multiplier_xi", diff <= tol,',
           'CheckResult("multiplier_xi", diff <= 10 * tol,',
           "multiplier_xi passes a xi off by ten times its limit"),
    Mutant("verify.py",
           '    checks.append(CheckResult("residual_mean_zero", r_mean <= tol * g.volume,\n'
           "                              r_mean, tol * g.volume))\n",
           "",
           "residual_mean_zero is never checked"),
    Mutant("verify.py", "beta / g.volume, tuple(", "beta * g.volume, tuple(",
           "the closed-form xi multiplies by Vol instead of dividing"),
    Mutant("verify.py", "- beta / g.volume", "+ beta / g.volume",
           "the residual adds xi instead of subtracting it"),
    # solver: the probe, the regime and the descent
    Mutant("solver.py", "noise <= -1e-3 * DIVERGENCE_DEPTH",
           "noise <= -1e-1 * DIVERGENCE_DEPTH",
           "the probe samples a ray 100 times past its rounding cap"),
    Mutant("solver.py", "if samples[-1][1] < DIVERGENCE_DEPTH:",
           "if samples[-1][1] < 0.0:",
           "the probe certifies divergence at any negative depth"),
    Mutant("solver.py", "    if alpha < lo - spectrum.tolerance(lo):",
           "    if alpha < lo + spectrum.tolerance(lo):",
           "an alpha just below lambda_{k+1}, inside its tolerance, classifies as bounded"),
    Mutant("solver.py",
           "        if beta < 0:\n            return Regime(RegimeTag.MINIMIZER_IN_NEXT_PERP",
           "        if beta > 0:\n            return Regime(RegimeTag.MINIMIZER_IN_NEXT_PERP",
           "at alpha = lambda_{k+1} the sign of beta picks the wrong side of the trichotomy"),
    Mutant("solver.py", "_ARMIJO_C = 1e-4", "_ARMIJO_C = 0.0",
           "a line search accepts a step with no sufficient decrease"),
    Mutant("solver.py", "< 0.9 * grad_sup:", "< 1.0 * grad_sup:",
           "the gradient-cut polish accepts a step that barely cuts the gradient"),
    Mutant("solver.py", "_GD_ITER_CAP = 100", "_GD_ITER_CAP = 10",
           "Newton directions start after 10 gradient steps instead of 100",
           equivalent="tuning of the warm-up, which the single Newton method of ROADMAP "
                      "item 6 deletes; it changes which minimizer bits come out, not "
                      "whether they are certified"),
    Mutant("solver.py", "_NEWTON_SWITCH_TOL = 1e-3", "_NEWTON_SWITCH_TOL = 1e-1",
           "Newton directions start at a gradient of 1e-1 instead of 1e-3",
           equivalent="tuning of the warm-up, which the single Newton method of ROADMAP "
                      "item 6 deletes; it changes which minimizer bits come out, not "
                      "whether they are certified"),
    Mutant("solver.py", "_GRAD_TOL = 1e-10", "_GRAD_TOL = 1e-6",
           "a solve reports Converged with a gradient that verify rejects"),
    Mutant("solver.py", "if len(trace) > _MAX_ITERS:", "if len(trace) >= _MAX_ITERS:",
           "the loop stops one accepted step short of _MAX_ITERS"),
    Mutant("solver.py", "delta = 1e-8 if delta == 0.0 else 2.0 * delta", "delta = 1e-8",
           "the Levenberg damping never grows past 1e-8"),
    Mutant("solver.py", "if stationary or not stalled:", "if not stalled:",
           "a saddle reached after a stalled step ends in the polish instead of "
           "being left along its negative curvature"),
    # cli: the one error path
    Mutant("cli.py", "except (CliInputError, ValueError) as exc:",
           "except CliInputError as exc:",
           "main lets a ValueError (bad graph, bounded-regime probe) escape as a traceback"),
    Mutant("cli.py", '{"s", "i", "value"} <= entry.keys()', '{"s", "i"} <= entry.keys()',
           "verify reads a t_multipliers object without a value and fails with a KeyError "
           "traceback"),
    Mutant("cli.py", """    k = _as_index(doc.get("k", 0), "'k'")\n""", """    k = doc.get("k", 0)\n""",
           "verify skips a malformed k when the regime names the subspace"),
    # functional: the objective and the analytic bounds
    Mutant("functional.py", "    return quad - beta * log_integral_h_exp(g, u)",
           "    return quad + beta * log_integral_h_exp(g, u)",
           "J carries the log term with the wrong sign"),
    Mutant("functional.py", "if abs(integrate(g, u)) > 1e-10 * l2:",
           "if abs(integrate(g, u)) > 1e-6 * l2:",
           "heu_lower_bound accepts a u whose mean is 1e-8 of its norm"),
    Mutant("functional.py", "    for _ in range(300):", "    for _ in range(3):",
           "the Trudinger-Moser ascent stops after 3 power steps"),
    Mutant("functional.py", "c2 = -math.sqrt(", "c2 = math.sqrt(",
           "the lower bound on integral(h e^u) grows with the energy instead of decaying"),
    # spectral and calculus: the eigenvalue rule and the Laplacian
    Mutant("spectral.py", "return 1e-9 * (1.0 + np.abs(lam))",
           "return 1e-6 * (1.0 + np.abs(lam))",
           "eigenvalues 1e-6 apart are merged into one group"),
    Mutant("spectral.py", "(g.mu.tobytes(), *(arr.tobytes() for arr in g.edge_arrays))",
           "(*(arr.tobytes() for arr in g.edge_arrays),)",
           "the spectrum memo hands a graph the spectrum of another mu on the same edges"),
    Mutant("spectral.py", "for arr in g.edge_arrays)", "for arr in g.edge_arrays[:2])",
           "the spectrum memo hands a graph the spectrum of other weights on the same edges"),
    Mutant("spectral.py", "    _last = last = None\n", "    last = None\n",
           "the memo keeps the last spectrum alive while the next graph is decomposed"),
    Mutant("calculus.py", "    flux = ew * (u[ej] - u[ei])", "    flux = ew * (u[ei] - u[ej])",
           "the Laplacian has the wrong sign"),
    # graphs: the input contract
    Mutant("graphs.py", "        if not w > 0:", "        if not w >= 0:",
           "validate reports no violation for a zero edge weight"),
    Mutant("graphs.py", "    except (RecursionError, ValueError) as exc:",
           "    except ValueError as exc:",
           "a document nested past the recursion limit escapes the reader as a traceback"),
    Mutant("graphs.py",
           "    if not isinstance(doc, dict):\n        raise GraphFormatError(not_object)\n",
           "",
           "the reader passes a top level that is not an object on to its callers"),
)


def _apply(source: str, mutant: Mutant) -> str:
    count = source.count(mutant.old)
    if count != 1:
        sys.exit(f"error: mutant text occurs {count} times in {mutant.module}, "
                 f"not once: {mutant.old!r}")
    return source.replace(mutant.old, mutant.new)


def _tier1(copy: Path) -> tuple[bool, str | None]:
    """(passed, first failing test id) of tier-1 with -x in ``copy``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    # test_mutants.py checks this list against the unmutated sources; it
    # would kill every mutant itself
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, "timeout"
    if proc.returncode == 0:
        return True, None
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return False, line.split(" ", 1)[1].split(" - ", 1)[0]
    return False, f"pytest exit {proc.returncode}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="MODULE",
                        help="run only the mutants of this module (verify or verify.py)")
    args = parser.parse_args(argv)
    chosen = list(MUTANTS)
    if args.only:
        module = args.only if args.only.endswith(".py") else f"{args.only}.py"
        chosen = [m for m in MUTANTS if m.module == module]
        if not chosen:
            sys.exit(f"error: no mutants of {module}")
    sources = {m.module: (ROOT / "src" / "kwgraph" / m.module).read_text(encoding="utf-8")
               for m in chosen}
    for m in chosen:
        _apply(sources[m.module], m)
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        passed, failure = _tier1(copy)
        if not passed:
            sys.exit(f"error: tier-1 fails on the unmutated copy: {failure}")
        for m in chosen:
            path = copy / "src" / "kwgraph" / m.module
            path.write_text(_apply(sources[m.module], m), encoding="utf-8")
            start = time.perf_counter()
            try:
                passed, failure = _tier1(copy)
            finally:
                path.write_text(sources[m.module], encoding="utf-8")
            status = "equivalent" if m.equivalent else "survived" if passed else "killed"
            record = {"module": m.module, "old": m.old, "new": m.new, "reason": m.reason,
                      "status": status, "killed_by": failure,
                      "seconds": round(time.perf_counter() - start, 1)}
            if m.equivalent:
                record["equivalent"] = m.equivalent
            records.append(record)
            print(f"{status:>10}  {m.module}: {m.reason}"
                  + (f"  [{failure}]" if failure else ""), file=sys.stderr)
    survivors = [r for r in records if r["status"] == "survived"]
    doc = {"mutants": len(records), "survived": len(survivors),
           "killed": sum(r["status"] == "killed" for r in records),
           "equivalent": sum(r["status"] == "equivalent" for r in records),
           "records": records}
    text = json.dumps(doc, indent=1) + "\n"
    if args.only:
        sys.stdout.write(text)
    else:
        (ROOT / "MUTANTS.json").write_text(text, encoding="utf-8")
        print(ROOT / "MUTANTS.json")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
