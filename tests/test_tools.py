"""The pure functions of tools/bench_pair.py: seed lists, code-line
counts, the pair summary and the answer comparison. No subprocess runs."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_pair_module():
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pair = _bench_pair_module()


@pytest.mark.parametrize("text, seeds", [
    ("1", [1]),
    ("1-10", list(range(1, 11))),
    ("1,3,7-9", [1, 3, 7, 8, 9]),
    ("4-4,2", [4, 2]),
])
def test_parse_seeds(text, seeds):
    assert bench_pair.parse_seeds(text) == seeds


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    source = '''"""Module docstring
over two lines."""

# a comment
import math


class Box:
    """One line."""

    size = 1  # a trailing comment keeps its line


def area(r):
    """First line.

    Last line.
    """
        # an indented comment
    return math.pi * r * r
'''
    assert bench_pair.code_lines(source) == 5


def _run(seed, parent, change):
    """One pair: each side's (metric, failed, attempted)."""
    return {"seed": seed,
            **{side: {"metrics": {"answers_per_s": value, "answer_ms_p50": 1000.0 / value},
                      "failed": failed, "attempted": attempted}
               for side, (value, failed, attempted) in (("parent", parent),
                                                        ("change", change))}}


def test_summarize_ties_count_for_neither_side_and_shares_are_compared():
    runs = [
        _run(1, (100.0, 20, 140), (100.0, 20, 140)),   # a tie
        _run(2, (100.0, 20, 140), (110.0, 22, 154)),   # change wins, same share 1/7
        _run(3, (100.0, 20, 140), (90.0, 21, 140)),    # parent wins, share differs
    ]
    better = {"answers_per_s": "higher", "answer_ms_p50": "lower"}
    summary = bench_pair.summarize(runs, better)
    assert summary["change_wins"] == {"answers_per_s": 1, "answer_ms_p50": 1}
    assert summary["pairs"] == 3
    assert summary["failed_share_differs"] == [3]
    assert summary["failed"]["parent"] == {"failed": 60, "attempted": 420, "share": 60 / 420}
    assert summary["failed"]["change"] == {"failed": 63, "attempted": 434, "share": 63 / 434}
    assert summary["parent"]["answers_per_s"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
    assert summary["change"]["answers_per_s"]["median"] == 100.0


@pytest.mark.parametrize("a, b, relative", [
    (57, 58, 1 / 57),
    (2.0, 2.5, 0.25),
    (-4, -3.0, 0.25),
    ([1.0, [2.0, 4]], [1.0, [2.0, 5]], 0.25),
    ([1.0], [1.0, 2.0], math.inf),
    (0.0, 1e-300, math.inf),
    (True, False, math.inf),
    ("Converged", "MaxIters", math.inf),
    ("Converged", "Converged", 0.0),
])
def test_largest_relative(a, b, relative):
    assert bench_pair.largest_relative(a, b) == relative


def _answer(objective=2.0, iterations=40, trace=(3.0, 2.0), status="Converged"):
    return {"status": status, "iterations": iterations, "objective": objective,
            "trace": list(trace), "certified": True}


def test_compare_answers_names_each_moved_field_with_count_and_largest_change():
    parent = {"solve-ladder": {"q0": _answer(), "q1": _answer(), "q2": _answer(),
                               "q3": _answer(), "q4": _answer()},
              "spectral-large": {"s0": {"lambda1": 0.5, "certified": True}}}
    change = {"solve-ladder": {"q0": _answer(objective=2.5), "q1": _answer(iterations=41),
                               "q2": _answer(trace=(3.0, 2.0, 1.9)),
                               "q3": _answer(status="MaxIters"), "q4": _answer()},
              "spectral-large": {"s0": {"lambda1": 0.5, "certified": True}}}
    differ, fields = bench_pair.compare_answers(parent, change)
    assert differ == ["solve-ladder/q0", "solve-ladder/q1", "solve-ladder/q2",
                      "solve-ladder/q3"]
    assert fields == {
        "solve-ladder": {"identical": 1, "of": 5, "moved": {
            "iterations": {"differs": 1, "largest_relative": 1 / 40},
            "objective": {"differs": 1, "largest_relative": 0.25},
            "status": {"differs": 1, "largest_relative": math.inf},
            "trace": {"differs": 1, "largest_relative": math.inf}}},
        "spectral-large": {"identical": 1, "of": 1, "moved": {}},
    }


def test_compare_answers_counts_an_answer_or_field_one_side_lacks():
    parent = {"cli": {"a": {"status": "UnboundedRegimeError", "certified": False}}}
    change = {"cli": {"a": {"status": "Converged", "certified": True, "objective": 1.0},
                      "b": {"certified": True}}}
    differ, fields = bench_pair.compare_answers(parent, change)
    assert differ == ["cli/a", "cli/b"]
    assert fields["cli"]["identical"] == 0 and fields["cli"]["of"] == 2
    assert fields["cli"]["moved"] == {
        name: {"differs": count, "largest_relative": math.inf}
        for name, count in (("certified", 2), ("objective", 1), ("status", 1))}
