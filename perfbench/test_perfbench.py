"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench
"""

import json

import numpy as np
import pytest

import run
import stats
import tracer as tr
import workloads
from workloads import Outcome


def test_p90_needs_100_samples_for_10_beyond():
    assert stats.min_samples() == 100
    rng = np.random.default_rng(0)
    for n in (100, 101, 137, 500):
        values = list(rng.permutation(n) + 0.5)
        p90 = stats.percentile(values, stats.P90)
        assert stats.count_beyond(values, p90) >= stats.MIN_BEYOND
        assert p90 == pytest.approx(np.percentile(values, 90))
    assert stats.percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_failed_frac_counts_every_uncertified_answer():
    assert stats.failed_frac([True] * 7 + [False] * 3) == (0.3, 3, 10)
    assert stats.failed_frac([True, True]) == (0.0, 0, 2)
    assert stats.failed_frac([]) == (0.0, 0, 0)


def test_verdict_counts_gate_errors_and_unknown_questions_as_failures():
    q = {"key": "n10/g0/x"}
    assert run.verdict(q, lambda: Outcome(True, True, "ok"), {q["key"]: {}}).certified

    def broken():
        raise KeyError("u")
    out = run.verdict(q, broken, {q["key"]: {}})
    assert not out.certified and not out.correct
    out = run.verdict(q, lambda: Outcome(True, True, "ok"), {})
    assert out.certified and not out.correct


def test_self_time_subtracts_direct_children_of_nested_spans():
    # root [0, 100) > a [10, 40) > a1 [15, 25); root > b [50, 90)
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([100.0, 30.0, 10.0, 40.0])
    own = tr.self_times(parent, duration)
    assert own.tolist() == [30.0, 20.0, 10.0, 40.0]
    assert own.sum() == duration[0]


def test_summarize_reports_calls_self_ms_and_coverage():
    t = tr.Tracer()
    rows = [  # answer, name, parent, start, end (ns)
        (0, tr.ANSWER, -1, 0, 10_000_000),
        (0, "solver.minimize", 0, 1_000_000, 9_000_000),
        (0, "functional.eval_J", 1, 2_000_000, 3_000_000),
        (0, "functional.eval_J", 1, 4_000_000, 5_000_000),
        (-1, tr.SETUP, -1, 0, 5_000_000),
    ]
    for answer, name, parent, start, end in rows:
        t.answer.append(answer)
        t.name.append(t.name_id(name))
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    out = tr.summarize(t)
    assert out["functional.eval_J.calls"] == 2
    assert out["functional.eval_J.self_ms"] == pytest.approx(2.0)
    assert out["solver.minimize.self_ms"] == pytest.approx(6.0)
    assert out["trace.coverage_frac"] == pytest.approx(0.8)


def test_rebound_traces_cross_module_calls_and_restores():
    kw = workloads.kw
    original = kw.eval_J
    g = kw.path_graph(3)
    t = tr.Tracer()
    with tr.rebound(t), t.span(tr.ANSWER):
        kw.eval_J(g, np.zeros(3), 0.1, 1.0)
    assert kw.eval_J is original
    assert kw.solver.eval_J is original
    names = [t.names[i] for i in t.name]
    # eval_J reaches dirichlet_energy through the functional module's own binding
    assert names == [tr.ANSWER, "functional.eval_J", "calculus.dirichlet_energy"]
    own = tr.self_times(np.array(t.parent), np.array(t.end) - np.array(t.start))
    assert own.sum() == t.end[0] - t.start[0]


def test_parse_importtime_takes_outermost_scipy_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |         50 |     scipy.special",
        "import time:        40 |        120 |   kwgraph.functional",
        "import time:         7 |        200 | kwgraph.cli",
        "import time:         3 |          3 | json",
    ])
    assert run.parse_importtime(stderr) == (0.2, 0.08)


def test_interleave_keeps_the_size_mix_in_every_prefix():
    seq = workloads.interleave({10: 60, 20: 28, 40: 12})
    assert len(seq) == 100
    for end in (25, 50, 75, 100):
        assert abs(seq[:end].count(40) - 0.12 * end) <= 1


def test_benchmark_json_names_the_metrics_the_runs_print():
    doc = json.loads((run.benchenv.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in doc["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    assert [m["name"] for m in doc["per_layer"]] == tr.per_layer_names()
    for m in doc["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])
    assert [w["name"] for w in doc["workloads"]] == list(workloads.INPUTS)
