from __future__ import annotations

import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwgraph import (
    Graph,
    GraphFormatError,
    as_vertex_function,
    complete_graph,
    compute_spectrum,
    graphs,
    parse_graph,
    path_graph,
    random_connected_graph,
    serialize_graph,
    validate,
)

from conftest import (
    DEEP_NESTING,
    HUGE_INTEGER,
    K2_DOC,
    P3_DOC,
    int_digit_limit,
    log_uniform_graph,
)


def test_parse_k2_document():
    g = parse_graph(K2_DOC)
    assert g.vertex_ids == ("a", "b")
    assert np.array_equal(g.mu, [1.0, 1.0])
    assert np.array_equal(g.h, [1.0, 1.0])
    assert g.edges == ((0, 1, 1.0),)
    assert g.volume == 2.0
    assert g.num_vertices == 2
    assert validate(g) == []


def test_parse_accepts_missing_edges_key():
    g = parse_graph('{"vertices": [{"id": "a", "mu": 2.0, "h": 0.5}]}')
    assert g.num_vertices == 1
    assert g.edges == ()
    assert validate(g) == []


def test_serialize_round_trip(p3):
    assert parse_graph(serialize_graph(p3)) == p3


def test_serialize_round_trip_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 25)))
        assert parse_graph(serialize_graph(g)) == g


def test_parse_rejects_malformed_json():
    with pytest.raises(GraphFormatError, match="not valid JSON"):
        parse_graph("{not json")


def test_parse_rejects_non_object_top_level():
    with pytest.raises(GraphFormatError):
        parse_graph("[1, 2]")


def test_parse_rejects_missing_vertex_field():
    with pytest.raises(GraphFormatError, match="missing 'mu'"):
        parse_graph('{"vertices": [{"id": "a", "h": 1.0}], "edges": []}')


def test_parse_rejects_duplicate_vertex_id():
    doc = ('{"vertices": [{"id": "a", "mu": 1.0, "h": 1.0},'
           ' {"id": "a", "mu": 1.0, "h": 1.0}], "edges": []}')
    with pytest.raises(GraphFormatError, match="duplicate vertex id"):
        parse_graph(doc)


def test_parse_rejects_nonpositive_mu():
    doc = '{"vertices": [{"id": "a", "mu": 0.0, "h": 1.0}], "edges": []}'
    with pytest.raises(GraphFormatError, match="nonpositive measure"):
        parse_graph(doc)


def test_parse_rejects_nonpositive_h():
    doc = '{"vertices": [{"id": "a", "mu": 1.0, "h": -2.0}], "edges": []}'
    with pytest.raises(GraphFormatError, match="nonpositive h"):
        parse_graph(doc)


def test_parse_rejects_unknown_edge_endpoint():
    doc = (K2_DOC.replace('{"u": "a", "v": "b", "w": 1.0}',
                          '{"u": "a", "v": "zz", "w": 1.0}'))
    with pytest.raises(GraphFormatError, match="unknown vertex id"):
        parse_graph(doc)


def test_parse_rejects_self_loop():
    doc = K2_DOC.replace('{"u": "a", "v": "b", "w": 1.0}',
                         '{"u": "a", "v": "a", "w": 1.0}')
    with pytest.raises(GraphFormatError, match="self-loop"):
        parse_graph(doc)


def test_parse_rejects_duplicate_edge_pair():
    doc = K2_DOC.replace('{"u": "a", "v": "b", "w": 1.0}',
                         '{"u": "a", "v": "b", "w": 1.0}, {"u": "b", "v": "a", "w": 2.0}')
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        parse_graph(doc)


def test_parse_rejects_nonpositive_weight():
    doc = K2_DOC.replace('"w": 1.0', '"w": -1.0')
    with pytest.raises(GraphFormatError, match="nonpositive weight"):
        parse_graph(doc)


def test_parse_rejects_nonfinite_number():
    doc = K2_DOC.replace('"mu": 1.0, "h": 1.0},', '"mu": NaN, "h": 1.0},', 1)
    with pytest.raises(GraphFormatError, match="finite"):
        parse_graph(doc)


def test_parse_rejects_integer_past_float_range():
    # float() of a 400-digit integer raises OverflowError, not a format error
    doc = K2_DOC.replace('"mu": 1.0, "h": 1.0},', f'"mu": {10 ** 400}, "h": 1.0}},', 1)
    with pytest.raises(GraphFormatError, match="mu at vertex 'a' must be finite"):
        parse_graph(doc)


def test_parse_rejects_nesting_past_the_recursion_limit():
    # json.loads raises RecursionError here, not JSONDecodeError
    for text in (DEEP_NESTING, K2_DOC.replace('"mu": 1.0', f'"mu": {DEEP_NESTING}', 1)):
        with pytest.raises(GraphFormatError, match="^not valid JSON: "):
            parse_graph(text)


@pytest.mark.parametrize("limit, message", [
    (4300, "^not valid JSON: "),
    (0, "^mu at vertex 'a' must be finite, got inf$"),
], ids=["digit-limit", "no-digit-limit"])
def test_parse_rejects_an_integer_past_the_digit_limit(limit, message):
    # under the limit json.loads raises a plain ValueError; without it the
    # integer reaches _as_number and overflows the float range
    text = K2_DOC.replace('"mu": 1.0', f'"mu": {HUGE_INTEGER}', 1)
    with int_digit_limit(limit), pytest.raises(GraphFormatError, match=message):
        parse_graph(text)


def test_validate_reports_disconnected():
    # parse succeeds (no per-record violation); validate flags connectivity
    doc = ('{"vertices": [{"id": "a", "mu": 1.0, "h": 1.0},'
           ' {"id": "b", "mu": 1.0, "h": 1.0},'
           ' {"id": "c", "mu": 1.0, "h": 1.0},'
           ' {"id": "d", "mu": 1.0, "h": 1.0}],'
           ' "edges": [{"u": "a", "v": "b", "w": 1.0}, {"u": "c", "v": "d", "w": 1.0}]}')
    g = parse_graph(doc)
    assert validate(g) == ["disconnected"]


def test_validate_reports_value_violations_on_direct_construction():
    g = Graph(("a", "b"), np.array([1.0, -1.0]), np.array([1.0, 1.0]),
              ((0, 1, 0.0),))
    violations = validate(g)
    assert any("nonpositive measure" in v for v in violations)
    assert any("nonpositive weight" in v for v in violations)


def test_construction_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        Graph(("a", "b"), np.array([1.0]), np.array([1.0, 1.0]), ())
    with pytest.raises(ValueError, match="h has shape"):
        Graph(("a", "b"), np.ones(2), np.ones(3), ())


def test_empty_graph_is_disconnected():
    assert validate(Graph((), [], [], [])) == ["disconnected"]


def test_graph_equality_and_repr(k2):
    assert k2 == Graph(("a", "b"), [1.0, 1.0], [1.0, 1.0], [(0, 1, 1.0)])
    # NotImplemented for a non-Graph falls back to identity
    assert k2 != object()
    assert repr(k2) == "Graph(2 vertices, 1 edges, volume=2)"


def test_construction_rejects_edge_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        Graph(("a", "b"), np.ones(2), np.ones(2), ((0, 5, 1.0),))


def test_construction_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="unique"):
        Graph(("a", "a"), np.ones(2), np.ones(2), ())


def test_graph_arrays_are_immutable(k2):
    with pytest.raises(ValueError):
        k2.mu[0] = 5.0


def test_as_vertex_function_checks_length(k2):
    with pytest.raises(ValueError, match="shape"):
        as_vertex_function(k2, [1.0, 2.0, 3.0])


def test_vertex_index(p3):
    assert p3.vertex_index("b") == 1
    with pytest.raises(KeyError):
        p3.vertex_index("zz")


def test_random_connected_graph_is_valid():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 41)))
        assert validate(g) == []


def _doc(vertices, edges=None) -> str:
    doc = {"vertices": vertices}
    if edges is not None:
        doc["edges"] = edges
    return json.dumps(doc)


_A = {"id": "a", "mu": 1.0, "h": 1.0}
_B = {"id": "b", "mu": 1.0, "h": 1.0}


# Full messages, as parse_graph has always worded them; when one record
# breaks several rules, the first rule in this order is the one reported.
PARSE_ERRORS = {
    "malformed-json": ('{"vertices": [',
                       "not valid JSON: Expecting value: line 1 column 15 (char 14)"),
    "top-level-not-object": ("[]", "top level must be a JSON object"),
    "vertices-empty": (_doc([]), "'vertices' must be a non-empty list"),
    "vertex-not-object": (_doc([_A, 1]), "vertex entry must be an object, got 1"),
    "vertex-missing-id": (_doc([{"mu": 1.0, "h": 1.0}]),
                          "vertex entry missing 'id': {'mu': 1.0, 'h': 1.0}"),
    "vertex-missing-mu": (_doc([{"id": "a", "h": 1.0}]),
                          "vertex entry missing 'mu': {'id': 'a', 'h': 1.0}"),
    "vertex-missing-h": (_doc([{"id": "a", "mu": 1.0}]),
                         "vertex entry missing 'h': {'id': 'a', 'mu': 1.0}"),
    "vertex-missing-all": (_doc([{}]), "vertex entry missing 'id': {}"),
    "id-not-string": (_doc([{"id": 3, "mu": 1.0, "h": 1.0}]),
                      "vertex id must be a string, got 3"),
    "duplicate-id": (_doc([_A, _A]), "duplicate vertex id 'a'"),
    "mu-bool": (_doc([{"id": "a", "mu": True, "h": 1.0}]),
                "mu at vertex 'a' must be a number, got True"),
    "h-string": (_doc([{"id": "a", "mu": 1.0, "h": "1"}]),
                 "h at vertex 'a' must be a number, got '1'"),
    "mu-nan": ('{"vertices": [{"id": "a", "mu": NaN, "h": 1.0}]}',
               "mu at vertex 'a' must be finite, got nan"),
    "h-inf": ('{"vertices": [{"id": "a", "mu": 1.0, "h": 1e400}]}',
              "h at vertex 'a' must be finite, got inf"),
    "mu-zero": (_doc([{"id": "a", "mu": 0.0, "h": 1.0}]),
                "nonpositive measure mu=0.0 at vertex 'a'"),
    "mu-negative-int": (_doc([{"id": "a", "mu": -2, "h": 1.0}]),
                        "nonpositive measure mu=-2.0 at vertex 'a'"),
    "h-negative": (_doc([{"id": "a", "mu": 1.0, "h": -0.5}]),
                   "nonpositive h=-0.5 at vertex 'a'"),
    "mu-negative-h-bool": (_doc([{"id": "a", "mu": -1.0, "h": False}]),
                           "h at vertex 'a' must be a number, got False"),
    "mu-and-h-negative": (_doc([{"id": "a", "mu": -1.0, "h": -1.0}]),
                          "nonpositive measure mu=-1.0 at vertex 'a'"),
    "edges-not-list": (_doc([_A, _B], {"u": "a"}), "'edges' must be a list"),
    "edge-not-object": (_doc([_A, _B], [["a", "b", 1.0]]),
                        "edge entry must be an object, got ['a', 'b', 1.0]"),
    "edge-missing-u": (_doc([_A, _B], [{"v": "b", "w": 1.0}]),
                       "edge entry missing 'u': {'v': 'b', 'w': 1.0}"),
    "edge-missing-v": (_doc([_A, _B], [{"u": "a", "w": 1.0}]),
                       "edge entry missing 'v': {'u': 'a', 'w': 1.0}"),
    "edge-missing-w": (_doc([_A, _B], [{"u": "a", "v": "b"}]),
                       "edge entry missing 'w': {'u': 'a', 'v': 'b'}"),
    "edge-unknown-u": (_doc([_A, _B], [{"u": "c", "v": "b", "w": 1.0}]),
                       "edge references unknown vertex id 'c'"),
    "edge-unknown-v": (_doc([_A, _B], [{"u": "a", "v": "c", "w": 1.0}]),
                       "edge references unknown vertex id 'c'"),
    "edge-endpoint-not-string": (_doc([_A, _B], [{"u": 0, "v": "b", "w": 1.0}]),
                                 "edge references unknown vertex id 0"),
    "self-loop": (_doc([_A, _B], [{"u": "a", "v": "a", "w": 1.0}]),
                  "self-loop at vertex 'a'"),
    "duplicate-pair-reversed": (_doc([_A, _B], [{"u": "b", "v": "a", "w": 1.0},
                                                {"u": "a", "v": "b", "w": 2.0}]),
                                "duplicate edge ('a', 'b')"),
    "weight-zero": (_doc([_A, _B], [{"u": "a", "v": "b", "w": 0.0}]),
                    "nonpositive weight w=0.0 on edge ('a', 'b')"),
    "weight-negative-int": (_doc([_A, _B], [{"u": "b", "v": "a", "w": -3}]),
                            "nonpositive weight w=-3.0 on edge ('b', 'a')"),
    "weight-bool": (_doc([_A, _B], [{"u": "a", "v": "b", "w": True}]),
                    "weight on edge ('a', 'b') must be a number, got True"),
    "weight-inf": (_doc([_A, _B], [{"u": "a", "v": "b", "w": -math.inf}]),
                   "weight on edge ('a', 'b') must be finite, got -inf"),
}


@pytest.mark.parametrize("name", list(PARSE_ERRORS))
def test_parse_error_messages_exact(name):
    text, message = PARSE_ERRORS[name]
    with pytest.raises(GraphFormatError) as info:
        parse_graph(text)
    assert str(info.value) == message


def test_parse_integer_values_become_floats():
    g = parse_graph(_doc([{"id": "a", "mu": 2, "h": 1.0}, {"id": "b", "mu": 1.0, "h": 4}],
                         [{"u": "a", "v": "b", "w": 3}]))
    assert g.mu.tolist() == [2.0, 1.0] and g.mu.dtype == float
    assert g.h.tolist() == [1.0, 4.0]
    assert g.edges == ((0, 1, 3.0),)
    assert type(g.edges[0][2]) is float


def _graph_from_records(text: str) -> Graph:
    """The records of a parse_graph document, built with Graph(...) directly."""
    doc = json.loads(text)
    ids = [v["id"] for v in doc["vertices"]]
    edges = [(ids.index(e["u"]), ids.index(e["v"]), e["w"]) for e in doc.get("edges", [])]
    return Graph(ids, [v["mu"] for v in doc["vertices"]],
                 [v["h"] for v in doc["vertices"]], edges)


VALUE_FAULTS = ["mu-zero", "mu-negative-int", "h-negative", "mu-and-h-negative",
                "self-loop", "duplicate-pair-reversed", "weight-zero",
                "weight-negative-int"]


@pytest.mark.parametrize("name", VALUE_FAULTS)
def test_validate_words_value_faults_as_parse_does(name):
    text, message = PARSE_ERRORS[name]
    assert validate(_graph_from_records(text))[0] == message


def test_validate_lists_faults_record_by_record():
    g = Graph(("a", "b", "c"), [1.0, -1.0, 1.0], [-2.0, 1.0, 0.0],
              ((0, 1, 1.0), (1, 1, -1.0), (1, 0, -3.0), (2, 1, 0.5)))
    assert validate(g) == [
        "nonpositive h=-2.0 at vertex 'a'",
        "nonpositive measure mu=-1.0 at vertex 'b'",
        "nonpositive h=0.0 at vertex 'c'",
        "self-loop at vertex 'b'",
        "duplicate edge ('a', 'b')",
        "nonpositive weight w=-3.0 on edge ('b', 'a')",
    ]


def test_parse_reports_type_errors_before_value_errors():
    text = _doc([{"id": "a", "mu": -1, "h": 1.0}, {"id": "b", "mu": 1.0, "h": "x"}])
    with pytest.raises(GraphFormatError) as info:
        parse_graph(text)
    assert str(info.value) == "h at vertex 'b' must be a number, got 'x'"


def test_parse_reports_weight_type_before_self_loop():
    text = _doc([_A, _B], [{"u": "a", "v": "a", "w": True}])
    with pytest.raises(GraphFormatError) as info:
        parse_graph(text)
    assert str(info.value) == "weight on edge ('a', 'a') must be a number, got True"


@pytest.mark.parametrize("edge, message", [
    pytest.param((True, 0.9, True), "endpoints must be integers", id="bool-and-fraction"),
    pytest.param((0, True, 1.0), "endpoints must be integers", id="bool-endpoint"),
    pytest.param((0.0, 1, 1.0), "endpoints must be integers", id="float-endpoint"),
    pytest.param((0, 1, True), "weights must be real numbers", id="bool-weight"),
    pytest.param((0, 1, "1.0"), "weights must be real numbers", id="str-weight"),
    pytest.param((0, 1, None), "weights must be real numbers", id="none-weight"),
    pytest.param((0, 1, 1j), "weights must be real numbers", id="complex-weight"),
    pytest.param((0, 1), r"\(i, j, w\) triple", id="pair"),
])
def test_construction_rejects_non_integer_endpoints_and_non_real_weights(edge, message):
    with pytest.raises(ValueError, match=message):
        Graph(("a", "b"), np.ones(2), np.ones(2), (edge,))


@pytest.mark.parametrize("edges", [
    pytest.param(((True, 2, 1.0), (0, 1, 1.0)), id="bool"),
    pytest.param(((0, 1, 1.0), (1, np.True_, 1.0)), id="numpy-bool"),
])
def test_construction_rejects_a_bool_among_integer_endpoints(edges):
    # numpy promotes (True, 0) to an int64 column, which would build (1, 2)
    with pytest.raises(ValueError, match="endpoints must be integers, got bool"):
        Graph(("a", "b", "c"), np.ones(3), np.ones(3), edges)


def test_construction_accepts_numpy_integers_and_integer_weights():
    g = Graph(("a", "b", "c"), np.ones(3), np.ones(3),
              [(np.int32(0), np.uint8(1), 2), (np.int64(1), 2, np.float32(0.5))])
    assert g.edges == ((0, 1, 2.0), (1, 2, 0.5))
    assert all(type(x) is t for edge in g.edges for x, t in zip(edge, (int, int, float)))
    ei, ej, ew = g.edge_arrays
    assert (ei.dtype, ej.dtype, ew.dtype) == (np.intp, np.intp, np.float64)
    assert not (ei.flags.writeable or ej.flags.writeable or ew.flags.writeable)


def test_construction_takes_numpy_edge_arrays():
    # an empty (0, 3) array is an edgeless graph, not an ambiguous truth value
    g = Graph(("a", "b"), np.ones(2), np.ones(2), np.empty((0, 3)))
    assert g.edges == ()
    assert all(arr.size == 0 for arr in g.edge_arrays)
    # a float (m, 3) array reaches the constructor's own endpoint check
    with pytest.raises(ValueError, match="edge endpoints must be integers, got float64"):
        Graph(("a", "b"), np.ones(2), np.ones(2), np.array([[0.0, 1.0, 2.0]]))
    # lists of triples behave as before
    assert Graph(("a", "b"), np.ones(2), np.ones(2), []).edges == ()
    assert Graph(("a", "b"), np.ones(2), np.ones(2), [(0, 1, 2.0)]).edges == ((0, 1, 2.0),)


def test_graph_attributes_cannot_be_set(k2):
    with pytest.raises(AttributeError):
        k2.mu = np.ones(2)
    with pytest.raises(AttributeError):
        del k2.edge_arrays


@pytest.mark.parametrize("edge", [(0, 2, 1.0), (-1, 1, 1.0)])
def test_construction_rejects_endpoint_at_n_or_negative(edge):
    with pytest.raises(ValueError) as info:
        Graph(("a", "b"), np.ones(2), np.ones(2), ((0, 1, 1.0), edge))
    assert str(info.value) == f"edge ({edge[0]}, {edge[1]}) references a vertex outside 0..1"


def _reference_faults(g: Graph) -> list[str]:
    """validate's value messages, one record at a time in plain Python."""
    ids, faults, seen = g.vertex_ids, [], set()
    for vid, m, hh in zip(ids, g.mu.tolist(), g.h.tolist()):
        if not m > 0:
            faults.append(f"nonpositive measure mu={m!r} at vertex '{vid}'")
        if not hh > 0:
            faults.append(f"nonpositive h={hh!r} at vertex '{vid}'")
    for i, j, w in g.edges:
        if i == j:
            faults.append(f"self-loop at vertex '{ids[i]}'")
            continue
        pair = (min(i, j), max(i, j))
        if pair in seen:
            faults.append(f"duplicate edge ('{ids[pair[0]]}', '{ids[pair[1]]}')")
        seen.add(pair)
        if not w > 0:
            faults.append(f"nonpositive weight w={w!r} on edge ('{ids[i]}', '{ids[j]}')")
    return faults


def test_validate_matches_a_record_by_record_reference():
    # many repeated pairs among dozens of edges, so that an unstable sort
    # would flag a later copy of a pair as its first
    rng = np.random.default_rng(3)
    values = np.array([-1.0, 0.0, 0.5, 1.0, np.nan])
    odds = [0.1, 0.1, 0.1, 0.6, 0.1]
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 80))
        edges = [(int(i), int(j), float(w)) for i, j, w in
                 zip(rng.integers(0, n, m), rng.integers(0, n, m), rng.choice(values, m))]
        g = Graph([f"v{x}" for x in range(n)], rng.choice(values, n, p=odds),
                  rng.choice(values, n, p=odds), edges)
        assert [f for f in validate(g) if f != "disconnected"] == _reference_faults(g)


def _any_graph(seed: int, n: int, log_uniform: bool) -> Graph:
    if log_uniform:
        return log_uniform_graph(seed, n)
    return random_connected_graph(np.random.default_rng(seed), n)


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30), log_uniform=st.booleans())
def test_serialize_then_parse_gives_the_graph_and_the_bytes(seed, n, log_uniform):
    g = _any_graph(seed, n, log_uniform)
    text = serialize_graph(g)
    back = parse_graph(text)
    assert back == g
    assert serialize_graph(back) == text


# A field replaced by _LITERAL is written into the text as a raw literal
# that json.dumps cannot produce.
_LITERAL = "@literal@"
_REQUIRED = {"vertices": ("id", "mu", "h"), "edges": ("u", "v", "w")}
_NUMBER_FIELDS = {"vertices": ("mu", "h"), "edges": ("w",)}
_NOT_NUMBERS = ("1.0", True, None, [1.0], {"w": 1.0})
_NOT_STRINGS = (0, 1.5, False, None, ["a"], {"id": "a"})
MUTATIONS = ("drop-key", "change-type", "non-finite", "nonpositive", "duplicate-id",
             "unknown-endpoint", "deep-nesting", "oversized-integer")


def _mutated(doc: dict, mutation: str, data) -> str:
    """The text of ``doc`` with one field mutated as ``mutation`` names;
    ``doc`` has at least two vertices and one edge."""
    if mutation == "duplicate-id":
        section = "vertices"
    elif mutation == "unknown-endpoint":
        section = "edges"
    else:
        section = data.draw(st.sampled_from(["vertices", "edges"]))
    records = doc[section]
    record = records[data.draw(st.integers(0, len(records) - 1))]
    numbers = _NUMBER_FIELDS[section]
    if mutation == "drop-key":
        del record[data.draw(st.sampled_from(_REQUIRED[section]))]
    elif mutation == "change-type":
        field = data.draw(st.sampled_from(_REQUIRED[section]))
        record[field] = data.draw(st.sampled_from(
            _NOT_NUMBERS if field in numbers else _NOT_STRINGS))
    elif mutation == "non-finite":
        record[data.draw(st.sampled_from(numbers))] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    elif mutation == "nonpositive":
        record[data.draw(st.sampled_from(numbers))] = data.draw(
            st.sampled_from([0.0, -0.0, -1e-300, -1.0, -5]))
    elif mutation == "duplicate-id":
        other = records[data.draw(st.integers(0, len(records) - 1).filter(
            lambda i: records[i] is not record))]
        record["id"] = other["id"]
    elif mutation == "unknown-endpoint":
        record[data.draw(st.sampled_from(["u", "v"]))] = "not-a-vertex"
    else:
        record[data.draw(st.sampled_from(_REQUIRED[section]))] = _LITERAL
    if mutation == "deep-nesting":
        literal = DEEP_NESTING + "]" * len(DEEP_NESTING)
    else:
        literal = HUGE_INTEGER
    return json.dumps(doc).replace(json.dumps(_LITERAL), literal)


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8), log_uniform=st.booleans(),
       mutation=st.sampled_from(MUTATIONS), digit_limit=st.sampled_from([4300, 0]),
       data=st.data())
def test_a_one_field_mutation_raises_graph_format_error(seed, n, log_uniform, mutation,
                                                        digit_limit, data):
    # pytest.raises lets any other exception through, so a mutation that
    # escapes as a KeyError, TypeError or RecursionError fails here
    doc = json.loads(serialize_graph(_any_graph(seed, n, log_uniform)))
    text = _mutated(doc, mutation, data)
    with int_digit_limit(digit_limit), pytest.raises(GraphFormatError):
        parse_graph(text)


# ------------------------------------------------------------ the memo

@pytest.fixture
def empty_parse_memo(monkeypatch):
    monkeypatch.setattr(graphs, "_last", None)


@pytest.fixture
def json_loads_calls(monkeypatch):
    """The number of json.loads calls parse_graph makes, as a one-item list."""
    calls = [0]
    loads = json.loads

    def counting(*args, **kwargs):
        calls[0] += 1
        return loads(*args, **kwargs)
    monkeypatch.setattr(graphs.json, "loads", counting)
    return calls


def _memo_text() -> str:
    return serialize_graph(random_connected_graph(np.random.default_rng(43), 12,
                                                  extra_edge_prob=0.3))


def test_an_equal_text_gets_the_same_graph_without_json_loads(empty_parse_memo,
                                                              json_loads_calls):
    text = _memo_text()
    g = parse_graph(text)
    assert json_loads_calls == [1]
    again = text[:1] + text[1:]
    assert again == text and again is not text
    assert parse_graph(again) is g
    assert json_loads_calls == [1]


def test_a_one_character_change_to_a_weight_misses(empty_parse_memo, monkeypatch,
                                                   json_loads_calls):
    text = _memo_text()
    at = text.index('"w": ') + len('"w": 0.')
    digit = "1" if text[at] != "1" else "2"
    changed = text[:at] + digit + text[at + 1:]
    g = parse_graph(text)
    other = parse_graph(changed)
    assert json_loads_calls == [2]
    assert other is not g and other != g
    monkeypatch.setattr(graphs, "_last", None)
    assert parse_graph(changed) == other


@pytest.mark.parametrize("name", list(PARSE_ERRORS))
def test_a_refused_document_raises_on_every_call_and_keeps_the_entry(empty_parse_memo,
                                                                     name):
    text, message = PARSE_ERRORS[name]
    for before in (None, K2_DOC):
        if before is not None:
            parse_graph(before)
        entry = graphs._last
        for _ in range(2):
            with pytest.raises(GraphFormatError) as info:
                parse_graph(text)
            assert str(info.value) == message
            assert graphs._last is entry


@pytest.fixture
def check_calls(monkeypatch):
    """How often _value_faults and the connectivity search run."""
    calls = {"_value_faults": 0, "_connected": 0}

    def counted(name):
        check = getattr(graphs, name)

        def counting(g):
            calls[name] += 1
            return check(g)
        return counting
    for name in calls:
        monkeypatch.setattr(graphs, name, counted(name))
    return calls


def test_a_graph_checks_its_validity_once(check_calls):
    g = Graph(("a", "b", "c"), [1.0, -1.0, 1.0], [1.0, 1.0, 1.0], ((0, 1, 0.0),))
    want = ["nonpositive measure mu=-1.0 at vertex 'b'",
            "nonpositive weight w=0.0 on edge ('a', 'b')", "disconnected"]
    first = validate(g)
    assert first == want
    first.append("changed by the caller")
    first[0] = "changed by the caller"
    assert validate(g) == want
    assert validate(g) is not validate(g)
    assert check_calls == {"_value_faults": 1, "_connected": 1}


def test_parse_validate_and_the_spectrum_share_one_check(empty_parse_memo, check_calls):
    text = _doc([_A, _B, {"id": "c", "mu": 1.0, "h": 1.0}],
                [{"u": "a", "v": "b", "w": 1.0}])
    g = parse_graph(text)
    assert validate(g) == ["disconnected"]
    with pytest.raises(ValueError, match="disconnected"):
        compute_spectrum(g)
    assert parse_graph(text) is g
    assert validate(g) == ["disconnected"]
    assert check_calls == {"_value_faults": 1, "_connected": 1}


def test_threads_alternating_two_documents_each_get_their_own_graph(empty_parse_memo):
    texts = (serialize_graph(path_graph(6)), serialize_graph(complete_graph(6)))
    want = [parse_graph(text) for text in texts]
    wrong, done = [], []

    def ask(offset):
        for i in range(200):
            which = (i + offset) % 2
            if parse_graph(texts[which]) != want[which]:
                wrong.append((offset, i))
        done.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1, 2, 3]
    assert wrong == []
