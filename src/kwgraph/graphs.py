"""Weighted graph data model.

A graph here is a finite vertex set with a positive measure ``mu``, a
positive prescribed function ``h``, and undirected positively weighted
edges. Vertex order is canonical: every per-vertex quantity (``mu``,
``h``, vertex functions, solver output) is an array aligned with
``vertex_ids``. Edges are stored once, as the aligned read-only arrays
``edge_arrays``.

The value rules (positive ``mu``, ``h`` and ``w``, no self-loops, no
repeated vertex pair) live in one checker: :func:`validate` returns its
messages, plus ``"disconnected"``, and :func:`parse_graph` raises the
first of them. A document with several faults reports its structure and
type errors first, then its value errors in record order.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "Graph",
    "GraphFormatError",
    "as_vertex_function",
    "parse_graph",
    "serialize_graph",
    "validate",
]


class GraphFormatError(ValueError):
    """A graph document is malformed or breaks a per-record invariant."""


class Graph:
    """Finite weighted graph with vertex measure ``mu`` and prescribed ``h``.

    ``edges`` are undirected ``(i, j, w)`` index triples, one per
    unordered pair. They are converted once into ``edge_arrays``
    (``intp`` endpoints, ``float64`` weights), which is all the graph
    stores; ``edges`` reads the triples back from those arrays.
    Instances are immutable and every array is read-only.

    Construction enforces structure: unique ids, array shapes, integer
    endpoints (not bool) inside ``0..n-1`` and real weights, each column
    judged by the dtype numpy gives it. Value-level soundness
    (positivity, no self-loops or repeated pairs, connectivity) is
    reported by :func:`validate`, so that broken inputs can be diagnosed
    rather than refused wholesale.
    """

    def __init__(self, vertex_ids: Sequence[str], mu, h,
                 edges: Sequence[tuple[int, int, float]]) -> None:
        ids = tuple(map(str, vertex_ids))
        n = len(ids)
        if len(set(ids)) != n:
            raise ValueError("vertex ids must be unique")
        mu = np.array(mu, dtype=float)
        h = np.array(h, dtype=float)
        if mu.shape != (n,):
            raise ValueError(f"mu has shape {mu.shape}, expected ({n},)")
        if h.shape != (n,):
            raise ValueError(f"h has shape {h.shape}, expected ({n},)")
        if len(edges) == 0:
            ei, ej, ew = np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)
        elif set(map(len, edges)) != {3}:
            raise ValueError("every edge must be an (i, j, w) triple")
        else:
            columns = tuple(zip(*edges))
            # numpy promotes (True, 2) to int64, so a bool among integer
            # endpoints shows only in the Python types of its column
            if any(not {bool, np.bool_}.isdisjoint(map(type, c)) for c in columns[:2]):
                raise ValueError("edge endpoints must be integers, got bool")
            ei, ej, ew = map(np.array, columns)
        if not (ei.dtype.kind in "iu" and ej.dtype.kind in "iu"):
            raise ValueError(f"edge endpoints must be integers, got {ei.dtype} and {ej.dtype}")
        if ew.dtype.kind not in "iuf":
            raise ValueError(f"edge weights must be real numbers, got {ew.dtype}")
        outside = np.flatnonzero((np.minimum(ei, ej) < 0) | (np.maximum(ei, ej) >= n))
        if outside.size:
            k = outside[0]
            raise ValueError(
                f"edge ({ei[k]}, {ej[k]}) references a vertex outside 0..{n - 1}")
        edge_arrays = (ei.astype(np.intp, copy=False), ej.astype(np.intp, copy=False),
                       ew.astype(float, copy=False))
        for arr in (mu, h, *edge_arrays):
            arr.flags.writeable = False
        vars(self).update(vertex_ids=ids, mu=mu, h=h, edge_arrays=edge_arrays)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Graph is immutable; cannot set '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Graph is immutable; cannot delete '{name}'")

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The edges as ``(int, int, float)`` triples, read from ``edge_arrays``."""
        return tuple(zip(*(arr.tolist() for arr in self.edge_arrays)))

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_ids)

    @cached_property
    def volume(self) -> float:
        """Total measure Vol(V) = sum_x mu(x)."""
        return float(np.sum(self.mu))

    @cached_property
    def mu_min(self) -> float:
        return float(np.min(self.mu))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {vid: i for i, vid in enumerate(self.vertex_ids)}

    def vertex_index(self, vertex_id: str) -> int:
        try:
            return self._index[vertex_id]
        except KeyError:
            raise KeyError(f"unknown vertex id '{vertex_id}'") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.vertex_ids == other.vertex_ids
            and np.array_equal(self.mu, other.mu)
            and np.array_equal(self.h, other.h)
            and all(map(np.array_equal, self.edge_arrays, other.edge_arrays))
        )

    def __repr__(self) -> str:
        return (
            f"Graph({self.num_vertices} vertices, {len(self.edge_arrays[0])} edges, "
            f"volume={self.volume:g})"
        )


def as_vertex_function(g: Graph, values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce ``values`` to a float array aligned with ``g.vertex_ids``."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (g.num_vertices,):
        raise ValueError(
            f"vertex function has shape {arr.shape}, expected ({g.num_vertices},)"
        )
    return arr


def _as_number(value: object, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphFormatError(f"{context} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer literal past the float64 range
        out = math.inf
    if not math.isfinite(out):
        raise GraphFormatError(f"{context} must be finite, got {out!r}")
    return out


def _is_finite_float(value: object) -> bool:
    return type(value) is float and math.isfinite(value)


def _json_object(text: str, invalid: str = "not valid JSON",
                 not_object: str = "top level must be a JSON object") -> dict:
    """The JSON object ``text`` holds, or :class:`GraphFormatError`.

    The one reader of every document kwgraph takes in. Whatever makes
    the decoder refuse ``text`` raises, with ``invalid`` and the reason:
    bad syntax, nesting past the recursion limit, or an integer literal
    past ``sys.get_int_max_str_digits()``. A top level that is not an
    object raises ``not_object``.
    """
    try:
        doc = json.loads(text)
    # JSONDecodeError and the integer-digit limit are both ValueErrors
    except (RecursionError, ValueError) as exc:
        raise GraphFormatError(f"{invalid}: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError(not_object)
    return doc


def parse_graph(text: str) -> Graph:
    """Parse a JSON graph document.

    Expected shape::

        {"vertices": [{"id": "a", "mu": 1.0, "h": 1.0}, ...],
         "edges":    [{"u": "a", "v": "b", "w": 1.0}, ...]}

    Raises :class:`GraphFormatError` on text that is not a JSON object:
    bad syntax, nesting past the recursion limit, an integer literal past
    the integer-digit limit (``sys.get_int_max_str_digits()``), or a top
    level that is not an object. It raises the same on a wrong shape,
    missing fields, non-string, duplicate or unknown vertex ids, and
    numbers that are not numbers or not finite; these structure and type
    checks run first, record by record. Then it raises the first message
    :func:`validate` would report for nonpositive ``mu``/``h``/``w``,
    self-loops or repeated vertex pairs, in record order. Connectivity is
    deliberately not checked here; run :func:`validate` for that.
    """
    # Every check below runs once per record, and most messages embed a
    # record's repr, so a message is built only once its check has
    # failed. A number that is not a plain finite float goes through
    # _as_number.
    doc = _json_object(text)
    vertices = doc.get("vertices")
    if not (isinstance(vertices, list) and len(vertices) > 0):
        raise GraphFormatError("'vertices' must be a non-empty list")
    ids: list[str] = []
    mu: list[float] = []
    h: list[float] = []
    index: dict[str, int] = {}
    for entry in vertices:
        if not isinstance(entry, dict):
            raise GraphFormatError(f"vertex entry must be an object, got {entry!r}")
        try:
            vid, mu_val, h_val = entry["id"], entry["mu"], entry["h"]
        except KeyError as exc:
            raise GraphFormatError(
                f"vertex entry missing '{exc.args[0]}': {entry!r}") from None
        if not isinstance(vid, str):
            raise GraphFormatError(f"vertex id must be a string, got {vid!r}")
        if vid in index:
            raise GraphFormatError(f"duplicate vertex id '{vid}'")
        if not (_is_finite_float(mu_val) and _is_finite_float(h_val)):
            mu_val = _as_number(mu_val, f"mu at vertex '{vid}'")
            h_val = _as_number(h_val, f"h at vertex '{vid}'")
        index[vid] = len(ids)
        ids.append(vid)
        mu.append(mu_val)
        h.append(h_val)
    edges_doc = doc.get("edges", [])
    if not isinstance(edges_doc, list):
        raise GraphFormatError("'edges' must be a list")
    edges: list[tuple[int, int, float]] = []
    for entry in edges_doc:
        if not isinstance(entry, dict):
            raise GraphFormatError(f"edge entry must be an object, got {entry!r}")
        try:
            u, v, w = entry["u"], entry["v"], entry["w"]
        except KeyError as exc:
            raise GraphFormatError(
                f"edge entry missing '{exc.args[0]}': {entry!r}") from None
        for endpoint in (u, v):
            if not (isinstance(endpoint, str) and endpoint in index):
                raise GraphFormatError(f"edge references unknown vertex id {endpoint!r}")
        if not _is_finite_float(w):
            w = _as_number(w, f"weight on edge ('{u}', '{v}')")
        edges.append((index[u], index[v], w))
    g = Graph(ids, mu, h, edges)
    faults = _value_faults(g)
    if faults:
        raise GraphFormatError(faults[0])
    return g


def serialize_graph(g: Graph) -> str:
    """Serialize to the JSON document format accepted by :func:`parse_graph`.

    Floats are emitted with shortest round-trip precision, so
    ``parse_graph(serialize_graph(g)) == g`` exactly.
    """
    ids = g.vertex_ids
    doc = {
        "vertices": [
            {"id": vid, "mu": m, "h": hh}
            for vid, m, hh in zip(ids, g.mu.tolist(), g.h.tolist())
        ],
        "edges": [
            {"u": ids[i], "v": ids[j], "w": w} for i, j, w in g.edges
        ],
    }
    # without indent, json.dumps runs its C encoder
    return json.dumps(doc)


def validate(g: Graph) -> list[str]:
    """Return value-level violations, empty when the graph is sound.

    The messages are those :func:`parse_graph` raises, in record order:
    per vertex a nonpositive mu, then a nonpositive h; per edge a
    self-loop (which hides the edge's other faults), then a repeated
    vertex pair, then a nonpositive weight. ``"disconnected"`` comes
    last. An empty list means the graph satisfies every precondition the
    rest of the library relies on.
    """
    violations = _value_faults(g)
    if not _connected(g):
        violations.append("disconnected")
    return violations


def _value_faults(g: Graph) -> list[str]:
    ids, mu, h = g.vertex_ids, g.mu, g.h
    ei, ej, ew = g.edge_arrays
    faults: list[str] = []
    for x in np.flatnonzero(~((mu > 0) & (h > 0))).tolist():
        if not mu[x] > 0:
            faults.append(f"nonpositive measure mu={float(mu[x])!r} at vertex '{ids[x]}'")
        if not h[x] > 0:
            faults.append(f"nonpositive h={float(h[x])!r} at vertex '{ids[x]}'")
    # a pair key never collides with a self-loop's, since lo < hi < n there
    lo, hi = np.minimum(ei, ej), np.maximum(ei, ej)
    key = lo * g.num_vertices + hi
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    repeat = np.zeros(len(key), dtype=bool)
    repeat[order[1:]] = ordered[1:] == ordered[:-1]
    for e in np.flatnonzero(repeat | ~((lo < hi) & (ew > 0))).tolist():
        i, j, w = int(ei[e]), int(ej[e]), float(ew[e])
        if i == j:
            faults.append(f"self-loop at vertex '{ids[i]}'")
            continue
        if repeat[e]:
            faults.append(f"duplicate edge ('{ids[lo[e]]}', '{ids[hi[e]]}')")
        if not w > 0:
            faults.append(f"nonpositive weight w={w!r} on edge ('{ids[i]}', '{ids[j]}')")
    return faults


def _connected(g: Graph) -> bool:
    n = g.num_vertices
    if n == 0:
        return False
    adjacency: list[list[int]] = [[] for _ in range(n)]
    ei, ej, _ = g.edge_arrays
    for i, j in zip(ei.tolist(), ej.tolist()):
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        x = stack.pop()
        for y in adjacency[x]:
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == n
