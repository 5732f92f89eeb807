"""Weighted graph data model.

A graph here is a finite vertex set with a positive measure ``mu``, a
positive prescribed function ``h``, and undirected positively weighted
edges. Vertex order is canonical: every per-vertex quantity (``mu``,
``h``, vertex functions, solver output) is an array aligned with
``vertex_ids``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class Graph:
    """Finite weighted graph with vertex measure ``mu`` and prescribed ``h``.

    Edges are undirected and stored once per unordered pair as
    ``(i, j, w)`` index triples. Instances are immutable; the arrays are
    marked read-only. Structural integrity (shapes, index ranges, unique
    ids) is enforced at construction; value-level soundness (positivity,
    no self-loops or duplicate pairs, connectivity) is reported by
    :func:`validate` so that broken inputs can be diagnosed rather than
    refused wholesale.
    """

    vertex_ids: tuple[str, ...]
    mu: np.ndarray
    h: np.ndarray
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        ids = tuple(str(v) for v in self.vertex_ids)
        n = len(ids)
        if len(set(ids)) != n:
            raise ValueError("vertex ids must be unique")
        mu = np.array(self.mu, dtype=float)
        h = np.array(self.h, dtype=float)
        if mu.shape != (n,):
            raise ValueError(f"mu has shape {mu.shape}, expected ({n},)")
        if h.shape != (n,):
            raise ValueError(f"h has shape {h.shape}, expected ({n},)")
        edges = tuple((int(i), int(j), float(w)) for i, j, w in self.edges)
        for i, j, _ in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) references a vertex outside 0..{n - 1}")
        mu.flags.writeable = False
        h.flags.writeable = False
        object.__setattr__(self, "vertex_ids", ids)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "edges", edges)

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
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge endpoints and weights as aligned arrays ``(i, j, w)``."""
        if self.edges:
            ei = np.array([e[0] for e in self.edges], dtype=np.intp)
            ej = np.array([e[1] for e in self.edges], dtype=np.intp)
            ew = np.array([e[2] for e in self.edges], dtype=float)
        else:
            ei = np.empty(0, dtype=np.intp)
            ej = np.empty(0, dtype=np.intp)
            ew = np.empty(0, dtype=float)
        for arr in (ei, ej, ew):
            arr.flags.writeable = False
        return ei, ej, ew

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
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return (
            f"Graph({self.num_vertices} vertices, {len(self.edges)} edges, "
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
    if not np.isfinite(out):
        raise GraphFormatError(f"{context} must be finite, got {out!r}")
    return out


def _is_positive_float(value: object) -> bool:
    return type(value) is float and 0.0 < value < math.inf


def parse_graph(text: str) -> Graph:
    """Parse a JSON graph document.

    Expected shape::

        {"vertices": [{"id": "a", "mu": 1.0, "h": 1.0}, ...],
         "edges":    [{"u": "a", "v": "b", "w": 1.0}, ...]}

    Raises :class:`GraphFormatError` on malformed JSON, missing fields,
    duplicate or unknown vertex ids, self-loops, duplicate edge pairs,
    or nonpositive ``mu``/``h``/``w``. Connectivity is deliberately not
    checked here; run :func:`validate` for that.
    """
    # Every check below runs once per record, and most messages embed a
    # record's repr, so a message is built only once its check has
    # failed. A number that is not a plain finite positive float goes
    # through _as_number and the positivity checks, in the order they
    # are reported.
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("top level must be a JSON object")
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
        if not (_is_positive_float(mu_val) and _is_positive_float(h_val)):
            mu_val = _as_number(mu_val, f"mu at vertex '{vid}'")
            h_val = _as_number(h_val, f"h at vertex '{vid}'")
            if not mu_val > 0:
                raise GraphFormatError(
                    f"nonpositive measure mu={mu_val!r} at vertex '{vid}'")
            if not h_val > 0:
                raise GraphFormatError(f"nonpositive h={h_val!r} at vertex '{vid}'")
        index[vid] = len(ids)
        ids.append(vid)
        mu.append(mu_val)
        h.append(h_val)
    edges_doc = doc.get("edges", [])
    if not isinstance(edges_doc, list):
        raise GraphFormatError("'edges' must be a list")
    edges: list[tuple[int, int, float]] = []
    seen_pairs: set[tuple[int, int]] = set()
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
        i = index[u]
        j = index[v]
        if i == j:
            raise GraphFormatError(f"self-loop at vertex '{u}'")
        pair = (i, j) if i < j else (j, i)
        if pair in seen_pairs:
            raise GraphFormatError(f"duplicate edge ('{ids[pair[0]]}', '{ids[pair[1]]}')")
        seen_pairs.add(pair)
        if not _is_positive_float(w):
            w = _as_number(w, f"weight on edge ('{u}', '{v}')")
            if not w > 0:
                raise GraphFormatError(f"nonpositive weight w={w!r} on edge ('{u}', '{v}')")
        edges.append((i, j, w))
    return Graph(tuple(ids), np.array(mu), np.array(h), tuple(edges))


def serialize_graph(g: Graph) -> str:
    """Serialize to the JSON document format accepted by :func:`parse_graph`.

    Floats are emitted with shortest round-trip precision, so
    ``parse_graph(serialize_graph(g)) == g`` exactly.
    """
    doc = {
        "vertices": [
            {"id": vid, "mu": float(m), "h": float(hh)}
            for vid, m, hh in zip(g.vertex_ids, g.mu, g.h)
        ],
        "edges": [
            {"u": g.vertex_ids[i], "v": g.vertex_ids[j], "w": w}
            for i, j, w in g.edges
        ],
    }
    return json.dumps(doc, indent=2)


def validate(g: Graph) -> list[str]:
    """Return value-level violations, empty when the graph is sound.

    Checks positivity of mu, h, and edge weights, absence of self-loops
    and duplicate pairs, and connectivity. The returned strings are
    human-readable descriptors; an empty list means the graph satisfies
    every precondition the rest of the library relies on.
    """
    violations: list[str] = []
    for vid, m in zip(g.vertex_ids, g.mu):
        if not m > 0:
            violations.append(f"nonpositive measure mu={m!r} at vertex '{vid}'")
    for vid, hh in zip(g.vertex_ids, g.h):
        if not hh > 0:
            violations.append(f"nonpositive h={hh!r} at vertex '{vid}'")
    seen_pairs: set[tuple[int, int]] = set()
    for i, j, w in g.edges:
        if i == j:
            violations.append(f"self-loop at vertex '{g.vertex_ids[i]}'")
            continue
        if not w > 0:
            violations.append(
                f"nonpositive weight w={w!r} on edge "
                f"('{g.vertex_ids[i]}', '{g.vertex_ids[j]}')"
            )
        pair = (min(i, j), max(i, j))
        if pair in seen_pairs:
            violations.append(
                f"duplicate edge ('{g.vertex_ids[pair[0]]}', '{g.vertex_ids[pair[1]]}')"
            )
        seen_pairs.add(pair)
    if not _connected(g):
        violations.append("disconnected")
    return violations


def _connected(g: Graph) -> bool:
    n = g.num_vertices
    if n == 0:
        return False
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i, j, _ in g.edges:
        if i != j:
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
