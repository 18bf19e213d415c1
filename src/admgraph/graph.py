"""Metrized graphs: finite multigraphs with positive rational edge lengths.

This is the ambient object of all the potential theory in this package: a
finite connected multigraph whose edges carry exact rational lengths, viewed
as a metric space.  Vertex and edge ids are opaque strings; every operation
is a pure function returning new values, and operations that rename vertices
(contraction, restriction) return the explicit vertex surjection so divisors
and involutions can be transported deterministically.

Self-loops are rejected at construction for analytic use.  Contraction may
create them; such "loop markers" are retained (the result is built with
``allow_loops=True``) and may only be consumed by combinatorial code, never
by the potential-theory solver.

Construction checks each edge once.  A graph keeps its vertex set and edge
index from construction and builds its incidence lists on first use, so
``valence`` is O(1) and ``incident_edges`` O(deg v) after one linear pass;
``is_connected`` walks them once and keeps the answer.
Graphs derived inside the package from a checked graph (contractions,
irreducible blocks, the hyperelliptic quotient) are built without the
checks that hold by construction; input from outside always goes through
the checking constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple

from .errors import (
    ArcLengthRangeError,
    DisconnectedGraphError,
    InvalidGraphError,
    UnknownIdError,
    _shown,
)
from .rationals import as_fraction, format_rational


@dataclass(frozen=True, slots=True)
class Edge:
    id: str
    ends: Tuple[str, str]
    length: Fraction

    def other_end(self, v: str) -> str:
        u, w = self.ends
        if v == u:
            return w
        if v == w:
            return u
        raise UnknownIdError(f"vertex {_shown(v)} is not an end of edge {_shown(self.id)}")

    def is_loop(self) -> bool:
        return self.ends[0] == self.ends[1]

    @classmethod
    def _trusted(cls, id: str, ends: Tuple[str, str], length: Fraction) -> "Edge":
        """An Edge from values already in normal form (a pair of ends, a
        Fraction length), set through the slots without the frozen
        dataclass's ``__init__``."""
        e = object.__new__(cls)
        _set_id(e, id)
        _set_ends(e, ends)
        _set_length(e, length)
        return e


_set_id, _set_ends, _set_length = (Edge.__dict__[f].__set__ for f in ("id", "ends", "length"))


def _self_loop(eid: str) -> InvalidGraphError:
    """The error of the loop-free constructor at a loop."""
    return InvalidGraphError(f"edge {_shown(eid)} is a self-loop")


class MetrizedGraph:
    """Immutable multigraph with rational edge lengths.

    Construction enforces referential integrity (edge ends must be declared
    vertices, ids unique) and rejects self-loops unless ``allow_loops``.
    Connectivity and length positivity are *reported* by
    :func:`validate_graph` rather than enforced here, so that invalid
    documents can be loaded and diagnosed; analytic entry points call
    :meth:`require_analytic` before doing any work.
    """

    __slots__ = ("vertices", "edges", "allow_loops",
                 "_vertex_set", "_edge_by_id", "_incidence", "_connected")

    def __init__(self, vertices: Iterable[str], edges: Iterable, *, allow_loops: bool = False):
        verts = tuple(sorted(vertices))
        if not verts:
            raise InvalidGraphError("a graph needs at least one vertex")
        vertex_set = frozenset(verts)
        if len(vertex_set) != len(verts):
            raise InvalidGraphError("duplicate vertex ids")

        normalized: List[Edge] = []
        by_id: Dict[str, Edge] = {}
        for item in edges:
            if isinstance(item, Edge):
                eid, ends, length = item.id, item.ends, item.length
            else:
                eid, ends, length = item
                eid = str(eid)
            u, w = ends[0], ends[1]
            if type(length) is not Fraction:
                length = as_fraction(length)
            if u not in vertex_set or w not in vertex_set:
                raise UnknownIdError(f"edge {_shown(eid)} references an unknown vertex")
            if u == w and not allow_loops:
                raise _self_loop(eid)
            if (
                type(item) is Edge
                and length is item.length
                and type(ends) is tuple
                and len(ends) == 2
            ):
                e = item  # already in normal form, and immutable
            else:
                e = Edge._trusted(eid, (u, w), length)
            normalized.append(e)
            by_id[eid] = e
        if len(by_id) != len(normalized):
            raise InvalidGraphError("duplicate edge ids")
        self._set(verts, tuple(normalized), allow_loops, vertex_set, by_id)

    @classmethod
    def _trusted(
        cls, vertices: Tuple[str, ...], edges: Tuple[Edge, ...], allow_loops: bool
    ) -> "MetrizedGraph":
        """A graph from a sorted vertex tuple and Edge values with unique ids
        and ends among the vertices (loops only with ``allow_loops``), with
        no checks: only for graphs derived from a checked one."""
        g = object.__new__(cls)
        g._set(vertices, edges, allow_loops, frozenset(vertices), {e.id: e for e in edges})
        return g

    def _set(self, vertices, edges, allow_loops, vertex_set, edge_by_id) -> None:
        init = object.__setattr__
        init(self, "vertices", vertices)
        init(self, "edges", edges)
        init(self, "allow_loops", allow_loops)
        init(self, "_vertex_set", vertex_set)
        init(self, "_edge_by_id", edge_by_id)
        init(self, "_incidence", None)
        init(self, "_connected", None)

    def __setattr__(self, name, value):
        raise AttributeError("MetrizedGraph is immutable")

    def __eq__(self, other):
        if not isinstance(other, MetrizedGraph):
            return NotImplemented
        return set(self.vertices) == set(other.vertices) and set(self.edges) == set(other.edges)

    def __repr__(self):
        return f"MetrizedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    # -- lookups -------------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise UnknownIdError(f"unknown edge {_shown(edge_id)}") from None

    def require_vertex(self, v: str) -> None:
        if v not in self._vertex_set:
            raise UnknownIdError(f"unknown vertex {_shown(v)}")

    def edge_ids(self) -> Tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    def adjacency(self) -> Dict[str, List[Tuple[str, str]]]:
        """vertex -> sorted list of (neighbour, edge id); loops appear twice."""
        adj: Dict[str, List[Tuple[str, str]]] = {v: [] for v in self.vertices}
        for e in self.edges:
            u, w = e.ends
            adj[u].append((w, e.id))
            if u != w:
                adj[w].append((u, e.id))
            else:
                adj[u].append((w, e.id))
        for v in adj:
            adj[v].sort()
        return adj

    def _incident(self) -> Dict[str, List[Edge]]:
        table = self._incidence
        if table is None:
            table = {v: [] for v in self.vertices}
            for e in self.edges:
                u, w = e.ends
                table[u].append(e)
                table[w].append(e)
            object.__setattr__(self, "_incidence", table)
        return table

    def incident_edges(self, v: str) -> Tuple[Edge, ...]:
        """The edges with an end at v, in edge order; a loop is listed twice."""
        self.require_vertex(v)
        return tuple(self._incident()[v])

    def valence(self, v: str) -> int:
        """Number of edge ends at v (a loop counts twice)."""
        self.require_vertex(v)
        return len(self._incident()[v])

    def loops(self) -> Tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.is_loop())

    def total_length(self) -> Fraction:
        return sum((e.length for e in self.edges), Fraction(0))

    def is_connected(self) -> bool:
        """Walked once per graph; the answer is kept."""
        if self._connected is not None:
            return self._connected
        incident = self._incident()
        start = self.vertices[0]
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for e in incident[v]:
                u, w = e.ends
                x = w if u == v else u
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        connected = len(seen) == len(self.vertices)
        object.__setattr__(self, "_connected", connected)
        return connected

    def first_betti_number(self) -> int:
        if not self.is_connected():
            raise DisconnectedGraphError("Betti number computed for connected graphs only")
        return len(self.edges) - len(self.vertices) + 1

    def require_analytic(self) -> None:
        """Guard for the potential-theory pipeline: connected, positive
        lengths, no loops."""
        report = validate_graph(self)
        if not report.valid:
            edge_problem = any(e.length <= 0 or e.is_loop() for e in self.edges)
            raise (InvalidGraphError if edge_problem else DisconnectedGraphError)(report.problems[0])


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    problems: Tuple[str, ...]


def validate_graph(g: MetrizedGraph) -> ValidationReport:
    """Report all invariant violations; a valid report certifies the graph
    for analytic use."""
    problems = []
    for e in g.edges:
        if e.length <= 0:
            problems.append(f"edge {_shown(e.id)}: nonpositive length {format_rational(e.length)}")
        if e.is_loop():
            problems.append(f"edge {_shown(e.id)}: self-loop at {_shown(e.ends[0])}")
    if not g.is_connected():
        problems.append("graph is not connected")
    return ValidationReport(valid=not problems, problems=tuple(problems))


class Divisor:
    """Formal rational-coefficient sum of vertices (a polarization).

    Zero coefficients are dropped at construction; the degree is the exact
    coefficient sum.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Mapping[str, object] | None = None):
        coeffs = {}
        for v, c in (coefficients or {}).items():
            c = as_fraction(c)
            if c != 0:
                coeffs[v] = c
        object.__setattr__(self, "coefficients", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Divisor is immutable")

    def coefficient(self, v: str) -> Fraction:
        return self.coefficients.get(v, Fraction(0))

    @property
    def degree(self) -> Fraction:
        return sum(self.coefficients.values(), Fraction(0))

    def support(self) -> Tuple[str, ...]:
        return tuple(sorted(self.coefficients))

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __repr__(self):
        terms = " + ".join(
            f"{format_rational(c)}*{v}" for v, c in sorted(self.coefficients.items())
        )
        return f"Divisor({terms or '0'})"


def canonical_divisor(g: MetrizedGraph) -> Divisor:
    """(valence - 2) at every vertex; degree 2*b1 - 2 on connected graphs."""
    return Divisor({v: Fraction(g.valence(v) - 2) for v in g.vertices})


# -- contraction / restriction ----------------------------------------


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the lexicographically smaller id as representative
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def contract(g: MetrizedGraph, edge_ids: Iterable[str]) -> Tuple[MetrizedGraph, Dict[str, str]]:
    """Collapse the given edges; remaining edges keep their ids and lengths.

    Returns the contracted graph together with the vertex surjection
    Vert(G) -> Vert(G_S).  Merged vertices are named by the lexicographically
    smallest member id.  Remaining edges whose ends become identified are
    kept as loop markers (usable by combinatorics, not by the solver).
    """
    ids = set(edge_ids)
    uf = _UnionFind(g.vertices)
    for eid in ids:
        u, w = g.edge(eid).ends
        if u != w:
            uf.union(u, w)
    vmap = {v: uf.find(v) for v in g.vertices}
    new_edges = []
    for e in g.edges:
        if e.id in ids:
            continue
        u, w = e.ends
        ends = (vmap[u], vmap[w])
        new_edges.append(e if ends == e.ends else Edge._trusted(e.id, ends, e.length))
    new_vertices = tuple(sorted(set(vmap.values())))
    return MetrizedGraph._trusted(new_vertices, tuple(new_edges), True), vmap


def restrict(g: MetrizedGraph, edge_ids: Iterable[str]) -> Tuple[MetrizedGraph, Dict[str, str]]:
    """Contract the complement: G^S = G_{Ed(G) \\ S}."""
    keep = set(edge_ids)
    for eid in keep:
        g.edge(eid)
    complement = [e.id for e in g.edges if e.id not in keep]
    return contract(g, complement)


def push_divisor(d: Divisor, vertex_map: Mapping[str, str]) -> Divisor:
    """Push a divisor through a vertex surjection; the degree is preserved."""
    coeffs: Dict[str, Fraction] = {}
    for v, c in d.coefficients.items():
        if v not in vertex_map:
            raise UnknownIdError(f"vertex {_shown(v)} outside the map domain")
        image = vertex_map[v]
        coeffs[image] = coeffs.get(image, Fraction(0)) + c
    return Divisor(coeffs)


def one_point_sum(g1: MetrizedGraph, v1: str, g2: MetrizedGraph, v2: str) -> MetrizedGraph:
    """Disjoint union with v1 identified to v2 (the join keeps v1's id)."""
    g1.require_vertex(v1)
    g2.require_vertex(v2)
    others2 = [v for v in g2.vertices if v != v2]
    clash = (set(g1.vertices) & set(others2)) or (set(g1.edge_ids()) & set(g2.edge_ids()))
    if clash:
        raise InvalidGraphError(f"one_point_sum requires disjoint ids; shared: {sorted(clash)}")
    rename = {v2: v1}
    vertices = list(g1.vertices) + others2
    edges = list(g1.edges)
    for e in g2.edges:
        u, w = (rename.get(x, x) for x in e.ends)
        edges.append(Edge(e.id, (u, w), e.length))
    loops = g1.allow_loops or g2.allow_loops
    return MetrizedGraph(vertices, edges, allow_loops=loops)


# -- irreducible decomposition ----------------------------------------


def irreducible_decomposition(g: MetrizedGraph) -> List[MetrizedGraph]:
    """Blocks of the graph: maximal subgraphs without a separating vertex.

    These are the closures of the connected components of G minus its cut
    vertices; a bridge edge is a block of its own, and the one-point graph
    decomposes into nothing.  Components are returned in lexicographic order
    of their smallest vertex id (then vertex tuple, then smallest edge id)
    so output is deterministic.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("decomposition requires a connected graph")

    blocks: List[List[str]] = [[e.id] for e in g.loops()]
    adj = g.adjacency()
    disc: Dict[str, int] = {}
    low: Dict[str, int] = {}
    edge_stack: List[str] = []
    used_edges = set(e.id for e in g.loops())
    counter = [0]

    def dfs(root: str) -> None:
        stack = [(root, None, iter(adj[root]))]
        disc[root] = low[root] = counter[0]
        counter[0] += 1
        while stack:
            v, parent_eid, it = stack[-1]
            advanced = False
            for w, eid in it:
                if eid == parent_eid or eid in used_edges:
                    continue
                used_edges.add(eid)
                edge_stack.append(eid)
                if w not in disc:
                    disc[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append((w, eid, iter(adj[w])))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                u, _, _ = stack[-1]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    comp = []
                    while True:
                        eid = edge_stack.pop()
                        comp.append(eid)
                        if eid == parent_eid:
                            break
                    blocks.append(comp)

    if len(g.vertices) > 1 or g.edges:
        dfs(g.vertices[0])

    result = []
    for comp in blocks:
        edges = tuple(g.edge(eid) for eid in comp)
        verts = tuple(sorted({v for e in edges for v in e.ends}))
        loops = any(e.is_loop() for e in edges)
        result.append(MetrizedGraph._trusted(verts, edges, loops))
    result.sort(key=lambda b: (b.vertices[0], b.vertices, min(b.edge_ids())))
    return result


def subdivide_edge(g: MetrizedGraph, edge_id: str, t: Fraction) -> MetrizedGraph:
    """Split an edge at arc length t from its first end.

    The edge is replaced by two edges of lengths t and length - t through a
    fresh degree-2 vertex; as a metric space the graph is unchanged.
    Deterministic names: vertex "<id>.m", edges "<id>.a"/"<id>.b".
    """
    e = g.edge(edge_id)
    t = as_fraction(t)
    if not (0 < t < e.length):
        raise ArcLengthRangeError(f"t out of range: need 0 < {t} < {e.length}")
    mid, first, second = f"{edge_id}.m", f"{edge_id}.a", f"{edge_id}.b"
    if mid in g._vertex_set:
        raise InvalidGraphError(f"vertex id {_shown(mid)} already taken")
    if first in g._edge_by_id or second in g._edge_by_id:
        raise InvalidGraphError("subdivision edge ids already taken")
    u, w = e.ends
    edges = [x for x in g.edges if x.id != edge_id]
    edges.append(Edge(first, (u, mid), t))
    edges.append(Edge(second, (mid, w), e.length - t))
    return MetrizedGraph(list(g.vertices) + [mid], edges, allow_loops=g.allow_loops)
