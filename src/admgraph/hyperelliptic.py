"""Graphs with a hyperelliptic involution.

A hyperelliptic graph is a connected graph G with an order-2 homeomorphism
iota such that (1) every edge is a closed interval (no self-loops),
(2) iota(e) != e for every edge, (3) every non-fixed vertex has at least
three incident edge ends, and (4) the quotient G/<iota> is a tree.

Edges are classified by e . iota(e): empty intersection (disjoint), one
common vertex (one-jointed), two (two-jointed, always a parallel pair
forming a simple component).  Edge classes {e, iota(e)} are named by the
lexicographically smaller member id so polynomial variables and documents
are deterministic.

``validate_hyperelliptic`` is linear in the size of the graph: after the
connectivity and length checks, one pass over the edges checks the
involution edge by edge, finds loops (axiom 1) and fixed edges (axiom 2)
and derives the edge kinds and classes; one pass over the vertices checks
valences (axiom 3) and derives the quotient's vertices, and the quotient
tree test (axiom 4) runs over the classes.  ``check_involution`` shares
the involution checks.

``normalize_fiber`` turns the dual graph of a semistable fiber (where
iota-fixed edges and loops are allowed) into an honest hyperelliptic graph:
fixed edges are split at their midpoint (the new vertex is fixed, the two
halves are swapped) and non-fixed vertices with exactly two edge ends are
removed, merging their edges; both moves preserve the underlying metric
space.  Chains merge by one ``graph._UnionFind`` over the edge ids: the two
edges at a removable vertex join one set, so each set is a maximal chain,
and its root, the smallest id, names the merged edge, which has the chain's
total length, its ends sorted, and the least iota-image as partner.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple

from .errors import (
    AxiomViolationError,
    DisconnectedGraphError,
    FixedVertexError,
    InvolutionMalformedError,
    NotHyperellipticConfigurationError,
    PolarizationShapeError,
    SolverFaultError,
    UnknownIdError,
    _shown,
)
from .graph import (
    Divisor,
    Edge,
    MetrizedGraph,
    _Frozen,
    _UnionFind,
    contract,
    push_divisor,
)


class Involution(_Frozen):
    """Order-<=2 symmetry: permutations of vertex and edge ids."""

    __slots__ = ("vertex_map", "edge_map")

    def __init__(self, vertex_map: Mapping[str, str], edge_map: Mapping[str, str]):
        object.__setattr__(self, "vertex_map", dict(vertex_map))
        object.__setattr__(self, "edge_map", dict(edge_map))

    def vertex(self, v: str) -> str:
        try:
            return self.vertex_map[v]
        except KeyError:
            raise UnknownIdError(f"involution undefined on vertex {_shown(v)}") from None

    def edge(self, e: str) -> str:
        try:
            return self.edge_map[e]
        except KeyError:
            raise UnknownIdError(f"involution undefined on edge {_shown(e)}") from None


class EdgeKind(Enum):
    DISJOINT = "disjoint"
    ONE_JOINTED = "one-jointed"
    TWO_JOINTED = "two-jointed"


# |e . iota(e)| -> kind, for an edge e that is not a loop
_KIND_BY_SHARED_ENDS = (EdgeKind.DISJOINT, EdgeKind.ONE_JOINTED, EdgeKind.TWO_JOINTED)


def _edge_pass(g: MetrizedGraph, vmap: Mapping[str, str], emap: Mapping[str, str]):
    """The involution checks, then one pass over the edges.

    Raises InvolutionMalformedError unless the maps are permutations of the
    vertex and edge ids and the vertex map squares to the identity, and then
    at the first edge where the edge map does not square to the identity or
    breaks endpoints or lengths.  Returns the first loop and the first fixed
    edge (or None), and the edge kinds, the class of each edge and the
    members of each class, in edge order."""
    vset = g._vertex_set
    if vmap.keys() != vset or set(vmap.values()) != vset:
        raise InvolutionMalformedError("vertex map is not a permutation of the vertex set")
    eset = g._edge_by_id.keys()
    if emap.keys() != eset or set(emap.values()) != eset:
        raise InvolutionMalformedError("edge map is not a permutation of the edge set")
    for v in g.vertices:
        if vmap[vmap[v]] != v:
            raise InvolutionMalformedError(f"vertex map does not square to identity at {_shown(v)}")
    edge_by_id = g._edge_by_id
    loop = fixed_edge = None
    kinds: Dict[str, EdgeKind] = {}
    class_of: Dict[str, str] = {}
    members: Dict[str, Tuple[str, ...]] = {}
    for e in g.edges:
        eid = e.id
        partner_id = emap[eid]
        partner = edge_by_id[partner_id]
        if emap[partner_id] != eid:
            raise InvolutionMalformedError(f"edge map does not square to identity at {_shown(eid)}")
        u, w = e.ends
        a, b = vmap[u], vmap[w]
        x, y = partner.ends
        if not ((a == x and b == y) or (a == y and b == x)):
            raise InvolutionMalformedError(f"edge map incompatible with endpoints at {_shown(eid)}")
        if partner.length is not e.length and partner.length != e.length:
            raise InvolutionMalformedError(f"lengths differ within the orbit of {_shown(eid)}")
        if partner_id == eid and fixed_edge is None:
            fixed_edge = eid
        if u == w and loop is None:
            loop = eid
        kinds[eid] = _KIND_BY_SHARED_ENDS[(u == x or u == y) + (w == x or w == y)]
        pair = (eid, partner_id) if eid < partner_id else (partner_id, eid)
        class_of[eid] = pair[0]
        members.setdefault(pair[0], pair)
    return loop, fixed_edge, kinds, class_of, members


def check_involution(g: MetrizedGraph, inv: Involution) -> None:
    """Structural validation: permutations squaring to the identity that are
    endpoint- and length-compatible; fixed edges and loops are allowed, as
    in a fiber's dual graph.  Raises InvolutionMalformedError."""
    _edge_pass(g, inv.vertex_map, inv.edge_map)


@dataclass(frozen=True, eq=False)
class HyperellipticGraph:
    """A validated hyperelliptic graph with its derived combinatorics."""

    graph: MetrizedGraph
    involution: Involution
    fixed_vertices: frozenset
    nonfixed_vertices: frozenset
    edge_kinds: Mapping[str, EdgeKind]
    class_members: Mapping[str, Tuple[str, ...]]
    class_of: Mapping[str, str]
    quotient: MetrizedGraph

    def classes(self) -> Tuple[str, ...]:
        return tuple(sorted(self.class_members))

    def class_kind(self, cname: str) -> EdgeKind:
        return self.edge_kinds[self.class_members[cname][0]]

    def class_length(self, cname: str) -> Fraction:
        return self.graph.edge(self.class_members[cname][0]).length

    def classes_of_kind(self, kind: EdgeKind) -> Tuple[str, ...]:
        return tuple(c for c in self.classes() if self.class_kind(c) is kind)

    def lengths(self) -> Dict[str, Fraction]:
        return {c: self.class_length(c) for c in self.classes()}


def validate_hyperelliptic(g: MetrizedGraph, inv: Involution) -> HyperellipticGraph:
    """Check the four axioms and return the graph with derived data.

    Raises AxiomViolationError(n) naming the failed clause, or
    InvolutionMalformedError if the involution itself is broken.  When
    several checks fail, the one raised is the first in this order:
    connectivity, positive lengths, :func:`check_involution`, axioms (1)
    to (4).
    """
    if not g.is_connected():
        raise DisconnectedGraphError("hyperelliptic graphs are connected")
    if any(e.length.numerator <= 0 for e in g.edges):  # denominators are positive
        raise AxiomViolationError(1, "edge lengths must be positive")
    vmap = inv.vertex_map
    loop, fixed_edge, kinds, class_of, members = _edge_pass(g, vmap, inv.edge_map)
    if loop is not None:
        raise AxiomViolationError(1, f"edge {_shown(loop)} is not a closed interval")
    if fixed_edge is not None:
        raise AxiomViolationError(2, f"iota fixes edge {_shown(fixed_edge)}")

    fixed = []
    vclass: Dict[str, str] = {}
    qvertices = []
    for v in g.vertices:
        w = vmap[v]
        if w == v:
            fixed.append(v)
        elif g.valence(v) < 3:
            raise AxiomViolationError(3, f"non-fixed vertex {_shown(v)} has fewer than three edges")
        if v <= w:
            vclass[v] = v
            qvertices.append(v)
        else:
            vclass[v] = w

    qedges = []
    quotient_loop = False
    for cname in sorted(members):
        e = g._edge_by_id[cname]
        u, w = e.ends
        ends = (vclass[u], vclass[w])
        quotient_loop = quotient_loop or ends[0] == ends[1]
        qedges.append(Edge._trusted(cname, ends, e.length))
    if quotient_loop or len(qedges) != len(qvertices) - 1:
        raise AxiomViolationError(4, "the quotient by iota has a loop (it must be a tree)")

    fixed_set = frozenset(fixed)
    return HyperellipticGraph(
        graph=g,
        involution=inv,
        fixed_vertices=fixed_set,
        nonfixed_vertices=g._vertex_set - fixed_set,
        edge_kinds=kinds,
        class_members=members,
        class_of=class_of,
        quotient=MetrizedGraph._trusted(tuple(qvertices), tuple(qedges), True),
    )


def contract_classes(
    h: HyperellipticGraph, class_names: Iterable[str]
) -> Tuple[MetrizedGraph, Involution, Dict[str, str]]:
    """Contract whole edge classes, transporting the involution.

    The result is raw (it may fail the axioms, e.g. for restriction tests);
    validate it with :func:`validate_hyperelliptic` if structure is needed.
    """
    names = set(class_names)
    for c in names:
        if c not in h.class_members:
            raise UnknownIdError(f"unknown edge class {_shown(c)}")
    edge_ids = [e for c in names for e in h.class_members[c]]
    return _contract_involution(h.graph, h.involution, edge_ids)


def _contract_involution(
    g: MetrizedGraph, inv: Involution, edge_ids: Iterable[str]
) -> Tuple[MetrizedGraph, Involution, Dict[str, str]]:
    """Contract the edges of g and transport inv: each vertex goes to the
    contraction of its image and each surviving edge keeps its image."""
    contracted, vmap = contract(g, edge_ids)
    transported = Involution(
        {v: vmap[inv.vertex(v)] for v in contracted.vertices},
        {e.id: inv.edge(e.id) for e in contracted.edges},
    )
    return contracted, transported, vmap


def graph_size(h: HyperellipticGraph) -> int:
    """sz(G): 1 for a simple component, #one-jointed classes - 1 otherwise,
    summed over irreducible components; this is b1 = #fixed vertices - 1.

    With F fixed and N non-fixed quotient vertices, |V| = F + 2N and, by
    axioms 2 and 4, |E| = 2(F + N - 1), so b1 = F - 1.  A simple component
    has b1 = 1.  In any other component each fixed vertex carries exactly
    one one-jointed class (a second would make it a cut vertex) and each
    such class meets one fixed vertex, so there too sz = b1 (the count
    above, applied to the component); b1 is additive over components.
    """
    return len(h.fixed_vertices) - 1


def nu_counts(h: HyperellipticGraph, v: str) -> Tuple[int, int, int]:
    """(nu0, nu1, nu) at a non-fixed vertex: numbers of disjoint and
    one-jointed edges starting from v, and their sum.

    The sum is the valence of v: there is no loop at v (axiom 1), and a
    two-jointed edge at v would share both ends with its image, so join v
    to iota v, and its class would be a loop of the quotient (axiom 4).  So
    every edge at v is disjoint or one-jointed."""
    h.graph.require_vertex(v)
    if v in h.fixed_vertices:
        raise FixedVertexError(f"vertex {_shown(v)} is fixed; nu is defined on non-fixed vertices")
    nu = h.graph.valence(v)
    nu0 = sum(h.edge_kinds[e.id] is EdgeKind.DISJOINT for e in h.graph.incident_edges(v))
    return nu0, nu - nu0, nu


def divisor_is_invariant(d: Divisor, inv: Involution) -> bool:
    return all(d.coefficient(inv.vertex(v)) == c for v, c in d.coefficients.items())


def w_weight(h: HyperellipticGraph, d: Divisor, cname: str) -> Fraction:
    """w(e-class) = min{a, b} where restricting the graph to the class gives
    the simple graph and the divisor pushes to aP + bQ."""
    for v in d.support():
        h.graph.require_vertex(v)
    if not divisor_is_invariant(d, h.involution):
        raise PolarizationShapeError("w is defined for iota-invariant divisors")
    if cname not in h.class_members:
        raise UnknownIdError(f"unknown edge class {_shown(cname)}")
    return _w_weight(h, d, cname)


def _w_weight(h: HyperellipticGraph, d: Divisor, cname: str) -> Fraction:
    """w_weight for a known class and a divisor already known to be
    iota-invariant: one contraction of every other class.  By the axioms
    every leaf of the quotient tree is fixed, so each side of the class
    contracts to one fixed vertex and the restriction is the simple graph
    on the two vertices left."""
    others = [e for c, pair in h.class_members.items() if c != cname for e in pair]
    restricted, vmap = contract(h.graph, others)
    if len(restricted.vertices) != 2:
        raise SolverFaultError(f"restriction to class {_shown(cname)} is not the simple graph")
    pushed = push_divisor(d, vmap)
    p, q = restricted.vertices
    return min(pushed.coefficient(p), pushed.coefficient(q))


# -- semistable-fiber normalization -----------------------------------


def normalize_fiber(dual: MetrizedGraph, inv: Involution) -> HyperellipticGraph:
    """Normalize a fiber's dual graph (fixed edges/loops allowed) into a
    hyperelliptic graph isometric to the input.

    Every iota-fixed edge is split at its midpoint: its endpoints must be
    swapped by iota (or it must be a loop at a fixed vertex, which becomes a
    parallel pair); the midpoint is fixed and the halves are swapped.  Then
    every non-fixed vertex with exactly two edge ends is removed, merging
    its edges and adding lengths.  The caller must contract positive-type
    nodes first; any axiom failure in the result is reported as
    NotHyperellipticConfigurationError.
    """
    check_involution(dual, inv)

    edges = {e.id: e for e in dual.edges}
    vmap = dict(inv.vertex_map)
    emap = dict(inv.edge_map)

    for eid in sorted(edges):
        if emap[eid] != eid:
            continue
        e = edges[eid]
        u, w = e.ends
        # a fixed loop sits at a fixed vertex (check_involution), and splits
        # into a parallel pair
        if u != w and not (vmap[u] == w and vmap[w] == u):
            raise NotHyperellipticConfigurationError(
                f"fixed edge {_shown(eid)} does not swap its endpoints "
                "(positive-type nodes must be contracted first)"
            )
        mid, first, second = f"{eid}.m", f"{eid}.a", f"{eid}.b"
        if mid in vmap or first in edges or second in edges:
            raise NotHyperellipticConfigurationError(
                f"midpoint ids for {_shown(eid)} already taken"
            )
        half = e.length / 2
        del edges[eid]
        del emap[eid]
        edges[first] = Edge(first, (u, mid), half)
        edges[second] = Edge(second, (mid, w), half)
        vmap[mid] = mid
        emap[first] = second
        emap[second] = first

    # drop the non-fixed vertices with exactly two edge ends: the two edges
    # at each join one union-find set, so each set with such a vertex is a
    # maximal chain of them, and its root is the chain's smallest edge id
    incident: Dict[str, List[str]] = {v: [] for v in vmap}
    for e in edges.values():
        incident[e.ends[0]].append(e.id)
        incident[e.ends[1]].append(e.id)
    removable = {v for v in vmap if vmap[v] != v and len(incident[v]) == 2}
    uf = _UnionFind(edges)
    for v in removable:
        uf.union(*incident[v])
    tops = {}  # chain root -> the chain's largest removable vertex
    for v in sorted(removable):
        tops[uf.find(incident[v][0])] = v
    chains: Dict[str, List[Edge]] = {root: [] for root in tops}
    ends: Dict[str, List[str]] = {root: [] for root in tops}  # a cycle has none
    for e in edges.values():
        root = uf.find(e.id)
        if root in chains:
            chains[root].append(e)
            ends[root] += [v for v in e.ends if v not in removable]
    cycle_tops = [tops[root] for root, chain_ends in ends.items() if not chain_ends]
    if cycle_tops:
        # merging a cycle's vertices one at a time in sorted order leaves a
        # loop at its largest vertex
        raise NotHyperellipticConfigurationError(
            f"cannot remove vertex {_shown(min(cycle_tops))}: it carries a loop"
        )
    # iota maps chains to chains and no chain to itself (once the fixed
    # edges are split, no interior point is fixed), so the merged edge named
    # by its chain's smallest id pairs with the smallest of the iota-images.
    # Merged edges go last, ordered by their chains' largest interior vertex.
    merged = []
    for root in sorted(chains, key=tops.__getitem__):
        chain = chains[root]
        merged.append(Edge(root, tuple(sorted(ends[root])), sum(e.length for e in chain)))
        partner = min(emap[e.id] for e in chain)
        for e in chain:
            del edges[e.id], emap[e.id]
        emap[root] = partner
    for v in removable:
        del vmap[v]
    graph = MetrizedGraph(vmap.keys(), list(edges.values()) + merged, allow_loops=True)
    try:
        return validate_hyperelliptic(graph, Involution(vmap, emap))
    except (AxiomViolationError, InvolutionMalformedError, DisconnectedGraphError) as exc:
        raise NotHyperellipticConfigurationError(str(exc)) from exc
