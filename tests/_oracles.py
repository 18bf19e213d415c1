"""Independent oracles, deliberately not sharing code with the library.

* Resistance by the weighted matrix-tree identity: with conductance 1/l per
  edge, r(p, q) = F_pq / T where T sums conductance products over spanning
  trees and F_pq over spanning 2-forests separating p from q.  Brute-force
  subset enumeration; only for small graphs.

* The dual Kirchhoff polynomial Psi_G = sum over spanning trees T of the
  product of the variables of the edges outside T, by the same subset
  enumeration; MultiPoly is used only as the container to compare with.

* L and M by their definition: one restriction G^S per class subset S of
  size sz(G) (resp. sz(G) + 1), kept when it is semisimple of full size
  (resp. has one non-fixed vertex pair, weighted by its valence - 2).

* The paper's structure that the library's computations do not use: the
  one-point sum, the irreducible (block) decomposition by a depth-first
  search for cut vertices, each block as a hyperelliptic component, the
  simple-graph test, and a rational function specialized at zero once the
  common factors of the variable are cancelled.  The property tests of
  one-point sums, blocks, components and specialization at zero call them,
  and so does the next oracle.

* L and M by elementary symmetric polynomials on irreducible graphs: over
  each subset of the disjoint classes kept, a product over the non-fixed
  vertex pairs of the contracted graph of symmetric polynomials in the
  one-jointed classes meeting the vertex; multiplicative (L) and additive
  for M/L over one-point sums.

* L and M as co-trees: fix one edge e-_c in every class and let E- be the
  set of them; L sums the monomials of the classes outside a spanning tree
  of G/E-, and M the same over G/(E- + v~iota v), weighted by val v - 2,
  over the non-fixed pairs.  Trees are listed by deletion-contraction with
  a connectivity check per step.

* The closed form by Kirchhoff determinants: kappa, the weighted
  spanning-tree sum, by fraction-free Bareiss elimination of the grounded
  Laplacian of G, and M/L = (1/2) sum (val v - 2) kappa(G/(v~iota v)) /
  kappa(G), one determinant per non-fixed pair.

* The conductances C(a) of the quotient tree in Fractions, by the two
  passes ``polynomials`` ran before they moved to integer pairs: from the
  leaves up each vertex sums its branches below, from the fixed root down
  each adds the branch above it, its parent's C less its own branch in
  series with the joining class.  The tree is rooted by its own
  breadth-first walk.

The L/M oracles use the restriction and contraction of ``hyperelliptic``
but no code of ``polynomials``.

* The grounded Laplacian's factorization (S, det, Y) by dense Bareiss
  elimination in the graph's own vertex order, with first-nonzero row-swap
  pivoting and back-substitution of every column; the library eliminates
  inside the band of a reordered matrix and must give the same integers.

* Green values by a different linear formulation: unknowns are the per-edge
  slope and offset (the curvature is fixed by the measure), constrained by
  endpoint continuity, vertex flux, and the vanishing integral, solved by a
  local reduced-row-echelon routine with a consistency check.

* Graph construction and the hyperelliptic checks check by check, each as
  its own scan: the graph constructor, ``validate_graph`` with a sorted
  adjacency walk, ``check_involution`` with set comparisons, the four
  axioms with a valence scan per vertex, the quotient through the checking
  constructor, and ``CoverSpec.validate`` with a degree scan per vertex.
  They raise the library's exceptions with the library's messages, so
  the library's one-pass versions must agree with them exactly.

* The fiber pipeline one query at a time: ``node_type``, ``node_subtype``
  and ``count_invariants`` with a private adjacency walk per query and a
  genus scan per side, and ``normalize_fiber`` merging one removable
  vertex at a time with an edge scan per vertex.  The library must give
  the same types, counts and normalized graphs (a merged edge's ends as
  an unordered pair), or raise the same exception with the same message.

* The CLI's argument parser with every command's arguments declared, as
  it was built for every call; the per-call parser declares only the
  invoked command's and must give every argv the same outcome.  It is
  made of the CLI's own parser class and integer type, since what it
  checks is which arguments are declared.

* Document parsing as it was first written: every item's JSON path built
  as the item is visited, every literal parsed where it occurs and
  scanned for the digit limit at any length.  The library's one-pass
  parser must return the same GraphDocument, or raise a SchemaError with
  the same problems in the same order.  Non-UTF-8 bytes and nesting past
  the JSON reader's recursion escape it as UnicodeDecodeError and
  RecursionError; the library reports both as problems at ``$``.
"""

import json
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Dict, List

from admgraph import (
    AxiomViolationError,
    DisconnectedGraphError,
    Edge,
    EdgeKind,
    FiberConfiguration,
    HyperellipticGraph,
    InvalidGraphError,
    Involution,
    InvariantCounts,
    InvolutionMalformedError,
    MetrizedGraph,
    MultiPoly,
    NotHyperellipticConfigurationError,
    NotTypeZeroError,
    RationalFn,
    SchemaError,
    SolverFaultError,
    UnexpectedComponentCountError,
    UnknownIdError,
    as_fraction,
    contract_classes,
    format_rational,
    graph_size,
    restrict_classes,
    w_weight,
)
from admgraph import cli
from admgraph.cli import _integer, _Parser
from admgraph.documents import GraphDocument
from admgraph.errors import _path_key, _shown
from admgraph.hyperelliptic import is_semisimple_of_size, validate_hyperelliptic

ZERO = Fraction(0)


# -- one-point sums, blocks and specialization at zero -----------------


def one_point_sum(g1: MetrizedGraph, v1: str, g2: MetrizedGraph, v2: str) -> MetrizedGraph:
    """Disjoint union with v1 identified to v2 (the join keeps v1's id)."""
    g1.require_vertex(v1)
    g2.require_vertex(v2)
    others2 = [v for v in g2.vertices if v != v2]
    clash = (set(g1.vertices) & set(others2)) or (set(g1.edge_ids()) & set(g2.edge_ids()))
    if clash:
        raise InvalidGraphError(f"one_point_sum requires disjoint ids; shared: {sorted(clash)}")
    edges = list(g1.edges)
    for e in g2.edges:
        u, w = (v1 if x == v2 else x for x in e.ends)
        edges.append(Edge(e.id, (u, w), e.length))
    loops = g1.allow_loops or g2.allow_loops
    return MetrizedGraph(list(g1.vertices) + others2, edges, allow_loops=loops)


def _adjacency(g: MetrizedGraph) -> Dict[str, List[tuple]]:
    """vertex -> sorted list of (neighbour, edge id); loops appear twice."""
    adj: Dict[str, List[tuple]] = {v: [] for v in g.vertices}
    for e in g.edges:
        u, w = e.ends
        adj[u].append((w, e.id))
        adj[w].append((u, e.id))
    for v in adj:
        adj[v].sort()
    return adj


def irreducible_decomposition(g: MetrizedGraph) -> List[MetrizedGraph]:
    """Blocks of the graph: maximal subgraphs without a separating vertex.

    These are the closures of the connected components of G minus its cut
    vertices; a bridge edge is a block of its own, and the one-point graph
    decomposes into nothing.  Blocks are returned in lexicographic order of
    their smallest vertex id (then vertex tuple, then smallest edge id).
    """
    if not g.is_connected():
        raise DisconnectedGraphError("decomposition requires a connected graph")

    blocks: List[List[str]] = [[e.id] for e in g.loops()]
    adj = _adjacency(g)
    disc: Dict[str, int] = {}
    low: Dict[str, int] = {}
    edge_stack: List[str] = []
    used_edges = {e.id for e in g.loops()}
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
        edges = [g.edge(eid) for eid in comp]
        verts = {v for e in edges for v in e.ends}
        loops = any(e.is_loop() for e in edges)
        result.append(MetrizedGraph(verts, edges, allow_loops=loops))
    result.sort(key=lambda b: (b.vertices[0], b.vertices, min(b.edge_ids())))
    return result


def component_structures(h: HyperellipticGraph) -> List[HyperellipticGraph]:
    """The irreducible components, each as a validated hyperelliptic graph.

    Components are iota-stable, and a graph is hyperelliptic exactly when
    all its components are.
    """
    inv = h.involution
    out = []
    for block in irreducible_decomposition(h.graph):
        vset, eset = set(block.vertices), set(block.edge_ids())
        if {inv.vertex(v) for v in vset} != vset or {inv.edge(e) for e in eset} != eset:
            raise InvolutionMalformedError("irreducible component is not iota-stable")
        sub = Involution({v: inv.vertex(v) for v in vset}, {e: inv.edge(e) for e in eset})
        out.append(validate_hyperelliptic(block, sub))
    return out


def is_simple(h: HyperellipticGraph) -> bool:
    """The simple graph SG: one two-jointed pair on two vertices."""
    return (
        len(h.graph.edges) == 2
        and len(h.graph.vertices) == 2
        and len(h.class_members) == 1
        and all(k is EdgeKind.TWO_JOINTED for k in h.edge_kinds.values())
    )


def _divide_by_variable(p: MultiPoly, variable: str) -> MultiPoly:
    """Exact division by one variable; every monomial must contain it."""
    terms = {}
    for mono, coeff in p.terms.items():
        if variable not in mono:
            raise ValueError(f"not divisible by {variable!r}")
        k = mono.index(variable)
        terms[mono[:k] + mono[k + 1 :]] = coeff
    return MultiPoly(terms)


def substitute_zero(fn: RationalFn, variable: str) -> RationalFn:
    """Specialize one variable of a rational function to zero as a limit:
    common factors of the variable are cancelled first (contracting a
    simple component divides both parts of epsilon by its class)."""
    num, den = fn.numerator, fn.denominator
    while den.substitute_zero(variable).is_zero():
        try:
            num = _divide_by_variable(num, variable)
        except ValueError:
            raise ZeroDivisionError(f"the function has a pole at {variable} = 0") from None
        den = _divide_by_variable(den, variable)
    return RationalFn(num.substitute_zero(variable), den.substitute_zero(variable))


def _spanning_weight(vertices, edges, subset, forbidden_pair=None):
    """Sum over nothing or: product of conductances if the subset is a
    spanning forest with the required component structure."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    weight = Fraction(1)
    for eid, (u, w), length in subset:
        ru, rw = find(u), find(w)
        if ru == rw:
            return ZERO  # cycle
        parent[ru] = rw
        weight /= length
    if forbidden_pair is None:
        roots = {find(v) for v in vertices}
        return weight if len(roots) == 1 else ZERO
    p, q = forbidden_pair
    roots = {find(v) for v in vertices}
    if len(roots) != 2 or find(p) == find(q):
        return ZERO
    return weight


def tree_resistance(graph, p, q):
    """Effective resistance via spanning-tree / 2-forest enumeration."""
    vertices = list(graph.vertices)
    edges = [(e.id, e.ends, e.length) for e in graph.edges]
    n = len(vertices)
    trees = ZERO
    for subset in combinations(edges, n - 1):
        trees += _spanning_weight(vertices, edges, subset)
    assert trees != 0, "graph is disconnected"
    if p == q:
        return ZERO
    forests = ZERO
    for subset in combinations(edges, n - 2):
        forests += _spanning_weight(vertices, edges, subset, forbidden_pair=(p, q))
    return forests / trees


def kirchhoff_polynomial(vertices, edges):
    """Psi over edge variables: ``edges`` is a list of ((u, w), variable).
    A loop (u == w) is never in a tree, so its variable divides Psi."""
    unit = [(k, ends, 1) for k, (ends, _) in enumerate(edges)]
    terms = Counter()
    for subset in combinations(unit, len(vertices) - 1):
        if _spanning_weight(vertices, unit, subset):
            inside = {k for k, _, _ in subset}
            terms[tuple(sorted(var for k, (_, var) in enumerate(edges) if k not in inside))] += 1
    return MultiPoly(terms)


def l_by_definition(h):
    n = graph_size(h)
    terms = {}
    for subset in combinations(h.classes(), n):
        restricted, rinv, _ = restrict_classes(h, subset)
        if is_semisimple_of_size(restricted, rinv, n):
            terms[subset] = 1
    return MultiPoly(terms)


def m_by_definition(h):
    n = graph_size(h)
    terms = {}
    for subset in combinations(h.classes(), n + 1):
        restricted, rinv, _ = restrict_classes(h, subset)
        nonfixed = {min(v, rinv.vertex(v)) for v in restricted.vertices if rinv.vertex(v) != v}
        if len(nonfixed) == 1:
            terms[subset] = restricted.valence(min(nonfixed)) - 2
    return MultiPoly(terms)


def _elementary_symmetric(variables, k):
    if k < 0:
        return MultiPoly()
    return MultiPoly({subset: 1 for subset in combinations(sorted(variables), k)})


def _symmetric_data(h, kept_disjoint):
    """Per non-fixed vertex class of G' = contract(disjoint classes not
    kept): the one-jointed classes at the vertex and its total valence."""
    to_contract = [c for c in h.classes_of_kind(EdgeKind.DISJOINT) if c not in kept_disjoint]
    contracted, cinv, _ = contract_classes(h, to_contract)
    data = []
    seen = set()
    for v in contracted.vertices:
        if cinv.vertex(v) == v or v in seen:
            continue
        seen.update((v, cinv.vertex(v)))
        one_jointed_at_v = set()
        for e in contracted.edges:
            if v not in e.ends:
                continue
            partner = contracted.edge(cinv.edge(e.id))
            if len(set(e.ends) & set(partner.ends)) == 1:
                one_jointed_at_v.add(min(e.id, partner.id))
        data.append((sorted(one_jointed_at_v), contracted.valence(v)))
    return data


def _kept_subsets(h):
    disjoint = h.classes_of_kind(EdgeKind.DISJOINT)
    for k in range(len(disjoint) + 1):
        yield from combinations(disjoint, k)


def _l_symmetric_irreducible(h):
    if is_simple(h):
        return MultiPoly.variable(h.classes()[0])
    total = MultiPoly()
    for kept in _kept_subsets(h):
        product = MultiPoly.monomial(kept)
        for classes_at_v, _ in _symmetric_data(h, kept):
            product = product * _elementary_symmetric(classes_at_v, len(classes_at_v) - 1)
        total = total + product
    return total


def _m_symmetric_irreducible(h):
    if is_simple(h):
        return MultiPoly()
    total = MultiPoly()
    for kept in _kept_subsets(h):
        data = _symmetric_data(h, kept)
        inner = MultiPoly()
        for i, (classes_at_v, valence) in enumerate(data):
            piece = (valence - 2) * _elementary_symmetric(classes_at_v, len(classes_at_v))
            for j, (other_classes, _) in enumerate(data):
                if j != i:
                    piece = piece * _elementary_symmetric(other_classes, len(other_classes) - 1)
            inner = inner + piece
        total = total + inner * MultiPoly.monomial(kept)
    return total


def l_symmetric(h):
    result = MultiPoly.constant(1)
    for comp in component_structures(h):
        result = result * _l_symmetric_irreducible(comp)
    return result


def m_symmetric(h):
    comps = component_structures(h)
    ls = [_l_symmetric_irreducible(c) for c in comps]
    total = MultiPoly()
    for i, comp in enumerate(comps):
        piece = _m_symmetric_irreducible(comp)
        for j, lpoly in enumerate(ls):
            if j != i:
                piece = piece * lpoly
        total = total + piece
    return total



def _connects(label: List[int], parts: int, edges) -> bool:
    """Do the edges join the ``parts`` distinct labels into one?"""
    parent = {}
    joins = 0
    for a, b, _ in edges:
        ra, rb = label[a], label[b]
        while ra in parent:
            ra = parent[ra]
        while rb in parent:
            rb = parent[rb]
        if ra != rb:
            parent[ra] = rb
            joins += 1
            if joins == parts - 1:
                return True
    return parts == 1


def _cotrees(h, merge=()):
    """The monomials of the dual Kirchhoff polynomial of G/(E- + merge).

    E- holds e-_c = class_members[c][0] of every class c.  It is a forest:
    a cycle in E-, or a path from v to iota v, would project to a closed
    walk in the quotient tree that uses each class once.  So with F fixed
    vertices and N non-fixed pairs it has (F + 2N) - (F + N - 1) = N + 1
    components, and merging a pair leaves N.  On the components, the edges
    e+_c span a multigraph; each spanning tree T gives the monomial of the
    classes whose e+ is outside T.

    Trees are listed by deletion-contraction over the e+ edges in class
    order, so monomials come out sorted.  An edge that has become a loop is
    always outside; an edge is left out only when the rest still connects
    (bridge pruning), so every branch ends in a tree.
    """
    index = {v: k for k, v in enumerate(h.graph.vertices)}
    parent = list(range(len(index)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    classes = h.classes()
    joins = [h.graph.edge(h.class_members[c][0]).ends for c in classes]
    joins += [(merge[0], w) for w in merge[1:]]
    for a, b in joins:
        parent[find(index[a])] = find(index[b])
    roots: Dict[int, int] = {}
    part = [roots.setdefault(find(x), len(roots)) for x in range(len(index))]
    edges = []
    for c in classes:
        a, b = h.graph.edge(h.class_members[c][1]).ends
        edges.append((part[index[a]], part[index[b]], (c,)))
    out = []

    def grow(i, label, parts, outside):
        while parts > 1:
            a, b, var = edges[i]
            i += 1
            la, lb = label[a], label[b]
            if la != lb:
                grow(i, [la if x == lb else x for x in label], parts - 1, outside)
                if not _connects(label, parts, edges[i:]):
                    return
            outside += var
        for _, _, var in edges[i:]:
            outside += var
        out.append(outside)

    grow(0, list(range(len(roots))), len(roots), ())
    return out


def nonfixed_pairs(h):
    """The non-fixed pairs (v, iota v) with v < iota v, in vertex order."""
    return [
        (v, h.involution.vertex(v))
        for v in sorted(h.nonfixed_vertices)
        if v < h.involution.vertex(v)
    ]


def l_cotrees(h):
    """L as the co-tree monomials of G/E-."""
    return MultiPoly({mono: 1 for mono in _cotrees(h)})


def m_cotrees(h):
    """M as the sum over non-fixed pairs of (val v - 2) times the co-tree
    monomials of G/(E- + v~iota v)."""
    terms = Counter()
    for v, w in nonfixed_pairs(h):
        for mono in _cotrees(h, (v, w)):
            terms[mono] += h.graph.valence(v) - 2
    return MultiPoly(terms)


def _kirchhoff_determinant(h, lengths, merge=()):
    """kappa: the determinant of the weighted Laplacian of h's graph with one
    vertex grounded, conductance 1/X on each edge of a class of length X.

    The vertices in ``merge`` are identified first; an edge between two of
    them becomes a loop, which adds no conductance.  Exact and fraction-free:
    the conductances are scaled to integers by the lcm N of the length
    numerators, the integer determinant is taken by Bareiss elimination, and
    the result is divided by N^rows.  No pivoting is needed: the matrix is
    positive semidefinite, so a vanishing leading minor makes it singular.
    """
    scale = lcm(*(x.numerator for x in lengths.values()))
    kept = [v for v in h.graph.vertices if v not in merge[1:]]
    index = {v: k for k, v in enumerate(kept)}
    index.update((v, index[merge[0]]) for v in merge[1:])
    n = len(kept) - 1  # the last kept vertex is grounded
    a = [[0] * n for _ in range(n)]
    for e in h.graph.edges:
        i, j = index[e.ends[0]], index[e.ends[1]]
        if i == j:
            continue
        x = lengths[h.class_of[e.id]]
        c = x.denominator * (scale // x.numerator)
        for p, r in ((i, j), (j, i)):
            if p < n:
                a[p][p] += c
                if r < n:
                    a[p][r] -= c
    prev = 1
    for k in range(n):
        pivot, row_k = a[k][k], a[k]
        if pivot == 0:
            return ZERO
        for row in a[k + 1 :]:
            factor = row[k]
            if factor:
                for j in range(k + 1, n):
                    row[j] = (row[j] * pivot - factor * row_k[j]) // prev
            else:  # the same step, without the zero product
                for j in range(k + 1, n):
                    row[j] = row[j] * pivot // prev
        prev = pivot
    return Fraction(prev, scale**n)


def conductances_kirchhoff(h, lengths):
    """C(a) = 2 kappa(G) / kappa(G/(v~iota v)) = 2/R(v, iota v) for every
    non-fixed pair, keyed by its smaller vertex."""
    kappa = _kirchhoff_determinant(h, lengths)
    return {
        v: 2 * kappa / _kirchhoff_determinant(h, lengths, (v, w)) for v, w in nonfixed_pairs(h)
    }


def conductances_reference(h, lengths):
    """C(a) for every non-fixed quotient vertex a, in Fractions, with
    conductance 1/X on a class of length X."""
    neighbours = {v: [] for v in h.quotient.vertices}
    for e in h.quotient.edges:
        a, b = e.ends
        neighbours[a].append((b, e.id))
        neighbours[b].append((a, e.id))
    root = min(h.fixed_vertices)
    order, up = [root], {}
    for v in order:  # breadth first: every vertex after its parent
        for w, c in neighbours[v]:
            if w != root and w not in up:
                up[w] = (v, c)
                order.append(w)
    fixed = h.fixed_vertices
    down = dict.fromkeys(order, ZERO)
    branch = {}
    for v in reversed(order[1:]):
        p, c = up[v]
        x = lengths[c]
        below = down[v]
        branch[v] = 1 / x if v in fixed else below / (1 + x * below)
        down[p] += branch[v]
    total = {}
    for v in order[1:]:
        if v in fixed:
            continue
        p, c = up[v]
        x = lengths[c]
        if p in fixed:
            above = 1 / x
        else:
            rest = total[p] - branch[v]
            above = rest / (1 + x * rest)
        total[v] = down[v] + above
    return total


def epsilon_kirchhoff(h, d, lengths):
    """The closed form with M/L = (1/2) sum (val v - 2) kappa(G/(v~iota v))
    / kappa(G), one determinant per pair."""
    deg = d.degree
    q = Fraction(2, 3) * deg / (deg + 2)
    kappa = _kirchhoff_determinant(h, lengths)
    pairs = sum(
        (
            (h.graph.valence(v) - 2) * _kirchhoff_determinant(h, lengths, (v, w))
            for v, w in nonfixed_pairs(h)
        ),
        ZERO,
    )
    total = q * pairs / (2 * kappa)
    for cname, x in lengths.items():
        w = w_weight(h, d, cname)
        total += (q + w * (deg - w) / (deg + 2)) * x
    return total


def dense_eliminate(a, b):
    """Solve a Y = det * b in integers for any square a; b holds one column
    per solve.  Returns (det, Y).

    Dense fraction-free (Bareiss) elimination over the whole matrix:
    forward elimination divides exactly by the previous pivot, so the last
    pivot is the determinant of the row-swapped a, and back-substitution
    yields Y = det * a^-1 b in integers (exact by Cramer's rule).  The pivot
    is the first row with a nonzero entry in column order.
    """
    n = len(a)
    rows = [list(ar) + list(br) for ar, br in zip(a, b)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise SolverFaultError("singular linear system")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        lead = top[col]
        for row in rows[col + 1 :]:
            factor = row[col]
            for c in range(col + 1, len(row)):
                row[c] = (row[c] * lead - factor * top[c]) // prev
        prev = lead
    y = [[] for _ in range(n)]
    for col in range(n - 1, -1, -1):
        row = rows[col]
        y[col] = [
            (prev * v - sum(row[k] * y[k][c] for k in range(col + 1, n))) // row[col]
            for c, v in enumerate(row[n:])
        ]
    return prev, y


def dense_factor(graph):
    """(S, det, Y) for the grounded Laplacian in the graph's own vertex
    order by dense_eliminate: K = S L, scaled to integers by the lcm S of the
    length numerators, last vertex grounded; K Y = det I, det and Y divided
    by their gcd, and a zero row and column for the grounded vertex."""
    order = graph.vertices
    n = len(order) - 1
    index = {v: i for i, v in enumerate(order)}
    scale = lcm(*(e.length.numerator for e in graph.edges))
    k = [[0] * n for _ in range(n)]
    for e in graph.edges:
        c = e.length.denominator * (scale // e.length.numerator)
        iu, iw = index[e.ends[0]], index[e.ends[1]]
        for a, b in ((iu, iw), (iw, iu)):
            if a < n:
                k[a][a] += c
                if b < n:
                    k[a][b] -= c
    det, y = dense_eliminate(k, [[int(i == j) for j in range(n)] for i in range(n)])
    common = gcd(det, *(x for row in y for x in row))
    y = [[x // common for x in row] + [0] for row in y]
    return scale, det // common, y + [[0] * (n + 1)]


def _rref_solve(rows, rhs):
    """Solve a consistent (possibly overdetermined) exact system; asserts
    consistency and full column rank."""
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    ncols = len(rows[0])
    pivot_row = 0
    pivots = []
    for col in range(ncols):
        pivot = next((r for r in range(pivot_row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        head = m[pivot_row][col]
        m[pivot_row] = [x / head for x in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    for r in range(pivot_row, len(m)):
        assert all(x == 0 for x in m[r]), "inconsistent system"
    assert len(pivots) == ncols, "underdetermined system"
    solution = [ZERO] * ncols
    for r, col in enumerate(pivots):
        solution[col] = m[r][-1]
    return solution


def green_values_oracle(graph, masses, densities, source):
    """Vertex values of the Green slice from `source`, from scratch.

    Unknowns: slope beta_e and offset gamma_e per edge; curvature is
    density/2.  Continuity ties every edge end at a vertex to a common
    value, flux at each vertex matches the measure minus the source delta,
    and the integral against the measure vanishes.
    """
    edges = list(graph.edges)
    index = {e.id: k for k, e in enumerate(edges)}
    nvars = 2 * len(edges)  # beta_k, gamma_k

    def end_value_row(e, at_end):
        """Row + constant for the value of g at one end of e."""
        row = [ZERO] * nvars
        k = index[e.id]
        if at_end == 0:
            row[2 * k + 1] = Fraction(1)
            return row, ZERO
        l = e.length
        row[2 * k] = l
        row[2 * k + 1] = Fraction(1)
        return row, densities[e.id] / 2 * l * l

    rows, rhs = [], []
    # continuity: all edge-end values at a vertex agree
    for v in graph.vertices:
        incident = []
        for e in edges:
            for at_end in (0, 1):
                if e.ends[at_end] == v:
                    incident.append(end_value_row(e, at_end))
        first_row, first_const = incident[0]
        for row, const in incident[1:]:
            rows.append([a - b for a, b in zip(row, first_row)])
            rhs.append(first_const - const)
    # flux: outgoing slopes at v sum to mass(v) - [v = source]
    for v in graph.vertices:
        row = [ZERO] * nvars
        const = ZERO
        for e in edges:
            k = index[e.id]
            if e.ends[0] == v:
                row[2 * k] += 1
            if e.ends[1] == v:
                row[2 * k] -= 1
                const += densities[e.id] * e.length
        rows.append(row)
        rhs.append(masses.get(v, ZERO) - (1 if v == source else 0) + const)
    # normalization: integral of g against the measure is zero
    row = [ZERO] * nvars
    const = ZERO
    for v in graph.vertices:
        mass = masses.get(v, ZERO)
        if mass == 0:
            continue
        e = next(e for e in edges if v in e.ends)
        r, c = end_value_row(e, 0 if e.ends[0] == v else 1)
        row = [a + mass * b for a, b in zip(row, r)]
        const += mass * c
    for e in edges:
        dens = densities[e.id]
        if dens == 0:
            continue
        k = index[e.id]
        l = e.length
        alpha = dens / 2
        const += dens * (alpha * l**3 / 3)
        row[2 * k] += dens * l**2 / 2
        row[2 * k + 1] += dens * l
    rows.append(row)
    rhs.append(-const)

    solution = _rref_solve(rows, rhs)
    values = {}
    for v in graph.vertices:
        e = next(e for e in edges if v in e.ends)
        r, c = end_value_row(e, 0 if e.ends[0] == v else 1)
        values[v] = sum(a * x for a, x in zip(r, solution)) + c
    return values


# -- construction and validation, check by check ------------------------


def graph_fields(vertices, edges, allow_loops=False):
    """(sorted vertices, edges) of MetrizedGraph(vertices, edges), or its
    exception."""
    verts = tuple(sorted(vertices))
    if not verts:
        raise InvalidGraphError("a graph needs at least one vertex")
    if len(set(verts)) != len(verts):
        raise InvalidGraphError("duplicate vertex ids")
    vertex_set = frozenset(verts)
    normalized = []
    for item in edges:
        if isinstance(item, Edge):
            e = Edge(item.id, (item.ends[0], item.ends[1]), as_fraction(item.length))
        else:
            eid, ends, length = item
            e = Edge(str(eid), (ends[0], ends[1]), as_fraction(length))
        if e.ends[0] not in vertex_set or e.ends[1] not in vertex_set:
            raise UnknownIdError(f"edge {_shown(e.id)} references an unknown vertex")
        if e.is_loop() and not allow_loops:
            raise InvalidGraphError(f"edge {_shown(e.id)} is a self-loop")
        normalized.append(e)
    ids = [e.id for e in normalized]
    if len(set(ids)) != len(ids):
        raise InvalidGraphError("duplicate edge ids")
    return verts, tuple(normalized)


def valence(g, v):
    return sum((e.ends[0] == v) + (e.ends[1] == v) for e in g.edges)


def is_connected(g):
    adj = {v: [] for v in g.vertices}
    for e in g.edges:
        u, w = e.ends
        adj[u].append((w, e.id))
        adj[w].append((u, e.id))
    for v in adj:
        adj[v].sort()
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        for w, _ in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(g.vertices)


def graph_problems(g):
    """The problems ``validate_graph`` reports, in its order."""
    problems = []
    for e in g.edges:
        if e.length <= 0:
            problems.append(f"edge {_shown(e.id)}: nonpositive length {format_rational(e.length)}")
        if e.is_loop():
            problems.append(f"edge {_shown(e.id)}: self-loop at {_shown(e.ends[0])}")
    if not is_connected(g):
        problems.append("graph is not connected")
    return problems


def check_involution(g, inv, allow_fixed_edges=False):
    vset, eset = set(g.vertices), set(g.edge_ids())
    if set(inv.vertex_map) != vset or set(inv.vertex_map.values()) != vset:
        raise InvolutionMalformedError("vertex map is not a permutation of the vertex set")
    if set(inv.edge_map) != eset or set(inv.edge_map.values()) != eset:
        raise InvolutionMalformedError("edge map is not a permutation of the edge set")
    for v in g.vertices:
        if inv.vertex(inv.vertex(v)) != v:
            raise InvolutionMalformedError(f"vertex map does not square to identity at {_shown(v)}")
    for e in g.edges:
        partner_id = inv.edge(e.id)
        if inv.edge(partner_id) != e.id:
            raise InvolutionMalformedError(
                f"edge map does not square to identity at {_shown(e.id)}"
            )
        partner = g.edge(partner_id)
        if {inv.vertex(x) for x in e.ends} != set(partner.ends):
            raise InvolutionMalformedError(
                f"edge map incompatible with endpoints at {_shown(e.id)}"
            )
        if partner.length != e.length:
            raise InvolutionMalformedError(f"lengths differ within the orbit of {_shown(e.id)}")
        if not allow_fixed_edges and partner_id == e.id:
            raise InvolutionMalformedError(f"edge {_shown(e.id)} is fixed by the involution")


_KINDS = {0: EdgeKind.DISJOINT, 1: EdgeKind.ONE_JOINTED, 2: EdgeKind.TWO_JOINTED}


def hyperelliptic_fields(g, inv):
    """What ``validate_hyperelliptic(g, inv)`` derives, as plain values
    (dicts as lists of items, in order), or its exception."""
    problems = graph_problems(g)
    if "graph is not connected" in problems:
        raise DisconnectedGraphError("hyperelliptic graphs are connected")
    if any(e.length <= 0 for e in g.edges):
        raise AxiomViolationError(1, "edge lengths must be positive")
    check_involution(g, inv, allow_fixed_edges=True)
    loops = [e for e in g.edges if e.is_loop()]
    if loops:
        raise AxiomViolationError(1, f"edge {_shown(loops[0].id)} is not a closed interval")
    for e in g.edges:
        if inv.edge(e.id) == e.id:
            raise AxiomViolationError(2, f"iota fixes edge {_shown(e.id)}")
    fixed = frozenset(v for v in g.vertices if inv.vertex(v) == v)
    nonfixed = frozenset(g.vertices) - fixed
    for v in sorted(nonfixed):
        if valence(g, v) < 3:
            raise AxiomViolationError(3, f"non-fixed vertex {_shown(v)} has fewer than three edges")

    kinds = {}
    for e in g.edges:
        partner = g.edge(inv.edge(e.id))
        kinds[e.id] = _KINDS[len(set(e.ends) & set(partner.ends))]
    members, class_of = {}, {}
    for e in g.edges:
        cname = min(e.id, inv.edge(e.id))
        class_of[e.id] = cname
        members.setdefault(cname, tuple(sorted({cname, inv.edge(cname)})))

    vclass = {v: min(v, inv.vertex(v)) for v in g.vertices}
    qvertices = sorted(set(vclass.values()))
    qedges = []
    for cname, pair in sorted(members.items()):
        e = g.edge(pair[0])
        qedges.append((cname, (vclass[e.ends[0]], vclass[e.ends[1]]), e.length))
    quotient = graph_fields(qvertices, qedges, allow_loops=True)
    if any(e.is_loop() for e in quotient[1]) or len(qedges) != len(qvertices) - 1:
        raise AxiomViolationError(4, "the quotient by iota has a loop (it must be a tree)")

    nu = {}
    for v in sorted(nonfixed):
        counts = [0, 0]
        for e in g.edges:
            if v in e.ends and kinds[e.id] is not EdgeKind.TWO_JOINTED:
                counts[kinds[e.id] is EdgeKind.ONE_JOINTED] += 1
        nu[v] = (counts[0], counts[1], counts[0] + counts[1])
    return {
        "fixed_vertices": fixed,
        "nonfixed_vertices": nonfixed,
        "edge_kinds": list(kinds.items()),
        "class_members": list(members.items()),
        "class_of": list(class_of.items()),
        "quotient": quotient,
        "nu": nu,
    }


def check_cover_spec(spec):
    """``CoverSpec.validate``: raises InvalidGraphError or returns None."""
    ids = [v for v, _ in spec.vertices]
    fixed = dict(spec.vertices)
    if len(set(ids)) != len(ids):
        raise InvalidGraphError("duplicate quotient vertex ids")
    if len(spec.edges) != len(ids) - 1:
        raise InvalidGraphError("the quotient must be a tree")
    for _, u, w, _ in spec.edges:
        if u not in fixed or w not in fixed:
            raise InvalidGraphError("quotient edge references unknown vertex")
        if u == w:
            raise InvalidGraphError("the quotient must have no loops")
    for v, is_fixed in spec.vertices:
        degree = sum((u == v) + (w == v) for _, u, w, _ in spec.edges)
        if not is_fixed and degree < 3:
            raise InvalidGraphError(f"non-fixed quotient vertex {_shown(v)} needs degree >= 3")


# -- the fiber pipeline, one query at a time ------------------------------


def _components_without(g: MetrizedGraph, removed_edges) -> List[set]:
    removed = set(removed_edges)
    adj: Dict[str, List[str]] = {v: [] for v in g.vertices}
    for e in g.edges:
        if e.id in removed:
            continue
        u, w = e.ends
        adj[u].append(w)
        adj[w].append(u)
    seen = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def _side_genus(cfg: FiberConfiguration, side: set, removed_edges: set) -> int:
    edges_inside = [
        e
        for e in cfg.graph.edges
        if e.id not in removed_edges and e.ends[0] in side and e.ends[1] in side
    ]
    betti = len(edges_inside) - len(side) + 1
    return sum(cfg.genera[v] for v in side) + betti


def node_type(cfg: FiberConfiguration, node_id: str) -> int:
    """0 if the partial normalization stays connected, else the minimum of
    the two sides' arithmetic genera."""
    cfg.graph.edge(node_id)
    comps = _components_without(cfg.graph, {node_id})
    if len(comps) == 1:
        return 0
    a, b = comps
    return min(_side_genus(cfg, a, {node_id}), _side_genus(cfg, b, {node_id}))


def node_subtype(cfg: FiberConfiguration, node_id: str) -> int:
    """Subtype j of a type-0 node: 0 when the node is iota-fixed; otherwise
    remove the node and its partner (exactly two components must result) and
    take the smaller arithmetic genus."""
    inv = cfg.require_involution()
    if node_type(cfg, node_id) != 0:
        raise NotTypeZeroError(f"node {_shown(node_id)} is not of type 0")
    partner = inv.edge(node_id)
    if partner == node_id:
        return 0
    removed = {node_id, partner}
    comps = _components_without(cfg.graph, removed)
    if len(comps) != 2:
        raise UnexpectedComponentCountError(
            f"removing {_shown(node_id)} and {_shown(partner)} gave {len(comps)} components, "
            "expected 2"
        )
    a, b = comps
    return min(_side_genus(cfg, a, removed), _side_genus(cfg, b, removed))


def count_invariants(cfg: FiberConfiguration) -> InvariantCounts:
    """Classify every node; xi_0 counts nodes, xi_j (j >= 1) counts pairs."""
    inv = cfg.require_involution()
    g = cfg.genus
    xi: Dict[int, int] = {}
    delta: Dict[int, int] = {}
    seen = set()
    for e in cfg.graph.edges:
        i = node_type(cfg, e.id)
        if i >= 1:
            delta[i] = delta.get(i, 0) + 1
            continue
        partner = inv.edge(e.id)
        if partner == e.id:
            xi[0] = xi.get(0, 0) + 1
            continue
        if e.id in seen:
            continue
        seen.add(partner)
        j = node_subtype(cfg, e.id)
        if j == 0:
            xi[0] = xi.get(0, 0) + 2
        else:
            xi[j] = xi.get(j, 0) + 1
    return InvariantCounts.from_maps(g, xi, delta)


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
    check_involution(dual, inv, allow_fixed_edges=True)

    vertices = list(dual.vertices)
    edges = {e.id: e for e in dual.edges}
    vmap = dict(inv.vertex_map)
    emap = dict(inv.edge_map)

    for eid in sorted(edges):
        if emap[eid] != eid:
            continue
        e = edges[eid]
        u, w = e.ends
        if e.is_loop():
            if vmap[u] != u:
                raise NotHyperellipticConfigurationError(
                    f"fixed loop {_shown(eid)} at a non-fixed vertex"
                )
        elif not (vmap[u] == w and vmap[w] == u):
            raise NotHyperellipticConfigurationError(
                f"fixed edge {_shown(eid)} does not swap its endpoints "
                "(positive-type nodes must be contracted first)"
            )
        mid, first, second = f"{eid}.m", f"{eid}.a", f"{eid}.b"
        if mid in vertices or first in edges or second in edges:
            raise NotHyperellipticConfigurationError(
                f"midpoint ids for {_shown(eid)} already taken"
            )
        half = e.length / 2
        del edges[eid]
        del emap[eid]
        edges[first] = Edge(first, (u, mid), half)
        edges[second] = Edge(second, (mid, w), half)
        vertices.append(mid)
        vmap[mid] = mid
        emap[first] = second
        emap[second] = first

    # drop non-fixed degree-2 vertices, merging their two edges
    def edge_ends_at(v):
        out = []
        for e in edges.values():
            if e.ends[0] == v:
                out.append((e.id, 1))
            if e.ends[1] == v:
                out.append((e.id, 0))
        return out

    removable = sorted(
        v for v in vertices if vmap[v] != v and len(edge_ends_at(v)) == 2
    )
    for v in removable:
        ends = edge_ends_at(v)
        if len(ends) != 2:
            continue  # valence changed by an earlier merge
        (eid1, keep1), (eid2, keep2) = ends
        if eid1 == eid2:
            raise NotHyperellipticConfigurationError(
                f"cannot remove vertex {_shown(v)}: it carries a loop"
            )
        e1, e2 = edges[eid1], edges[eid2]
        a, b = e1.ends[keep1], e2.ends[keep2]
        if a == v or b == v:
            # chain closing on itself without a surviving vertex
            raise NotHyperellipticConfigurationError(
                f"removable chain through {_shown(v)} closes into a circle"
            )
        merged_id = min(eid1, eid2)
        partner1, partner2 = emap.pop(eid1), emap.pop(eid2)
        del edges[eid1], edges[eid2]
        edges[merged_id] = Edge(merged_id, (a, b), e1.length + e2.length)
        # the iota-image chain merges to the partners' min id; record the
        # pairing now (the partner merge will overwrite consistently)
        merged_partner = min(partner1, partner2)
        emap[merged_id] = merged_partner
        vertices.remove(v)
        del vmap[v]

    graph = MetrizedGraph(vertices, list(edges.values()), allow_loops=True)
    try:
        return validate_hyperelliptic(graph, Involution(vmap, emap))
    except (AxiomViolationError, InvolutionMalformedError, DisconnectedGraphError) as exc:
        raise NotHyperellipticConfigurationError(str(exc)) from exc


def full_parser() -> _Parser:
    """The CLI parser with the arguments of all 13 commands declared."""
    parser = _Parser(prog="admgraph", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_command(name, help_text, divisor=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", help="graph document (JSON file)")
        if divisor:
            p.add_argument("--divisor", help="inline JSON divisor override")
        return p

    graph_command("validate", "check graph (and hyperelliptic) invariants")
    p = graph_command("resistance", "effective resistance between two vertices or across an edge")
    p.add_argument("endpoints", nargs="*", help="two vertex ids")
    p.add_argument("--edge", help="edge id for the cross resistance instead")
    graph_command("measure", "canonical or admissible measure", divisor=True)
    p = graph_command("green", "Green's function slice from a source vertex", divisor=True)
    p.add_argument("source", help="source vertex id")
    graph_command("epsilon", "admissible constant by the exact solver", divisor=True)
    graph_command("epsilon-closed", "admissible constant by the closed form", divisor=True)
    graph_command("lpoly", "the L polynomial")
    graph_command("mpoly", "the M polynomial")
    graph_command("classify-edges", "edge classification and size")
    graph_command("classify-nodes", "node types and invariant counts of a fiber")
    graph_command("compare", "closed form vs exact solver", divisor=True)

    p = sub.add_parser("bound", help="effective lower bound from invariant counts")
    p.add_argument("--genus", type=_integer, required=True)
    p.add_argument("--xi0", type=_integer, default=0, help="count of type-(0,0) nodes")
    p.add_argument("--xi", action="append", default=[], metavar="j=v", help="pairs of subtype j")
    p.add_argument("--delta", action="append", default=[], metavar="i=v", help="nodes of type i")

    p = sub.add_parser("gen", help="emit a seeded random hyperelliptic graph document")
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--min-size", type=_integer, default=1)
    p.add_argument("--max-size", type=_integer, default=5)
    return parser


_RATIONAL_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")


def _digit_limit_excess(literal: str) -> str:
    digits = literal.strip().lstrip("+-")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and len(digits) > limit and digits.isdecimal():
        return (
            f"an integer of {len(digits)} digits, "
            f"more than the {limit} digits admgraph reads per integer"
        )
    return ""


def parse_rational(text: str) -> Fraction:
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad rational literal: {_shown(text, 'literal')}")
    excess = _digit_limit_excess(max(m.group(1).lstrip("-"), m.group(2) or "", key=len))
    if excess:
        raise ValueError(f"rational literal too long: {excess}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"bad rational literal (zero denominator): {_shown(text, 'literal')}")
    return Fraction(num, den)


def _parse_rational_at(value, path, problems) -> Fraction:
    if not isinstance(value, str):
        problems.append((path, "rational values must be strings like \"3/2\""))
        return Fraction(0)
    try:
        return parse_rational(value)
    except ValueError as exc:
        problems.append((path, str(exc)))
        return Fraction(0)


def _check_keys(item, known, path, problems) -> None:
    extra = set(item) - known
    if extra:
        problems.append((path, f"unknown keys [{', '.join(_shown(k) for k in sorted(extra))}]"))


def _load_json(text: str, path: str):
    def integer(literal: str) -> int:
        excess = _digit_limit_excess(literal)
        if excess:
            raise SchemaError([(path, f"integer too long: {excess}")])
        return int(literal)

    try:
        return json.loads(text, parse_int=integer)
    except json.JSONDecodeError as exc:
        raise SchemaError([(path, f"malformed JSON: {exc}")]) from exc


def parse_graph_document(data) -> GraphDocument:
    """The document parser item by item, with a path per item."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if isinstance(data, str):
        raw = _load_json(data, "$")
    else:
        raw = data

    problems = []
    if not isinstance(raw, dict):
        raise SchemaError([("$", "document must be a JSON object")])

    known = {"vertices", "edges", "involution", "divisor"}
    for key in sorted(set(raw) - known):
        problems.append((_path_key(key), "unknown key"))

    vertices = []
    vertex_ids = set()
    items = raw.get("vertices")
    if not isinstance(items, list) or not items:
        problems.append(("vertices", "must be a non-empty list"))
        items = []
    for k, item in enumerate(items):
        path = f"vertices[{k}]"
        if not isinstance(item, dict) or "id" not in item or not isinstance(item["id"], str):
            problems.append((path, "must be an object with a string id"))
            continue
        vid = item["id"]
        if vid in vertex_ids:
            problems.append((f"{path}.id", f"duplicate vertex id {_shown(vid)}"))
        vertex_ids.add(vid)
        genus = item.get("genus")
        if genus is not None and (type(genus) is not int or genus < 0):
            problems.append((f"{path}.genus", "genus must be a nonnegative integer"))
            genus = None
        _check_keys(item, {"id", "genus"}, path, problems)
        vertices.append((vid, genus))

    edges = []
    edge_ids = set()
    items = raw.get("edges")
    if not isinstance(items, list):
        problems.append(("edges", "must be a list"))
        items = []
    for k, item in enumerate(items):
        path = f"edges[{k}]"
        if not isinstance(item, dict) or "id" not in item or not isinstance(item["id"], str):
            problems.append((path, "must be an object with a string id"))
            continue
        eid = item["id"]
        if eid in edge_ids:
            problems.append((f"{path}.id", f"duplicate edge id {_shown(eid)}"))
        edge_ids.add(eid)
        ends = item.get("ends")
        if (
            not isinstance(ends, list)
            or len(ends) != 2
            or not all(isinstance(x, str) for x in ends)
        ):
            problems.append((f"{path}.ends", "must be a pair of vertex ids"))
            continue
        for x in ends:
            if x not in vertex_ids:
                problems.append((f"{path}.ends", f"unknown vertex {_shown(x)}"))
        length = _parse_rational_at(item.get("length"), f"{path}.length", problems)
        _check_keys(item, {"id", "ends", "length"}, path, problems)
        edges.append((eid, (ends[0], ends[1]), length))

    inv_vertices = inv_edges = None
    inv = raw.get("involution")
    if inv is not None:
        if not isinstance(inv, dict) or set(inv) - {"vertices", "edges"}:
            problems.append(("involution", "must be {vertices: {...}, edges: {...}}"))
        else:
            vmap = inv.get("vertices", {})
            emap = inv.get("edges", {})
            for name, mapping, ids in (("vertices", vmap, vertex_ids), ("edges", emap, edge_ids)):
                if not isinstance(mapping, dict):
                    problems.append((f"involution.{name}", "must be an object"))
                    continue
                for a, b in mapping.items():
                    path = f"involution.{name}.{_path_key(a)}"
                    if a not in ids:
                        problems.append((path, "unknown id"))
                    if not isinstance(b, str) or b not in ids:
                        problems.append((path, f"maps to unknown id {_shown(b)}"))
            if isinstance(vmap, dict) and isinstance(emap, dict):
                inv_vertices = tuple(sorted((str(a), str(b)) for a, b in vmap.items()))
                inv_edges = tuple(sorted((str(a), str(b)) for a, b in emap.items()))

    divisor = None
    div = raw.get("divisor")
    if div is not None:
        if not isinstance(div, dict):
            problems.append(("divisor", "must be an object of rational strings"))
        else:
            coeffs = []
            for v, c in div.items():
                path = f"divisor.{_path_key(v)}"
                if v not in vertex_ids:
                    problems.append((path, "unknown vertex"))
                coeffs.append((v, _parse_rational_at(c, path, problems)))
            divisor = tuple(sorted(coeffs))

    if problems:
        raise SchemaError(problems)
    return GraphDocument(
        vertices=tuple(vertices),
        edges=tuple(edges),
        involution_vertices=inv_vertices,
        involution_edges=inv_edges,
        divisor=divisor,
    )
