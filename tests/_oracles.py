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

* L and M by elementary symmetric polynomials on irreducible graphs: over
  each subset of the disjoint classes kept, a product over the non-fixed
  vertex pairs of the contracted graph of symmetric polynomials in the
  one-jointed classes meeting the vertex; multiplicative (L) and additive
  for M/L over one-point sums.

The L/M oracles use the restriction and contraction of ``hyperelliptic``
but no code of ``polynomials``.

* Green values by a different linear formulation: unknowns are the per-edge
  slope and offset (the curvature is fixed by the measure), constrained by
  endpoint continuity, vertex flux, and the vanishing integral, solved by a
  local reduced-row-echelon routine with a consistency check.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations

from admgraph import (
    EdgeKind,
    MultiPoly,
    component_structures,
    contract_classes,
    graph_size,
    is_simple,
    restrict_classes,
)
from admgraph.hyperelliptic import is_semisimple_of_size

ZERO = Fraction(0)


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
            outside = Counter(var for k, (_, var) in enumerate(edges) if k not in inside)
            terms[tuple(sorted(outside.items()))] += 1
    return MultiPoly(terms)


def l_by_definition(h):
    n = graph_size(h)
    terms = {}
    for subset in combinations(h.classes(), n):
        restricted, rinv, _ = restrict_classes(h, subset)
        if is_semisimple_of_size(restricted, rinv, n):
            terms[tuple((c, 1) for c in subset)] = 1
    return MultiPoly(terms)


def m_by_definition(h):
    n = graph_size(h)
    terms = {}
    for subset in combinations(h.classes(), n + 1):
        restricted, rinv, _ = restrict_classes(h, subset)
        nonfixed = {min(v, rinv.vertex(v)) for v in restricted.vertices if rinv.vertex(v) != v}
        if len(nonfixed) == 1:
            terms[tuple((c, 1) for c in subset)] = restricted.valence(min(nonfixed)) - 2
    return MultiPoly(terms)


def _elementary_symmetric(variables, k):
    if k < 0:
        return MultiPoly()
    return MultiPoly({tuple((v, 1) for v in subset): 1 for subset in combinations(sorted(variables), k)})


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
