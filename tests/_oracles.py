"""Independent oracles, deliberately not sharing code with the library.

* Resistance by the weighted matrix-tree identity: with conductance 1/l per
  edge, r(p, q) = F_pq / T where T sums conductance products over spanning
  trees and F_pq over spanning 2-forests separating p from q.  Brute-force
  subset enumeration; only for small graphs.

* The dual Kirchhoff polynomial Psi_G = sum over spanning trees T of the
  product of the variables of the edges outside T, by the same subset
  enumeration; MultiPoly is used only as the container to compare with.

* Green values by a different linear formulation: unknowns are the per-edge
  slope and offset (the curvature is fixed by the measure), constrained by
  endpoint continuity, vertex flux, and the vanishing integral, solved by a
  local reduced-row-echelon routine with a consistency check.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations

from admgraph import MultiPoly

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
