"""Exact potential theory on metrized graphs.

Effective resistance, the canonical and admissible measures, Green's
functions and the admissible constant, all solved over exact rationals.

The Green's function g(x, y) of a polarized graph (G, D) with deg D != -2 is
pinned down by five properties: the admissible measure has total mass 1;
g is symmetric and continuous; Delta_y g(x, .) = delta_x - mu; the integral
of g(x, .) against mu vanishes; and g(D, y) + g(y, y) is constant in y.  The
solver fixes all sign conventions by *requiring* these properties of its
output: on each edge g'' equals the measure's density, at each vertex the
outgoing slopes sum to mu({v}) - [v = source], and every property is
asserted post-hoc (a violation raises SolverFaultError, never returns).
The Green self-checks (flux at every vertex, the integral, symmetry and
constancy) run in integers: every slice g(x, .) is kept as integer vertex
values over one common denominator from the solve to the public boundary,
and Fractions are built only for returned values.

One linear system serves everything: the weighted Laplacian with the last
vertex grounded (its row and column removed), solved for current-injection
columns.  Cross resistances and the canonical density come from the
resistance across each edge.  On an edge of length l, at arc
length s from its first end, g(s) = (density/2) s^2 + beta s + g(start), so
the only unknowns are the vertex values: flux balance is a grounded solve,
and a constant shift then makes the integral against mu vanish.
Everything is solved by fraction-free (Bareiss) elimination in integers
with first-nonzero pivoting: each row is scaled to integers, every division
is exact, and Fractions appear only in the solution (no tolerances exist;
arithmetic is exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Mapping, Tuple

from .errors import (
    ArcLengthRangeError,
    ConstancyViolationError,
    DegreeMinusTwoError,
    SolverFaultError,
    UnknownIdError,
)
from .graph import Divisor, MetrizedGraph
from .rationals import INFINITY, as_fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_linear(matrix: List[List[Fraction]], rhs: List[List[Fraction]]) -> List[List[Fraction]]:
    """Solve A X = B exactly for square A; B holds one column per solve.

    Fraction-free (Bareiss) elimination in Python ints.  Each row of [A | B]
    is scaled to integers by the lcm of its denominators, which leaves X
    unchanged.  Forward elimination divides exactly by the previous pivot,
    so the last pivot is the determinant det of the scaled, row-swapped A.
    Back-substitution then yields det * X in integers (each division is
    exact by Cramer's rule), and Fractions are built only at the end.
    Pivot = first row with a nonzero entry in column order, so the
    elimination path is deterministic.
    """
    n = len(matrix)
    a = []
    for row in (list(ar) + list(br) for ar, br in zip(matrix, rhs)):
        scale = lcm(*(x.denominator for x in row))
        a.append([x.numerator * (scale // x.denominator) for x in row])
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise SolverFaultError("singular linear system")
        a[col], a[pivot] = a[pivot], a[col]
        top = a[col]
        lead = top[col]
        for row in a[col + 1 :]:
            factor = row[col]
            for c in range(col + 1, len(row)):
                row[c] = (row[c] * lead - factor * top[c]) // prev
        prev = lead
    scaled: List[List[int]] = [[] for _ in range(n)]  # det * X, row by row
    for col in range(n - 1, -1, -1):
        row = a[col]
        scaled[col] = [
            (prev * b - sum(row[k] * scaled[k][c] for k in range(col + 1, n))) // row[col]
            for c, b in enumerate(row[n:])
        ]
    return [[Fraction(y, prev) for y in ys] for ys in scaled]


def _grounded_solve(
    g: MetrizedGraph, columns: List[Mapping[str, Fraction]]
) -> List[Dict[str, Fraction]]:
    """Vertex potentials for current injections, in one elimination.

    Each column maps vertices to injected current and must sum to zero.  The
    weighted Laplacian (conductance 1/length) is solved with the last vertex
    grounded: its row and column are removed and its potential is 0.
    """
    order = g.vertices
    n = len(order) - 1
    index = {v: i for i, v in enumerate(order)}
    lap = [[ZERO] * n for _ in range(n)]
    for e in g.edges:
        c = ONE / e.length
        iu, iw = index[e.ends[0]], index[e.ends[1]]
        for a, b in ((iu, iw), (iw, iu)):
            if a < n:
                lap[a][a] += c
                if b < n:
                    lap[a][b] -= c
    rhs = [[col.get(v, ZERO) for col in columns] for v in order[:n]]
    x = solve_linear(lap, rhs) + [[ZERO] * len(columns)]
    return [{v: x[i][j] for i, v in enumerate(order)} for j in range(len(columns))]


def _resistances(g: MetrizedGraph, pairs: List[Tuple[str, str]]) -> List[Fraction]:
    """Effective resistance between each pair of distinct vertices."""
    potentials = _grounded_solve(g, [{p: ONE, q: -ONE} for p, q in pairs])
    return [x[p] - x[q] for x, (p, q) in zip(potentials, pairs)]


def effective_resistance(g: MetrizedGraph, p: str, q: str) -> Fraction:
    """Electrical resistance between p and q, each edge a resistor of value
    equal to its length."""
    g.require_vertex(p)
    g.require_vertex(q)
    g.require_analytic()
    if p == q:
        return ZERO
    return _resistances(g, [(p, q)])[0]


def cross_resistance(g: MetrizedGraph, edge_id: str):
    """Resistance across an edge's ends with its open interior removed.

    The edge (length l) is in parallel with that resistance r, so the
    resistance R across its ends with the edge in place gives
    r = l R / (l - R).  INFINITY exactly when R = l, i.e. the edge is a bridge.
    """
    e = g.edge(edge_id)
    g.require_analytic()
    across = _resistances(g, [e.ends])[0]
    if across == e.length:
        return INFINITY
    return e.length * across / (e.length - across)


class Measure:
    """Measure with rational point masses at vertices and uniform densities
    (mass per unit length) on edges."""

    __slots__ = ("vertex_masses", "edge_densities")

    def __init__(self, vertex_masses: Mapping[str, object], edge_densities: Mapping[str, object]):
        object.__setattr__(
            self, "vertex_masses", {v: as_fraction(m) for v, m in vertex_masses.items()}
        )
        object.__setattr__(
            self, "edge_densities", {e: as_fraction(d) for e, d in edge_densities.items()}
        )

    def __setattr__(self, name, value):
        raise AttributeError("Measure is immutable")

    def mass_at(self, v: str) -> Fraction:
        return self.vertex_masses.get(v, ZERO)

    def density_on(self, edge_id: str) -> Fraction:
        return self.edge_densities.get(edge_id, ZERO)

    def total_mass(self, g: MetrizedGraph) -> Fraction:
        total = sum(self.vertex_masses.values(), ZERO)
        for e in g.edges:
            total += self.density_on(e.id) * e.length
        return total

    def __eq__(self, other):
        if not isinstance(other, Measure):
            return NotImplemented

        def nonzero(mapping):
            return {k: x for k, x in mapping.items() if x != 0}

        return nonzero(self.vertex_masses) == nonzero(other.vertex_masses) and nonzero(
            self.edge_densities
        ) == nonzero(other.edge_densities)


def canonical_measure(g: MetrizedGraph) -> Measure:
    """Mass 1 - valence/2 at each vertex, density 1/(l_e + r_e) on each edge
    (0 on bridges, the r_e -> infinity limit).  Total mass is exactly 1."""
    g.require_analytic()
    masses = {v: ONE - Fraction(g.valence(v), 2) for v in g.vertices}
    # 1/(l + r) with r = l R / (l - R) is (l - R) / l^2, which is 0 on bridges
    resistances = _resistances(g, [e.ends for e in g.edges])
    densities = {e.id: (e.length - r) / e.length**2 for e, r in zip(g.edges, resistances)}
    mu = Measure(masses, densities)
    if mu.total_mass(g) != 1:
        raise SolverFaultError("canonical measure mass != 1")
    return mu


def admissible_measure(g: MetrizedGraph, d: Divisor) -> Measure:
    """(delta_D + 2 * canonical) / (deg D + 2); total mass exactly 1.

    Built from the canonical measure (rather than from the L-polynomial
    form) so it applies to every connected graph, trees included.
    """
    deg = d.degree
    if deg == -2:
        raise DegreeMinusTwoError("admissible measure undefined for deg(D) = -2")
    for v in d.support():
        g.require_vertex(v)
    can = canonical_measure(g)
    scale = ONE / (deg + 2)
    masses = {v: (d.coefficient(v) + 2 * can.mass_at(v)) * scale for v in g.vertices}
    densities = {e.id: 2 * can.density_on(e.id) * scale for e in g.edges}
    mu = Measure(masses, densities)
    if mu.total_mass(g) != 1:
        raise SolverFaultError("admissible measure mass != 1")
    return mu


@dataclass(frozen=True)
class PiecewisePotential:
    """One slice y -> g(source, y) of a Green's function.

    On edge e = (u, w), parameterized by arc length s from u,
    value(s) = (second_derivative/2) s^2 + slope_at_start s + value(u);
    the second derivative equals the admissible measure's density on e.
    """

    graph: MetrizedGraph
    source: str
    vertex_values: Mapping[str, Fraction]
    second_derivatives: Mapping[str, Fraction]
    slopes_at_start: Mapping[str, Fraction]

    def value_at_vertex(self, v: str) -> Fraction:
        try:
            return self.vertex_values[v]
        except KeyError:
            raise UnknownIdError(f"unknown vertex {v!r}") from None

    def value_on_edge(self, edge_id: str, s: Fraction) -> Fraction:
        e = self.graph.edge(edge_id)
        s = as_fraction(s)
        if not (0 <= s <= e.length):
            raise ArcLengthRangeError("arc length outside the edge")
        alpha = self.second_derivatives[edge_id] / 2
        beta = self.slopes_at_start[edge_id]
        return alpha * s * s + beta * s + self.vertex_values[e.ends[0]]

    def integral_against(self, mu: Measure) -> Fraction:
        """Exact integral of this potential against a measure."""
        total = ZERO
        for v, value in self.vertex_values.items():
            total += mu.mass_at(v) * value
        for e in self.graph.edges:
            dens = mu.density_on(e.id)
            if dens == 0:
                continue
            alpha = self.second_derivatives[e.id] / 2
            beta = self.slopes_at_start[e.id]
            gamma = self.vertex_values[e.ends[0]]
            l = e.length
            total += dens * (alpha * l**3 / 3 + beta * l**2 / 2 + gamma * l)
        return total


def _denominator_lcm(*groups: Iterable[Fraction]) -> int:
    """The lcm of the denominators of all the fractions in the groups."""
    return lcm(*(x.denominator for xs in groups for x in xs))


def _scaled(xs: Iterable[Fraction], scale: int) -> List[int]:
    """x * scale for each x; scale must be a multiple of every denominator."""
    return [x.numerator * (scale // x.denominator) for x in xs]


def _green_values(
    g: MetrizedGraph, mu: Measure, sources: Tuple[str, ...]
) -> Tuple[int, Dict[str, Dict[str, int]]]:
    """Vertex values of g(source, .) for several sources in one elimination,
    as integers over one common denominator n: g(source, v) = X / n.

    weights[v], mu({v}) plus half of density * length per incident edge, is
    the constant flux at v and the coefficient of g(source, v) in the
    integral against mu; the weights sum to mu's mass 1, so shifting a
    grounded solution by a constant shifts its integral by the same.  With d
    the lcm of the solution denominators and w that of the weights and the
    constant term, n = d * w and the shift is exact integer arithmetic.
    """
    weights = {v: mu.mass_at(v) for v in g.vertices}
    const = ZERO  # the part of the integral not linear in the vertex values
    for e in g.edges:
        dens = mu.density_on(e.id)
        half = dens * e.length / 2
        weights[e.ends[0]] += half
        weights[e.ends[1]] += half
        const += -dens * dens / 2 * e.length**3 / 6

    # flux balance: (L f)_v = [v = source] - weights[v]
    columns = [
        {v: (ONE if v == src else ZERO) - w for v, w in weights.items()} for src in sources
    ]
    solved = _grounded_solve(g, columns)
    d = _denominator_lcm(*(values.values() for values in solved))
    w = _denominator_lcm([const], weights.values())
    int_const, *int_weights = _scaled([const, *weights.values()], w)
    out: Dict[str, Dict[str, int]] = {}
    for src, values in zip(sources, solved):
        xs = _scaled(values.values(), d)
        shift = -int_const * d - sum(a * x for a, x in zip(int_weights, xs))
        out[src] = {v: x * w + shift for v, x in zip(values, xs)}
    return d * w, out


def _assert_green_values(
    g: MetrizedGraph, mu: Measure, n: int, slices: Mapping[str, Mapping[str, int]]
) -> None:
    """Certify slices g(source, v) = X / n of a Green's function, in integers.

    Computed from the values alone.  On edge (u, w) of length l and density
    rho the slope at u is beta = (X_w - X_u) / (n l) - rho l / 2.  The
    outgoing slopes at every vertex, the grounded one included, must sum to
    mu({v}) - [v = source], and the integral against mu,
    sum m_v X_v / n + sum rho (rho l^3 / 6 + beta l^2 / 2 + X_u l / n),
    must vanish; violations are internal faults.  Flux is scaled by k n and
    the integral by j n, with k and j the lcms of their coefficients'
    denominators, so each slice costs O(V + E) integer multiply-adds.
    """
    order = g.vertices
    index = {v: i for i, v in enumerate(order)}
    masses = [mu.mass_at(v) for v in order]
    lengths = [e.length for e in g.edges]
    rho = [mu.density_on(e.id) for e in g.edges]
    conductances = [ONE / l for l in lengths]
    halves = [r * l / 2 for r, l in zip(rho, lengths)]
    k = _denominator_lcm(masses, conductances, halves)
    # the integral's slope term takes beta * k * n as the flux computes it
    slope_terms = [r * l * l / (2 * k) for r, l in zip(rho, lengths)]
    value_terms = [r * l for r, l in zip(rho, lengths)]
    const = sum((r * r * l**3 / 6 for r, l in zip(rho, lengths)), ZERO)
    j = _denominator_lcm([const], masses, slope_terms, value_terms)
    k_masses = _scaled(masses, k)
    j_const, *j_masses = _scaled([const, *masses], j)
    edges = [
        (index[e.ends[0]], index[e.ends[1]], c, n * h, 2 * n * h, p, q)
        for e, c, h, p, q in zip(
            g.edges,
            _scaled(conductances, k),
            _scaled(halves, k),
            _scaled(slope_terms, j),
            _scaled(value_terms, j),
        )
    ]
    for src, values in slices.items():
        x = [values[v] for v in order]
        excess = [-n * a for a in k_masses]  # k n (flux - mu({v}) + [v = source])
        excess[index[src]] += k * n
        total = n * j_const + sum(a * y for a, y in zip(j_masses, x))  # j n integral
        for iu, iw, c, nh, n2h, p, q in edges:
            xu = x[iu]
            beta = (x[iw] - xu) * c - nh  # k n beta
            excess[iu] += beta
            excess[iw] -= n2h + beta
            total += p * beta + q * xu
        for v, off in zip(order, excess):
            if off:
                raise SolverFaultError(f"flux balance fails at {v!r}")
        if total:
            raise SolverFaultError("integral of g against mu is nonzero")


def _checked_green_matrix(g: MetrizedGraph, d: Divisor) -> Tuple[int, Dict[str, Dict[str, int]]]:
    """Every slice g(x, .) as integers over one denominator, certified and
    checked to be exactly symmetric."""
    g.require_analytic()
    mu = admissible_measure(g, d)
    n, values = _green_values(g, mu, g.vertices)
    _assert_green_values(g, mu, n, values)
    if any(values[x][y] != values[y][x] for x in g.vertices for y in g.vertices):
        raise SolverFaultError("Green matrix is not symmetric")
    return n, values


def green_function(g: MetrizedGraph, d: Divisor, source: str) -> PiecewisePotential:
    """The unique piecewise-quadratic y -> g(source, y); exact rational solve."""
    g.require_vertex(source)
    g.require_analytic()
    mu = admissible_measure(g, d)
    n, slices = _green_values(g, mu, (source,))
    _assert_green_values(g, mu, n, slices)
    values = {v: Fraction(x, n) for v, x in slices[source].items()}
    second = {e.id: mu.density_on(e.id) for e in g.edges}
    slopes = {
        e.id: (values[e.ends[1]] - values[e.ends[0]]) / e.length - second[e.id] * e.length / 2
        for e in g.edges
    }
    return PiecewisePotential(g, source, values, second, slopes)


def green_pairing(g: MetrizedGraph, d: Divisor, p: str, q: str) -> Fraction:
    """g(p, q) at vertices; symmetric in (p, q)."""
    g.require_vertex(q)
    return green_function(g, d, p).value_at_vertex(q)


def green_matrix(g: MetrizedGraph, d: Divisor) -> Dict[str, Dict[str, Fraction]]:
    """All vertex pair values g(x, y) from a single elimination; the matrix
    is checked to be exactly symmetric."""
    n, values = _checked_green_matrix(g, d)
    return {x: {y: Fraction(v, n) for y, v in row.items()} for x, row in values.items()}


def epsilon_numeric(g: MetrizedGraph, d: Divisor) -> Tuple[Fraction, Fraction]:
    """The admissible constant: epsilon = 2 deg(D) c - g(D, D).

    c is computed as g(D, y) + g(y, y) at every vertex y and checked to be
    identical across vertices (exact equality); a mismatch signals a solver
    bug and raises ConstancyViolationError.
    """
    deg = d.degree
    if deg == -2:
        raise DegreeMinusTwoError("admissible constant undefined for deg(D) = -2")
    for v in d.support():
        g.require_vertex(v)
    n, values = _checked_green_matrix(g, d)
    # D scaled to integer coefficients a, so s n c = sum_x a_x X[x][y] + s X[y][y]
    s = _denominator_lcm(d.coefficients.values())
    a = dict(zip(d.coefficients, _scaled(d.coefficients.values(), s)))
    cs = [sum(b * values[x][y] for x, b in a.items()) + s * values[y][y] for y in g.vertices]
    if any(x != cs[0] for x in cs):
        raise ConstancyViolationError("g(D,y) + g(y,y) differs between vertices")
    c = Fraction(cs[0], s * n)
    g_d_d = Fraction(
        sum(b * b2 * values[x][y] for x, b in a.items() for y, b2 in a.items()), s * s * n
    )
    return 2 * deg * c - g_d_d, c
