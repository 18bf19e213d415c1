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

One factorization per graph serves everything.  The weighted Laplacian L
(conductance 1/length) with the last vertex grounded (its row and column
removed) is scaled to integers by one global scale S, the lcm of the length
numerators, and K = S L is eliminated once, fraction-free (Bareiss, every
division exact), against the identity: that gives Y = det K^-1 in integers,
so L^-1 = S Y / det.

K is sparse, and the elimination stays inside its band.  The non-grounded
vertices are put in reverse Cuthill-McKee order (ties by vertex id, the
grounded vertex still last), which keeps K's nonzeros near the diagonal
(bandwidth 3 on a ladder, against about 2V/3 in the graph's own order).
K is positive definite (the graph is connected and one vertex grounded),
so every leading minor is positive: no pivot is zero and no row is ever
swapped, and a pivot that is not positive is a fault.  Elimination then
fills nothing outside K's envelope, so step k only touches the rows and
columns that the rows up to k reach.  A row outside that reach, or with a
zero multiplier, is in Bareiss only rescaled by the pivot over the previous
pivot; those ratios telescope, so the row keeps a pending ratio (the steps
it has taken) and is rescaled once, exactly, when next used.  K^-1 is
symmetric, so one triangle of Y is back-substituted and mirrored.  Forward
elimination costs O(V b^2) and the full inverse O(V^2 b) for bandwidth b.
A symmetric permutation changes neither det K nor K^-1, and both are
unique, so once Y is permuted back (S, det, Y) is bit for bit what the
dense elimination in the graph's own order gives (tests/_oracles.py keeps
that one as the reference).

Every resistance, R(p, q) = S (Y_pp + Y_qq - 2 Y_pq) / det, the canonical
and admissible measures (as integers over one denominator) and every Green
slice are read off Y.  On an edge of length l, at arc length s from its
first end, g(s) = (density/2) s^2 + beta s + g(start), so the only
unknowns are the vertex values: flux balance is a grounded solve, and a
constant shift then makes the integral against mu vanish.  Every slice
g(x, .) is kept as integer vertex values over one common denominator up to
the public boundary, the self-checks (both masses, flux at every vertex,
the integral, symmetry and constancy) run in integers, and Fractions are
built only for returned values (no tolerances exist; arithmetic is exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, List, Mapping, NamedTuple, Tuple

from .errors import (
    ArcLengthRangeError,
    ConstancyViolationError,
    DegreeMinusTwoError,
    SolverFaultError,
    UnknownIdError,
    _shown,
)
from .graph import Divisor, MetrizedGraph
from .rationals import INFINITY, as_fraction

ZERO = Fraction(0)

# (S, det, Y) from _factor: L^-1 = S Y / det for the grounded Laplacian L
_Factorization = Tuple[int, int, List[List[int]]]


def _denominator_lcm(*groups: Iterable[Fraction]) -> int:
    """The lcm of the denominators of all the fractions in the groups."""
    return lcm(*(x.denominator for xs in groups for x in xs))


def _scaled(xs: Iterable[Fraction], scale: int) -> List[int]:
    """x * scale for each x; scale must be a multiple of every denominator."""
    return [x.numerator * (scale // x.denominator) for x in xs]


def _band_order(g: MetrizedGraph) -> List[str]:
    """The vertices in reverse Cuthill-McKee order (Cuthill and McKee 1969),
    the grounded last vertex kept last.

    Each component of the graph without the grounded vertex is searched
    breadth first from its vertex of least degree, the unvisited neighbours
    of each vertex taken by degree; ties go by vertex id.  The order found
    is then reversed.  It keeps the grounded Laplacian's nonzeros near the
    diagonal: a ladder has bandwidth 3 in it.
    """
    ground = g.vertices[-1]
    nbrs: Dict[str, set] = {v: set() for v in g.vertices[:-1]}
    for e in g.edges:
        u, w = e.ends
        if u != w and ground not in e.ends:
            nbrs[u].add(w)
            nbrs[w].add(u)
    key = {v: (len(ws), v) for v, ws in nbrs.items()}.__getitem__
    seen: set = set()
    order: List[str] = []
    for start in sorted(nbrs, key=key):
        if start in seen:
            continue
        seen.add(start)
        order.append(start)
        walked = len(order) - 1
        while walked < len(order):
            new = sorted(nbrs[order[walked]] - seen, key=key)
            seen.update(new)
            order.extend(new)
            walked += 1
    order.reverse()
    order.append(ground)
    return order


def _eliminate(a: List[List[int]]) -> Tuple[int, List[List[int]]]:
    """det a and Y = det * a^-1 in integers for a symmetric positive
    definite a.  Returns (det, Y).

    Fraction-free (Bareiss) elimination without pivoting, kept inside a's
    envelope: hi[k], the last column reached by any row up to k, bounds the
    rows that step k updates, and elimination fills nothing outside it.  In
    Bareiss a row whose multiplier is zero is still rescaled by the pivot
    over the previous pivot; those ratios telescope, so such a row keeps
    the number of steps it has taken instead and is brought up to date,
    exactly, when it is next needed.  Every pivot is a leading principal
    minor, so a pivot that is not positive means a is not positive definite
    and raises SolverFaultError.  The last pivot is det = det a.
    Back-substitution fills one triangle of the symmetric Y and mirrors it:
    row k of the forward-eliminated identity is the previous pivot at
    column k and zero to its right.  Each division is exact by Cramer's rule.
    """
    n = len(a)
    hi: List[int] = []
    reach = 0
    for k, row in enumerate(a):
        reach = max(k, next((j for j in range(n - 1, reach, -1) if row[j]), reach))
        hi.append(reach)
    rows = [list(r) for r in a]
    pivots = [1]  # pivots[k]: the pivot of step k - 1; a row after k steps is a minor over it
    done = [0] * n  # steps each stored row has taken
    for k in range(n):
        top, end = rows[k], hi[k] + 1
        behind = done[k]
        if behind < k:
            top[k:end] = [x * pivots[k] // pivots[behind] for x in top[k:end]]
        lead = top[k]
        if lead <= 0:
            raise SolverFaultError("nonpositive pivot: the matrix is not positive definite")
        pivots.append(lead)
        for i in range(k + 1, end):
            row = rows[i]
            m = row[k]
            if not m:
                continue
            den = pivots[done[i]]
            stop = hi[i] + 1
            row[k + 1 : stop] = [
                (x * lead - m * t) // den for x, t in zip(row[k + 1 : stop], top[k + 1 : stop])
            ]
            done[i] = k + 1
    det = pivots[n]
    y = [[0] * n for _ in range(n)]
    for col in range(n - 1, -1, -1):
        top, end = rows[col], hi[col] + 1
        upper, lead = top[col + 1 : end], top[col]
        for c in range(n - 1, col - 1, -1):
            # y[c][j] = y[j][c] for the rows j > col already solved
            acc = -sum(map(mul, upper, y[c][col + 1 : end]))
            if c == col:
                acc += det * pivots[col]
            y[col][c] = y[c][col] = acc // lead
    return det, y


def _factor(g: MetrizedGraph) -> _Factorization:
    """(S, det, Y) from one elimination of the grounded Laplacian.

    K = S L is the weighted Laplacian (conductance 1/length) scaled to
    integers by S, the lcm of the length numerators, with the last vertex
    grounded (its row and column removed).  det and Y are the elimination's
    determinant and det K^-1 divided by their common factor, which is large
    when the lengths are.  Y has a row and a column per vertex, the grounded
    one 0.  So L^-1 = S Y / det.

    K is eliminated in the band order and Y permuted back to the graph's
    vertex order; a symmetric permutation changes neither det nor K^-1, so
    the result does not depend on the order.
    """
    order = _band_order(g)
    n = len(order) - 1
    index = {v: i for i, v in enumerate(order)}
    scale = lcm(*(e.length.numerator for e in g.edges))
    k = [[0] * n for _ in range(n)]
    for e in g.edges:
        c = e.length.denominator * (scale // e.length.numerator)
        iu, iw = index[e.ends[0]], index[e.ends[1]]
        for a, b in ((iu, iw), (iw, iu)):
            if a < n:
                k[a][a] += c
                if b < n:
                    k[a][b] -= c
    det, y = _eliminate(k)
    common = gcd(det, *(x for row in y for x in row))
    place = [index[v] for v in g.vertices[:n]]
    y = [[y[i][j] // common for j in place] + [0] for i in place]
    y.append([0] * (n + 1))
    return scale, det // common, y


def _resistance(g: MetrizedGraph, p: str, q: str) -> Fraction:
    """R(p, q) = S (Y_pp + Y_qq - 2 Y_pq) / det, read off the factorization."""
    scale, det, y = _factor(g)
    i, j = g.vertices.index(p), g.vertices.index(q)
    return Fraction(scale * (y[i][i] + y[j][j] - 2 * y[i][j]), det)


def effective_resistance(g: MetrizedGraph, p: str, q: str) -> Fraction:
    """Electrical resistance between p and q, each edge a resistor of value
    equal to its length."""
    g.require_vertex(p)
    g.require_vertex(q)
    g.require_analytic()
    if p == q:
        return ZERO
    return _resistance(g, p, q)


def cross_resistance(g: MetrizedGraph, edge_id: str):
    """Resistance across an edge's ends with its open interior removed.

    The edge (length l) is in parallel with that resistance r, so the
    resistance R across its ends with the edge in place gives
    r = l R / (l - R).  INFINITY exactly when R = l, i.e. the edge is a bridge.
    """
    e = g.edge(edge_id)
    g.require_analytic()
    across = _resistance(g, *e.ends)
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


class _Weights(NamedTuple):
    """A measure as integers over one denominator: mu({v}) = masses[i] / den
    for the i-th vertex, and the mass density * length on the j-th edge is
    edge_masses[j] / den (vertex and edge order of the graph)."""

    den: int
    masses: List[int]
    edge_masses: List[int]


def _require_polarization(g: MetrizedGraph, d: Divisor) -> None:
    if d.degree == -2:
        raise DegreeMinusTwoError("admissible measure undefined for deg(D) = -2")
    for v in d.support():
        g.require_vertex(v)


def _weights(g: MetrizedGraph, fac: _Factorization, d: Divisor) -> _Weights:
    """The admissible measure (delta_D + 2 * canonical) / (deg D + 2) in
    integers; D = 0 gives the canonical measure.

    The canonical measure has mass 1 - valence/2 at each vertex and, with R
    the resistance across an edge of length l, density (l - R) / l^2, so
    mass density * length = 1 - R / l = (det - c r) / det on the edge, where
    c = S / l is its scaled conductance and r = Y_uu + Y_ww - 2 Y_uw.  Both
    measures are checked to have total mass exactly 1.
    """
    scale, det, y = fac
    index = {v: i for i, v in enumerate(g.vertices)}
    twice = [2 * det] * len(index)  # 2 det (1 - valence/2) at each vertex
    edge_masses = []
    for e in g.edges:
        iu, iw = index[e.ends[0]], index[e.ends[1]]
        twice[iu] -= det
        twice[iw] -= det
        r = y[iu][iu] + y[iw][iw] - 2 * y[iu][iw]
        edge_masses.append(det - e.length.denominator * (scale // e.length.numerator) * r)
    if sum(twice) + 2 * sum(edge_masses) != 2 * det:
        raise SolverFaultError("canonical measure mass != 1")
    # D = a / s with integer a: mu({v}) = (a_v det + s twice_v) / ((sum a + 2 s) det)
    s = _denominator_lcm(d.coefficients.values())
    a = [0] * len(index)
    for v, x in d.coefficients.items():
        a[index[v]] = x.numerator * (s // x.denominator)
    den = (sum(a) + 2 * s) * det
    masses = [x * det + s * t for x, t in zip(a, twice)]
    edge_masses = [2 * s * t for t in edge_masses]
    common = gcd(den, *masses, *edge_masses)
    if den < 0:
        common = -common
    mu = _Weights(den // common, [x // common for x in masses], [x // common for x in edge_masses])
    if sum(mu.masses) + sum(mu.edge_masses) != mu.den:
        raise SolverFaultError("admissible measure mass != 1")
    return mu


def _measure(g: MetrizedGraph, mu: _Weights) -> Measure:
    return Measure(
        {v: Fraction(m, mu.den) for v, m in zip(g.vertices, mu.masses)},
        {
            e.id: Fraction(t * e.length.denominator, mu.den * e.length.numerator)
            for e, t in zip(g.edges, mu.edge_masses)
        },
    )


def canonical_measure(g: MetrizedGraph) -> Measure:
    """Mass 1 - valence/2 at each vertex, density 1/(l_e + r_e) on each edge
    (0 on bridges, the r_e -> infinity limit).  Total mass is exactly 1."""
    g.require_analytic()
    return _measure(g, _weights(g, _factor(g), Divisor()))


def admissible_measure(g: MetrizedGraph, d: Divisor) -> Measure:
    """(delta_D + 2 * canonical) / (deg D + 2); total mass exactly 1.

    Built from the canonical measure (rather than from the L-polynomial
    form) so it applies to every connected graph, trees included.
    """
    _require_polarization(g, d)
    g.require_analytic()
    return _measure(g, _weights(g, _factor(g), d))


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
            raise UnknownIdError(f"unknown vertex {_shown(v)}") from None

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


def _green_values(
    g: MetrizedGraph, fac: _Factorization, mu: _Weights, sources: Tuple[str, ...]
) -> Tuple[int, Dict[str, Dict[str, int]]]:
    """Vertex values of g(source, .) for several sources from one
    factorization, as integers over one common denominator n:
    g(source, v) = X / n.

    weights[v], mu({v}) plus half the mass of each incident edge, is the
    constant flux at v; the integral of g(source, .) against mu is
    sum_v weights[v] g(source, v) - c with c = sum rho^2 l^3 / 12 over the
    edges, and the weights sum to mu's mass 1.  With W / w the weights over
    their lcm w and L^-1 = (S / det) Y, flux balance (L f)_v = [v = source]
    - weights[v] gives f_source[v] = (S / det) (Y[v][source] - (Y W)[v] / w),
    and adding c - sum_u weights[u] f_source[u] makes the integral vanish.
    So g(s, v) = (S / det) Y[v][s] - p[v] - p[s] + k0 with
    p = (S / det) Y W / w and k0 = c + W . p / w, the only Fractions built:
    the shift by the source, (S / det) (W^T Y)[s] / w, is p[s] again since
    Y is symmetric.  n is the lcm of their denominators and that of S / det.
    """
    scale, det, y = fac
    index = {v: i for i, v in enumerate(g.vertices)}
    flux = [2 * m for m in mu.masses]
    for e, t in zip(g.edges, mu.edge_masses):
        flux[index[e.ends[0]]] += t
        flux[index[e.ends[1]]] += t
    w = 2 * mu.den
    common = gcd(w, *flux)
    w //= common
    flux = [x // common for x in flux]
    # c = sum (rho l)^2 l / 12 = sum (edge mass)^2 l / (12 den^2)
    lb = lcm(*(e.length.denominator for e in g.edges))
    c = Fraction(
        sum(
            t * t * e.length.numerator * (lb // e.length.denominator)
            for e, t in zip(g.edges, mu.edge_masses)
        ),
        12 * mu.den * mu.den * lb,
    )
    ratio = Fraction(scale, det)
    sigma, delta = ratio.numerator, ratio.denominator
    yw = [sum(x * f for x, f in zip(row, flux)) for row in y]
    p = [Fraction(sigma * x, delta * w) for x in yw]
    k0 = Fraction(sigma * sum(f * x for f, x in zip(flux, yw)), delta * w * w) + c
    n = lcm(delta, _denominator_lcm([k0], p))
    step = sigma * (n // delta)
    ps = _scaled(p, n)
    (k0n,) = _scaled([k0], n)
    out: Dict[str, Dict[str, int]] = {}
    for src in sources:
        s = index[src]
        shift = k0n - ps[s]
        out[src] = {v: step * row[s] - pv + shift for v, row, pv in zip(index, y, ps)}
    return n, out


def _assert_green_values(
    g: MetrizedGraph, mu: _Weights, n: int, slices: Mapping[str, Mapping[str, int]]
) -> None:
    """Certify slices g(source, v) = X / n of a Green's function, in integers.

    Computed from the values alone.  On edge (u, w) of length l and mass
    density rho the slope at u is beta = (X_w - X_u) / (n l) - rho l / 2.
    The outgoing slopes at every vertex, the grounded one included, must sum
    to mu({v}) - [v = source], and the integral against mu,
    sum m_v X_v / n + sum rho (rho l^3 / 6 + beta l^2 / 2 + X_u l / n),
    must vanish; violations are internal faults.  Flux is scaled by k n and
    the integral by j n, with k and j multiples of their coefficients'
    denominators, so each slice costs O(V + E) integer multiply-adds.
    """
    order = g.vertices
    index = {v: i for i, v in enumerate(order)}
    q = mu.den
    # rho l = t / q and 1 / l = b / a on an edge of length a / b
    k = lcm(2 * q, *(e.length.numerator for e in g.edges))
    j = lcm(6 * q * q, 2 * q * k) * lcm(*(e.length.denominator for e in g.edges))
    k_masses = [m * (k // q) for m in mu.masses]
    j_masses = [m * (j // q) for m in mu.masses]
    j_const = 0  # j sum rho^2 l^3 / 6
    edges = []
    for e, t in zip(g.edges, mu.edge_masses):
        a, b = e.length.numerator, e.length.denominator
        half = t * (k // (2 * q))  # k rho l / 2
        j_const += t * t * a * (j // (6 * q * q * b))
        # the integral's slope term takes beta * k * n as the flux computes it
        p = t * a * (j // (2 * q * k * b))
        ends = index[e.ends[0]], index[e.ends[1]]
        edges.append((*ends, b * (k // a), n * half, 2 * n * half, p, t * (j // q)))
    for src, values in slices.items():
        x = [values[v] for v in order]
        excess = [-n * a for a in k_masses]  # k n (flux - mu({v}) + [v = source])
        excess[index[src]] += k * n
        total = n * j_const + sum(a * y for a, y in zip(j_masses, x))  # j n integral
        for iu, iw, c, nh, n2h, p, qx in edges:
            xu = x[iu]
            beta = (x[iw] - xu) * c - nh  # k n beta
            excess[iu] += beta
            excess[iw] -= n2h + beta
            total += p * beta + qx * xu
        for v, off in zip(order, excess):
            if off:
                raise SolverFaultError(f"flux balance fails at {_shown(v)}")
        if total:
            raise SolverFaultError("integral of g against mu is nonzero")


def _checked_green(
    g: MetrizedGraph, d: Divisor, sources: Tuple[str, ...]
) -> Tuple[_Weights, int, Dict[str, Dict[str, int]]]:
    """The admissible measure and the slices g(source, .) for the sources,
    as integers over one denominator, from one factorization; certified,
    and checked to be exactly symmetric where both orders are present."""
    fac = _factor(g)
    mu = _weights(g, fac, d)
    n, values = _green_values(g, fac, mu, sources)
    _assert_green_values(g, mu, n, values)
    if any(values[x][y] != values[y][x] for x in sources for y in sources):
        raise SolverFaultError("Green matrix is not symmetric")
    return mu, n, values


def green_function(g: MetrizedGraph, d: Divisor, source: str) -> PiecewisePotential:
    """The unique piecewise-quadratic y -> g(source, y); exact rational solve."""
    g.require_vertex(source)
    g.require_analytic()
    _require_polarization(g, d)
    mu, n, slices = _checked_green(g, d, (source,))
    values = {v: Fraction(x, n) for v, x in slices[source].items()}
    second = _measure(g, mu).edge_densities
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
    g.require_analytic()
    _require_polarization(g, d)
    _, n, values = _checked_green(g, d, g.vertices)
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
    _require_polarization(g, d)
    g.require_analytic()
    _, n, values = _checked_green(g, d, g.vertices)
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
