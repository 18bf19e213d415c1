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

One elimination per call serves everything.  The weighted Laplacian L
(conductance 1/length) with the last vertex grounded (its row and column
removed) is scaled to integers by one global scale S, the lcm of the length
numerators, and K = S L is eliminated once, fraction-free (Bareiss, every
division exact).  Y = det K^-1 is then an integer matrix and L^-1 = S Y /
det.  Each call reads only the entries of Y it needs; only green_matrix,
which needs them all, builds all of Y.

K is sparse, and the elimination stays inside its band.  The non-grounded
vertices are put in reverse Cuthill-McKee order (ties by vertex id, the
grounded vertex still last), which keeps K's nonzeros near the diagonal
(bandwidth 3 on a ladder, against about 2V/3 in the graph's own order).
K is positive definite (the graph is connected and one vertex grounded),
so every leading minor is positive: no pivot is zero and no row is ever
swapped, and a pivot that is not positive is a fault.  Elimination then
fills nothing outside K's envelope (hi[k], the last column any row up to k
reaches), so step k only touches the rows and columns that the rows up to
k reach.  A row outside that reach, or with a zero multiplier, is in
Bareiss only rescaled by the pivot over the previous pivot; those ratios
telescope, so the row keeps a pending ratio (the steps it has taken) and
is rescaled once, exactly, when next used.  Forward elimination costs
O(V b^2) for bandwidth b and keeps each step's multipliers.  From it:

* the envelope of Y (Y_ij with j <= hi[i]) by back-substitution restricted
  to the envelope, O(V b^2) (Takahashi, Fagan and Chin 1973; Erisman and
  Tinney 1975): hi is nondecreasing, so every entry the recurrence reads
  is itself in the envelope.  It holds the diagonal and, since K_uw != 0
  puts w within hi[u], every edge.  The same recurrence run for every
  column gives all of Y, O(V^2 b), for green_matrix;
* a column Y b for any integer b, O(V b): the forward pass replayed on b
  from the kept multipliers, with the same pending ratios, then
  back-substitution against the eliminated rows.

A symmetric permutation changes neither det K nor K^-1, and both are
unique, so every entry read is bit for bit the one the dense elimination
in the graph's own order gives (tests/_oracles.py keeps that one, and the
full inverse, as references).  The band order is decided once, in
_factor, and is the one index space of the module: every integer vector
over the vertices (charges, masses, columns of Y, Green slices, the
diagonal) is indexed by band position, the grounded vertex last, and only
the public entry points, building Fractions, key them by vertex id in the
graph's order.  det and the entries of Y share a factor, large when the
lengths are long; the Green values divide it out of det and of every
entry they read, and a returned Fraction is reduced anyway.

A resistance R(p, q) = S (x_p - x_q) / det is one column x = Y (e_p - e_q).
The canonical and admissible measures (as integers over one denominator)
read the envelope on the edges.  On an edge of length l, at arc length s
from its first end, g(s) = (density/2) s^2 + beta s + g(start), so the only
unknowns are the vertex values: flux balance is a grounded solve, and a
constant shift then makes the integral against mu vanish.  With p = Z w
(Z = L^-1, w the flux weights) g(x, y) = Z_xy - p_x - p_y + k0, so a slice
g(s, .) is two columns, Y e_s and Y w.  Every slice is kept as integer
vertex values over one common denominator up to the public boundary, the
self-checks (both masses, flux at every vertex, the integral, symmetry and
constancy) run in integers, and Fractions are built only for returned
values (no tolerances exist; arithmetic is exact).

The admissible constant needs only g(D, .) (column Y a for D = a / s),
the diagonal g(y, y) (the envelope) and Y w.  It is certified by both
total masses, flux and the integral on g(D, .) and on one full slice
g(y0, .), the symmetry a . g(y0, .) = s g(D, y0), and g(D, y) + g(y, y)
being constant at every vertex: the first slice pins g(D, .), the second
pins g(y0, y0) and so the constant, and constancy then pins every other
diagonal entry.  y0 is the graph's first vertex, never the grounded one,
whose column of Y is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

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


class _Elimination(NamedTuple):
    """The forward pass of _eliminate on an n x n matrix.

    hi[k] is the last column any row up to k reaches.  pivots[k] is the
    k-th leading principal minor, pivots[0] = 1, so the determinant is
    pivots[n].  Row k of the fraction-free upper triangle U (row k after k
    steps) is pivots[k + 1] at column k, upper[k] at columns k + 1 to hi[k]
    and zero beyond.  steps[k] = (behind, updates) replays step k on a
    column: row k had taken `behind` steps, and each (i, m, den) in updates
    took row i to k + 1 steps by (row_i * pivots[k + 1] - m * row_k) // den,
    m being row i's multiplier as the row then stood.
    """

    hi: List[int]
    upper: List[List[int]]
    pivots: List[int]
    steps: List[Tuple[int, List[Tuple[int, int, int]]]]


def _eliminate(a: List[List[int]]) -> _Elimination:
    """Forward fraction-free (Bareiss) elimination of a symmetric positive
    definite a, without pivoting, kept inside a's envelope.

    hi[k] bounds the rows that step k updates, and elimination fills
    nothing outside it.  The matrix after k steps is symmetric (entry ij is
    the minor of the first k rows and columns bordered by row i and column
    j), so each row is updated from its diagonal on only, its multiplier
    read from the pivot row.  In Bareiss a row whose multiplier is zero is
    still rescaled by the pivot over the previous pivot; those ratios
    telescope, so such a row keeps the number of steps it has taken instead
    and is brought up to date, exactly, when it is next needed.  Every
    pivot is a leading principal minor, so a pivot that is not positive
    means a is not positive definite and raises SolverFaultError.
    """
    n = len(a)
    hi: List[int] = []
    reach = 0
    for k, row in enumerate(a):
        last = n - 1 - next(compress(count(), reversed(row)), n - 1)  # last nonzero column
        reach = max(k, reach, last)
        hi.append(reach)
    rows = [list(r) for r in a]
    pivots = [1]  # pivots[k]: the pivot of step k - 1; a row after k steps is a minor over it
    done = [0] * n  # steps each stored row has taken
    steps = []
    for k in range(n):
        top, end = rows[k], hi[k] + 1
        behind = done[k]
        if behind < k:
            top[k:end] = [x * pivots[k] // pivots[behind] for x in top[k:end]]
        lead = top[k]
        if lead <= 0:
            raise SolverFaultError("nonpositive pivot: the matrix is not positive definite")
        pivots.append(lead)
        updates = []
        for i in range(k + 1, end):
            m = top[i]  # row i's multiplier after k steps: the step-k matrix is symmetric
            if not m:
                continue
            row, taken = rows[i], done[i]
            den = pivots[taken]
            if taken < k:
                m = m * den // pivots[k]  # as row i stands, pending ratio unresolved
            stop = hi[i] + 1
            row[i:stop] = [(x * lead - m * t) // den for x, t in zip(row[i:stop], top[i:stop])]
            done[i] = k + 1
            updates.append((i, m, den))
        steps.append((behind, updates))
    upper = [row[k + 1 : end + 1] for k, (row, end) in enumerate(zip(rows, hi))]
    return _Elimination(hi, upper, pivots, steps)


# The envelope of Y = det a^-1: y[i][j - first[i]] = Y_ij for
# first[i] <= j <= hi[i], where first[i] is the first row whose envelope
# reaches column i (so the stored part of each row is symmetric about it).
_Envelope = Tuple[List[int], List[List[int]]]


def _envelope(el: _Elimination, full: bool = False) -> _Envelope:
    """The entries of Y = det a^-1 inside a's envelope, or all of Y if
    full (first is then all 0), in integers.

    Back-substitution against U, row by row from the last, for the columns
    c <= hi[col] of row col only (c <= n - 1 if full): row col of the
    forward-eliminated identity is the previous pivot at column col and
    zero to its right, and since hi is nondecreasing every Y_jc the
    recurrence reads (col < j <= hi[col]) lies in the envelope and is
    already solved.  Each division is exact by Cramer's rule.
    """
    hi, upper, pivots, _ = el
    n = len(hi)
    det = pivots[n]
    last = [n - 1] * n if full else hi
    first: List[int] = []
    j = 0
    for c in range(n):
        while last[j] < c:
            j += 1
        first.append(j)
    y = [[0] * (last[c] + 1 - first[c]) for c in range(n)]
    for col in range(n - 1, -1, -1):
        u, end, lead = upper[col], hi[col] + 1, pivots[col + 1]
        own, base = y[col], first[col]
        for c in range(last[col], col - 1, -1):
            row, fc = y[c], first[c]
            # Y_cj for col < j <= hi[col], those with j < c mirrored from row j
            acc = -sum(map(mul, u, row[col + 1 - fc : end - fc]))
            if c == col:
                acc += det * pivots[col]
            row[col - fc] = own[c - base] = acc // lead
    return first, y


def _solve(el: _Elimination, b: List[int], f: int = 1) -> Optional[List[int]]:
    """Y b / f = det a^-1 b / f in integers for an integer vector b and a
    divisor f of det, or None if f does not divide every entry of Y b.

    b has one entry more than a has rows, for the grounded vertex: it is
    not read, and the entry returned there is 0 (Y's grounded row and
    column are zero).  The forward pass is replayed on b from the kept
    steps: b's rows keep the same pending ratios as a's (a zero row needs
    none), so each update divides exactly.  Back-substitution against U
    with det / f in place of det then gives Y b / f where that is integral:
    each division is exact by Cramer's rule for f = 1, and for any f unless
    it leaves a remainder.  O(V b).  Numbers stay smaller by f's size,
    which matters when the lengths are long: det and all of Y then share a
    large factor.
    """
    hi, upper, pivots, steps = el
    n = len(hi)
    x = b[:n]
    for k, (behind, updates) in enumerate(steps):
        xk = x[k]
        if xk and behind < k:
            x[k] = xk = xk * pivots[k] // pivots[behind]
        lead = pivots[k + 1]
        for i, m, den in updates:
            xi = x[i]
            if xi or xk:
                x[i] = (xi * lead - m * xk) // den
    top = pivots[-1] // f
    for k in range(n - 1, -1, -1):
        acc = top * x[k] - sum(map(mul, upper[k], x[k + 1 : hi[k] + 1]))
        x[k], rest = divmod(acc, pivots[k + 1])
        if rest:
            return None
    x.append(0)
    return x


class _Factorization(NamedTuple):
    """One elimination of a graph's grounded Laplacian, and the one index
    space of the module: every integer vector over the vertices is indexed
    by position in order, the band order (grounded vertex last), and
    index[v] is the position of v.  Edge j, in the graph's edge order,
    joins the positions ends[j] and has length nums[j] / dens[j].
    K = scale * L is the weighted Laplacian (conductance 1/length) scaled to
    integers by the lcm of the length numerators, the grounded row and
    column removed.  Y = det K^-1 is read through _solve and _envelope;
    L^-1 = scale * Y / det.
    """

    order: List[str]
    index: Dict[str, int]
    ends: List[Tuple[int, int]]
    nums: List[int]
    dens: List[int]
    scale: int
    elim: _Elimination

    @property
    def det(self) -> int:
        return self.elim.pivots[-1]


def _factor(g: MetrizedGraph) -> _Factorization:
    """Eliminate the grounded Laplacian of g once, in the band order; a
    symmetric permutation changes neither det K nor K^-1."""
    order = _band_order(g)
    n = len(order) - 1
    index = {v: i for i, v in enumerate(order)}
    ends = [(index[e.ends[0]], index[e.ends[1]]) for e in g.edges]
    nums = [e.length.numerator for e in g.edges]
    dens = [e.length.denominator for e in g.edges]
    scale = lcm(*nums)
    k = [[0] * n for _ in range(n)]
    for (i, j), a, b in zip(ends, nums, dens):
        c = b * (scale // a)
        if i < n:
            k[i][i] += c
            if j < n:
                k[i][j] -= c
                k[j][i] -= c
        if j < n:
            k[j][j] += c
    return _Factorization(order, index, ends, nums, dens, scale, _eliminate(k))


def _unit(fac: _Factorization, v: str) -> List[int]:
    """The charge vector of one unit at v."""
    b = [0] * len(fac.order)
    b[fac.index[v]] = 1
    return b


def _resistance(g: MetrizedGraph, p: str, q: str) -> Fraction:
    """R(p, q) = S (x_p - x_q) / det for the column x = Y (e_p - e_q)."""
    fac = _factor(g)
    i, j = fac.index[p], fac.index[q]
    b = _unit(fac, p)
    b[j] = -1
    x = _solve(fac.elim, b)
    return Fraction(fac.scale * (x[i] - x[j]), fac.det)


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
        """The vertex masses plus density * length on each edge of g, summed
        over one common denominator."""
        terms = [(m.numerator, m.denominator) for m in self.vertex_masses.values()]
        for e in g.edges:
            rho, l = self.edge_densities.get(e.id), e.length
            if rho:
                terms.append((rho.numerator * l.numerator, rho.denominator * l.denominator))
        den = lcm(*[b for _, b in terms])
        return Fraction(sum([a * (den // b) for a, b in terms]), den)

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
    for the vertex at band position i, and the mass density * length on
    the j-th edge (the graph's edge order) is edge_masses[j] / den."""

    den: int
    masses: List[int]
    edge_masses: List[int]


# D = a / s in integers: s the lcm of the coefficients' denominators, a the
# integer coefficients by vertex id
_Polarization = Tuple[int, Dict[str, int]]


def _polarization(g: MetrizedGraph, d: Divisor, what: str = "admissible measure") -> _Polarization:
    """D in integers, once deg D != -2 and D's support on g are checked."""
    s = lcm(*[x.denominator for x in d.coefficients.values()])
    scaled = {v: x.numerator * (s // x.denominator) for v, x in d.coefficients.items()}
    if sum(scaled.values()) == -2 * s:
        raise DegreeMinusTwoError(f"{what} undefined for deg(D) = -2")
    for v in d.support():
        g.require_vertex(v)
    return s, scaled


def _solved_measure(
    g: MetrizedGraph, pol: _Polarization, full: bool = False
) -> Tuple[_Factorization, List[int], List[int], _Weights, List[List[int]]]:
    """One elimination; the coefficients a of D = a / s, placed in band
    order; the diagonal of Y, read off the envelope; the admissible
    measure (delta_D + 2 * canonical) / (deg D + 2) in integers (D = 0
    gives the canonical measure); and the rows of the envelope, or of all
    of Y if full (see _envelope).

    The canonical measure has mass 1 - valence/2 at each vertex and, with R
    the resistance across an edge of length l, density (l - R) / l^2, so
    mass density * length = 1 - R / l = (det - c r) / det on the edge, where
    c = S / l is its scaled conductance and r = Y_uu + Y_ww - 2 Y_uw, all
    three in the envelope.  Both measures are checked to have total mass
    exactly 1; for the canonical one that is Foster's theorem,
    sum R / l = V - 1.
    """
    fac = _factor(g)
    det = fac.det
    s, scaled = pol
    a = [scaled.get(v, 0) for v in fac.order]
    first, y = _envelope(fac.elim, full)
    n = len(y)
    diag = [row[i - f] for i, (f, row) in enumerate(zip(first, y))] + [0]
    twice = [2 * det] * (n + 1)  # 2 det (1 - valence/2) at each vertex
    edge_masses = []
    for (i, j), p, q in zip(fac.ends, fac.nums, fac.dens):  # an edge of length p / q
        twice[i] -= det
        twice[j] -= det
        r = diag[i] + diag[j] - (0 if i == n or j == n else 2 * y[i][j - first[i]])
        edge_masses.append(det - q * (fac.scale // p) * r)
    if sum(twice) + 2 * sum(edge_masses) != 2 * det:
        raise SolverFaultError("canonical measure mass != 1")
    # mu({v}) = (a_v det + s twice_v) / ((sum a + 2 s) det)
    den = (sum(a) + 2 * s) * det
    masses = [x * det + s * t for x, t in zip(a, twice)]
    edge_masses = [2 * s * t for t in edge_masses]
    common = gcd(den, *masses, *edge_masses)
    if den < 0:
        common = -common
    mu = _Weights(den // common, [x // common for x in masses], [x // common for x in edge_masses])
    if sum(mu.masses) + sum(mu.edge_masses) != mu.den:
        raise SolverFaultError("admissible measure mass != 1")
    return fac, a, diag, mu, y


def _measure(g: MetrizedGraph, pol: _Polarization) -> Measure:
    fac, _, _, mu, _ = _solved_measure(g, pol)
    masses = {v: Fraction(mu.masses[fac.index[v]], mu.den) for v in g.vertices}
    return Measure(masses, _densities(g, mu))


def _densities(g: MetrizedGraph, mu: _Weights) -> Dict[str, Fraction]:
    """The mass density on each edge, mass over length."""
    return {
        e.id: Fraction(t * e.length.denominator, mu.den * e.length.numerator)
        for e, t in zip(g.edges, mu.edge_masses)
    }


def canonical_measure(g: MetrizedGraph) -> Measure:
    """Mass 1 - valence/2 at each vertex, density 1/(l_e + r_e) on each edge
    (0 on bridges, the r_e -> infinity limit).  Total mass is exactly 1."""
    g.require_analytic()
    return _measure(g, (1, {}))


def admissible_measure(g: MetrizedGraph, d: Divisor) -> Measure:
    """(delta_D + 2 * canonical) / (deg D + 2); total mass exactly 1.

    Built from the canonical measure (rather than from the L-polynomial
    form) so it applies to every connected graph, trees included.
    """
    pol = _polarization(g, d)
    g.require_analytic()
    return _measure(g, pol)


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


# A slice of a Green's function with a divisor source, in integers: the
# charges a and the values X with sum_x a_x g(x, v) = X[v] / n for a common
# denominator n, both by band position.
_Slice = Tuple[List[int], List[int]]


def _flux(fac: _Factorization, mu: _Weights) -> Tuple[List[int], int, int]:
    """(flux, lb, curvature) of mu: flux[v] = 2 den weights[v], weights[v]
    being mu({v}) plus half the mass of each edge at v (the constant flux
    at v; they sum to 1); lb the lcm of the length denominators; and
    curvature = den^2 lb sum rho^2 l^3 = sum t^2 a lb / b over the edges,
    of length a / b, mass t / den and mass density rho."""
    flux = [2 * m for m in mu.masses]
    for (i, j), t in zip(fac.ends, mu.edge_masses):
        flux[i] += t
        flux[j] += t
    lb = lcm(*fac.dens)
    curvature = sum([t * t * a * (lb // b) for t, a, b in zip(mu.edge_masses, fac.nums, fac.dens)])
    return flux, lb, curvature


def _green_values(
    fac: _Factorization,
    mu: _Weights,
    charges: Sequence[List[int]],
    diagonal: List[int],
    columns: Optional[List[List[int]]] = None,
) -> Tuple[int, List[List[int]], List[int]]:
    """Vertex values of the slices sum_x a_x g(x, .), one per charge vector
    a, and of g(v, v) from the diagonal Y_vv, as integers over one common
    denominator n.  Returns (n, slices, diagonal values).  The columns
    Y a are solved here unless given.

    The integral of g(x, .) against mu is sum_v weights[v] g(x, v) - c with
    c = sum rho^2 l^3 / 12 over the edges (see _flux).  With W / w the
    weights over their lcm w and Z = L^-1 = (S / det) Y, flux balance
    (L f)_v = [v = x] - weights[v] gives f_x[v] = Z[v][x] - p[v] with
    p = Z W / w, and adding k0 - p[x], k0 = c + W . p / w, makes the
    integral vanish: so g(x, v) = Z[v][x] - p[v] - p[x] + k0, and a slice
    with charges a of total A is (Z a)[v] - A p[v] - a . p + A k0.  Only
    the columns Y a and Y W are solved.  n = lcm(delta w^2, 12 den^2 lb)
    with S / det = sigma / delta in lowest terms and lb the lcm of the
    length denominators covers every term.
    """
    det = fac.det
    flux, lb, cn = _flux(fac, mu)
    w = 2 * mu.den
    common = gcd(w, *flux)
    w //= common
    flux = [x // common for x in flux]
    cd = 12 * mu.den * mu.den * lb  # c = cn / cd
    # det and the entries of Y read share a factor, large when the lengths
    # are long.  The columns are solved divided by f = gcd(det, diagonal)
    # when f divides every one of them, else whole; det and every entry
    # read are then divided by what they still share.
    symmetric = columns is not None
    if symmetric:
        # Y's rows, which stand for its columns as Y is symmetric: Y W is
        # read off them, and their lower triangle holds every entry
        f, yw = 1, [sum(map(mul, row, flux)) for row in columns]
        columns = [row[: i + 1] for i, row in enumerate(columns)]
    else:
        f = gcd(det, *diagonal)
        solved = [_solve(fac.elim, b, f) for b in [flux, *charges]]
        if None in solved:
            f = 1
            solved = [_solve(fac.elim, b) for b in [flux, *charges]]
        yw, *columns = solved
    common = gcd(det // f, *yw, *[x // f for x in diagonal], *[x for c in columns for x in c])
    det //= f * common
    diagonal = [x // (f * common) for x in diagonal]
    if common > 1:
        yw = [x // common for x in yw]
        columns = [[x // common for x in column] for column in columns]
    if symmetric:
        columns = [row + [c[i] for c in columns[i + 1 :]] for i, row in enumerate(columns)]
    common = gcd(fac.scale, det)  # S / det = sigma / delta in lowest terms
    sigma, delta = fac.scale // common, det // common
    n = lcm(delta * w * w, cd)
    base = sigma * (n // (delta * w))  # n p[v] = base yw[v]; n Z = base w Y
    k0 = sigma * (n // (delta * w * w)) * sum(map(mul, flux, yw)) + cn * (n // cd)  # n k0
    # With q[v] = base yw[v], e[v] = q[v] - q[0] and t0 = k0 - 2 q[0], n
    # times a slice's value at v is bw (Y a)[v] - A e[v] + A t0 - a . e for
    # bw = base w, and n g(v, v) is bw Y[v][v] - 2 e[v] + t0.  What n, bw,
    # t0 and e share divides out before any value is built.
    bw, q0 = base * w, base * yw[0]
    t0 = k0 - 2 * q0
    e = [base * p - q0 for p in yw]
    common = gcd(n, bw, t0, *e)
    n, bw, t0 = n // common, bw // common, t0 // common
    e = [x // common for x in e]
    slices = []
    for a, column in zip(charges, columns):
        total = sum(a)
        shift = total * t0 - sum(map(mul, a, e))
        slices.append([bw * x - total * ev + shift for x, ev in zip(column, e)])
    diag = [bw * x - 2 * ev + t0 for x, ev in zip(diagonal, e)]
    return n, slices, diag


def _assert_green_values(
    fac: _Factorization, mu: _Weights, n: int, slices: Iterable[_Slice]
) -> None:
    """Certify slices sum_x a_x g(x, v) = X[v] / n of a Green's function,
    in integers.

    Computed from the values alone.  With A the total charge, the second
    derivative on an edge (u, w) of length l and mass density rho is A rho
    and the slope at u is beta = (X_w - X_u) / (n l) - A rho l / 2.  The
    outgoing slopes at every vertex, the grounded one included, must sum to
    A mu({v}) - a_v, and the integral against mu must vanish: a quadratic
    of second derivative A rho integrates over the edge to
    l (f(u) + f(w)) / 2 - A rho l^3 / 12, so the integral is
    sum_v weights[v] X_v / n - A sum rho^2 l^3 / 12 (see _flux).
    Violations are internal faults; a flux fault names the first failing
    vertex in the graph's order, which sorts by id.  Flux is scaled by k n
    and the integral by 12 q^2 lb n, with k a multiple of the slopes'
    denominators, q = mu.den and lb the lcm of the length denominators, so
    each slice costs O(V + E) integer multiply-adds.
    """
    q = mu.den
    # rho l = t / q and 1 / l = b / a on an edge of length a / b
    k = lcm(2 * q, *fac.nums)
    kn = k * n
    n_masses = [m * (kn // q) for m in mu.masses]
    flux, lb, curvature = _flux(fac, mu)
    weights = [6 * q * lb * x for x in flux]
    edges = []
    for (i, j), t, a, b in zip(fac.ends, mu.edge_masses, fac.nums, fac.dens):
        half = t * (kn // (2 * q))  # k n rho l / 2
        edges.append((i, j, b * (k // a), half, 2 * half))  # k / l
    for charges, x in slices:
        total = sum(charges)
        # k n (flux - A mu({v}) + a_v)
        excess = [kn * c - total * m for c, m in zip(charges, n_masses)]
        scaled = edges if total == 1 else [(*e[:3], total * e[3], total * e[4]) for e in edges]
        for i, j, c, half, twice in scaled:
            beta = (x[j] - x[i]) * c - half  # k n beta
            excess[i] += beta
            excess[j] -= twice + beta
        if any(excess):
            v = min(v for v, off in zip(fac.order, excess) if off)
            raise SolverFaultError(f"flux balance fails at {_shown(v)}")
        if sum(map(mul, weights, x)) != total * n * curvature:
            raise SolverFaultError("integral of g against mu is nonzero")


def green_function(g: MetrizedGraph, d: Divisor, source: str) -> PiecewisePotential:
    """The unique piecewise-quadratic y -> g(source, y); exact rational solve.

    Two columns of Y (e_source and the flux weights) and the envelope on
    the edges (for the measure); the slice is certified before any Fraction
    is built, one per returned value."""
    g.require_vertex(source)
    g.require_analytic()
    fac, _, diagonal, mu, _ = _solved_measure(g, _polarization(g, d))
    a = _unit(fac, source)
    n, (x,), _ = _green_values(fac, mu, [a], diagonal)
    _assert_green_values(fac, mu, n, [(a, x)])
    # on an edge of length a / b with mass t / den, the slope at the start
    # is (X_w - X_u) b / (n a) - t / (2 den)
    q2 = 2 * mu.den
    slopes = {
        e.id: Fraction(q2 * b * (x[j] - x[i]) - t * n * a, q2 * n * a)
        for e, (i, j), t, a, b in zip(g.edges, fac.ends, mu.edge_masses, fac.nums, fac.dens)
    }
    values = {v: Fraction(x[fac.index[v]], n) for v in g.vertices}
    return PiecewisePotential(g, source, values, _densities(g, mu), slopes)


def green_pairing(g: MetrizedGraph, d: Divisor, p: str, q: str) -> Fraction:
    """g(p, q) at vertices; symmetric in (p, q)."""
    g.require_vertex(q)
    return green_function(g, d, p).value_at_vertex(q)


def green_matrix(g: MetrizedGraph, d: Divisor) -> Dict[str, Dict[str, Fraction]]:
    """All vertex pair values g(x, y) from a single elimination and one
    back-substitution for all of Y, whose rows are the columns of the unit
    charges (the grounded vertex's is zero); every slice is certified and
    the matrix is checked to be exactly symmetric."""
    g.require_analytic()
    fac, _, diagonal, mu, y = _solved_measure(g, _polarization(g, d), full=True)
    charges = [_unit(fac, v) for v in fac.order]
    columns = [row + [0] for row in y] + [[0] * len(fac.order)]
    n, rows, _ = _green_values(fac, mu, charges, diagonal, columns)
    _assert_green_values(fac, mu, n, zip(charges, rows))
    if any(row[j] != other[i] for i, row in enumerate(rows) for j, other in enumerate(rows)):
        raise SolverFaultError("Green matrix is not symmetric")
    # one Fraction per pair, the matrix being symmetric
    lower = [[Fraction(x, n) for x in row[: i + 1]] for i, row in enumerate(rows)]
    pos = [fac.index[v] for v in g.vertices]
    return {
        x: {y: lower[max(i, j)][min(i, j)] for y, j in zip(g.vertices, pos)}
        for x, i in zip(g.vertices, pos)
    }


def epsilon_numeric(g: MetrizedGraph, d: Divisor) -> Tuple[Fraction, Fraction]:
    """The admissible constant: epsilon = 2 deg(D) c - g(D, D).

    c is computed as g(D, y) + g(y, y) at every vertex y and checked to be
    identical across vertices (exact equality); a mismatch signals a solver
    bug and raises ConstancyViolationError.  g(D, .) and g(y0, .), y0 the
    first vertex, are certified slices, checked to agree at (D, y0); the
    diagonal is read off the envelope of Y, and constancy certifies it.
    """
    s, _ = pol = _polarization(g, d, "admissible constant")
    g.require_analytic()
    fac, a, diagonal, mu, _ = _solved_measure(g, pol)
    # D = a / s, so s n c = X_D[y] + s X[y][y] for the slice X_D of s g(D, .)
    unit = _unit(fac, g.vertices[0])
    y0 = fac.index[g.vertices[0]]
    n, (x_d, x_0), diag = _green_values(fac, mu, [a, unit], diagonal)
    _assert_green_values(fac, mu, n, [(a, x_d), (unit, x_0)])
    if sum(map(mul, a, x_0)) != x_d[y0]:
        raise SolverFaultError("Green matrix is not symmetric")
    cs = [x + s * y for x, y in zip(x_d, diag)]
    if any(x != cs[0] for x in cs):
        raise ConstancyViolationError("g(D,y) + g(y,y) differs between vertices")
    c = Fraction(cs[0], s * n)
    g_d_d = Fraction(sum(map(mul, a, x_d)), s * s * n)
    return Fraction(2 * sum(a), s) * c - g_d_d, c
