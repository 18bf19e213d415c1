"""Sparse multivariate polynomials in edge-class lengths; L and M.

For a hyperelliptic graph of size n, two homogeneous multilinear polynomials
in the edge-class indeterminates govern the admissible constant:

* L (degree n): the sum of the squarefree monomials over the n-subsets of
  classes whose restriction is a semisimple hyperelliptic graph of size n.
* M (degree n+1): over (n+1)-subsets whose restriction has a unique
  non-fixed vertex class, weighted by (valence - 2) of that vertex; zero on
  semisimple graphs.

The library does not enumerate these subsets.  Fix one edge e-_c in every
class and let E- be the set of them: the monomials of L are exactly the
classes outside a spanning tree of G/E- (the dual Kirchhoff polynomial of
G/E- in the class variables), and M sums the same polynomial of
G/(E- + v~iota v), weighted by val v - 2, over the non-fixed pairs.  For L
this follows from 2^g L = Psi_G; for M it is observed (the tests hold it
against the subset definition and the elementary-symmetric construction,
kept as oracles).  The trees are listed directly, so the cost follows the
number of terms, not the number of class subsets.

The closed form of the admissible constant for a polarization with
coefficient nu(v) - 2 at every non-fixed vertex is

    eps = sum over classes ( (2/3) q + w(e)(deg - w(e))/(deg + 2) ) X_e
          + (2/3) q * M/L,       q = deg/(deg + 2),

with w(e) the smaller pushed coefficient on the simple restriction to the
class.  ``epsilon_closed_form`` needs only the value of M/L, which it takes
from Kirchhoff (spanning-tree) determinants, one per non-fixed vertex pair,
with no enumeration and no limit.  The symbolic L, M and
``epsilon_rational_fn`` list at most MAX_TREES spanning trees for each of L
and M, counted as they are listed, and raise EnumerationCapError past it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .errors import (
    DegreeMinusTwoError,
    EnumerationCapError,
    NotMultilinearError,
    PolarizationShapeError,
    SolverFaultError,
)
from .graph import Divisor
from .hyperelliptic import HyperellipticGraph, divisor_is_invariant, nu_counts, w_weight
from .rationals import as_fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# The trees one l_polynomial or m_polynomial call may list: each becomes a
# stored monomial, so this bounds time and memory by the output.  ladder11's
# M (221016 trees) fits; ladder12's M (632916) does not.
MAX_TREES = 1 << 18

Monomial = Tuple[Tuple[str, int], ...]


def _monomial(vars_with_exp: Iterable[Tuple[str, int]]) -> Monomial:
    acc: Dict[str, int] = {}
    for var, exp in vars_with_exp:
        if exp:
            acc[var] = acc.get(var, 0) + exp
    return tuple(sorted(acc.items()))


def _grlex_key(mono: Monomial):
    degree = sum(exp for _, exp in mono)
    expanded = tuple(var for var, exp in mono for _ in range(exp))
    return (degree, expanded)


class MultiPoly:
    """Sparse polynomial over exact rationals; zero coefficients are never
    stored and terms are ordered graded-lexicographically."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        clean: Dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            coeff = as_fraction(coeff)
            if coeff != 0:
                clean[_monomial(mono)] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, terms: Mapping[Monomial, Fraction]) -> "MultiPoly":
        """From canonical monomials and Fraction coefficients, as built by
        the methods below: only zero coefficients are dropped."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", {m: c for m, c in terms.items() if c})
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @staticmethod
    def constant(value) -> "MultiPoly":
        return MultiPoly({(): value})

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return MultiPoly({((name, 1),): 1})

    @staticmethod
    def monomial(variables: Iterable[str], coeff=1) -> "MultiPoly":
        return MultiPoly({tuple((v, 1) for v in variables): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> Tuple[str, ...]:
        return tuple(sorted({v for mono in self.terms for v, _ in mono}))

    def total_degree(self) -> int:
        return max((sum(e for _, e in mono) for mono in self.terms), default=0)

    def is_homogeneous(self, degree: Optional[int] = None) -> bool:
        degrees = {sum(e for _, e in mono) for mono in self.terms}
        if not degrees:
            return True
        if len(degrees) != 1:
            return False
        return degree is None or degrees == {degree}

    def is_multilinear(self) -> bool:
        return all(e == 1 for mono in self.terms for _, e in mono)

    def __add__(self, other):
        other = other if isinstance(other, MultiPoly) else MultiPoly.constant(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, ZERO) + coeff
        return MultiPoly._trusted(terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted({mono: -coeff for mono, coeff in self.terms.items()})

    def __sub__(self, other):
        other = other if isinstance(other, MultiPoly) else MultiPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            factor = as_fraction(other)
            return MultiPoly._trusted({mono: coeff * factor for mono, coeff in self.terms.items()})
        terms: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _monomial(m1 + m2)
                terms[mono] = terms.get(mono, ZERO) + c1 * c2
        return MultiPoly._trusted(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.constant(other)
        return NotImplemented

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
            parts.append(f"{coeff}" + (f"*{factors}" if factors else ""))
        return "MultiPoly(" + " + ".join(parts) + ")"

    def sorted_terms(self) -> List[Tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]))

    def evaluate(self, assignment: Mapping[str, object]) -> Fraction:
        values = {v: as_fraction(x) for v, x in assignment.items()}
        total = ZERO
        for mono, coeff in self.terms.items():
            product = coeff
            for var, exp in mono:
                if var not in values:
                    raise KeyError(f"no value for variable {var!r}")
                product *= values[var] ** exp
            total += product
        return total

    def substitute_zero(self, variable: str) -> "MultiPoly":
        """Set one variable to zero: drop every monomial containing it."""
        return MultiPoly._trusted(
            {mono: c for mono, c in self.terms.items() if all(v != variable for v, _ in mono)}
        )

    def divide_by_variable(self, variable: str) -> "MultiPoly":
        """Exact division by one variable; every monomial must contain it."""
        terms = {}
        for mono, coeff in self.terms.items():
            exps = dict(mono)
            if variable not in exps:
                raise ValueError(f"not divisible by {variable!r}")
            exps[variable] -= 1
            terms[tuple(sorted((v, e) for v, e in exps.items() if e))] = coeff
        return MultiPoly._trusted(terms)

    def coefficient_of(self, variable: str) -> "MultiPoly":
        """P with self = X*P + (terms free of X); requires multilinearity in X."""
        terms = {}
        for mono, coeff in self.terms.items():
            exps = dict(mono)
            if variable not in exps:
                continue
            if exps[variable] > 1:
                raise NotMultilinearError(f"not multilinear in {variable!r}")
            rest = tuple((v, e) for v, e in mono if v != variable)
            terms[rest] = coeff
        return MultiPoly._trusted(terms)


class RationalFn:
    """Quotient of two polynomials; equality is decided by the
    cross-multiplied polynomial identity, never by sampling."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: MultiPoly, denominator: MultiPoly):
        if denominator.is_zero():
            raise ZeroDivisionError("identically-zero denominator")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    def evaluate(self, assignment: Mapping[str, object]) -> Fraction:
        den = self.denominator.evaluate(assignment)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at this point")
        return self.numerator.evaluate(assignment) / den

    def substitute_zero(self, variable: str) -> "RationalFn":
        """Specialize one variable to zero as a limit of functions: common
        factors of the variable are cancelled first (contracting a simple
        component divides both parts of epsilon by its class)."""
        num, den = self.numerator, self.denominator
        while den.substitute_zero(variable).is_zero():
            try:
                num = num.divide_by_variable(variable)
            except ValueError:
                raise ZeroDivisionError(
                    f"the function has a pole at {variable} = 0"
                ) from None
            den = den.divide_by_variable(variable)
        return RationalFn(num.substitute_zero(variable), den.substitute_zero(variable))

    def __add__(self, other):
        if not isinstance(other, RationalFn):
            other = RationalFn(MultiPoly.constant(other), MultiPoly.constant(1))
        return RationalFn(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __repr__(self):
        return f"RationalFn({self.numerator!r} / {self.denominator!r})"


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


def _cotrees(h: HyperellipticGraph, budget: int, merge: Tuple[str, ...] = ()) -> List[Monomial]:
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
    (bridge pruning), so every branch ends in a tree, and each tree costs at
    most one connectivity check per class.  Listing one tree past
    ``budget`` raises EnumerationCapError.
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
        edges.append((part[index[a]], part[index[b]], ((c, 1),)))
    out: List[Monomial] = []

    def grow(i: int, label: List[int], parts: int, outside: Monomial) -> None:
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
        if len(out) == budget:
            raise EnumerationCapError(
                f"more than {MAX_TREES} spanning trees to list; "
                "the symbolic L and M are limited to that many"
            )
        out.append(outside)

    grow(0, list(range(len(roots))), len(roots), ())
    return out


def l_polynomial(h: HyperellipticGraph) -> MultiPoly:
    """L: homogeneous multilinear of degree sz(G); multiplicative over
    one-point-sums.  The sum of the co-tree monomials of G/E-."""
    return MultiPoly._trusted({mono: ONE for mono in _cotrees(h, MAX_TREES)})


def m_polynomial(h: HyperellipticGraph) -> MultiPoly:
    """M: homogeneous multilinear of degree sz(G) + 1; M/L is additive over
    one-point-sums and M = 0 on semisimple graphs.  The sum over non-fixed
    pairs {v, iota v} of (val v - 2) times the co-tree monomials of
    G/(E- + v~iota v).  The tree limit covers all pairs together."""
    budget = MAX_TREES
    terms: Dict[Monomial, Fraction] = {}
    for v in sorted(h.nonfixed_vertices):
        partner = h.involution.vertex(v)
        if v < partner:
            weight = Fraction(h.graph.valence(v) - 2)
            trees = _cotrees(h, budget, (v, partner))
            budget -= len(trees)
            for mono in trees:
                terms[mono] = terms.get(mono, ZERO) + weight
    return MultiPoly._trusted(terms)


def _theorem_shape_check(h: HyperellipticGraph, d: Divisor) -> Fraction:
    if not divisor_is_invariant(d, h.involution):
        raise PolarizationShapeError("polarization must be iota-invariant")
    for v in sorted(h.nonfixed_vertices):
        _, _, nu = nu_counts(h, v)
        if d.coefficient(v) != nu - 2:
            raise PolarizationShapeError(
                f"coefficient at non-fixed vertex {v!r} must be nu - 2 = {nu - 2}"
            )
    deg = d.degree
    if deg == -2:
        raise DegreeMinusTwoError("closed form undefined for deg(D) = -2")
    return deg


def epsilon_rational_fn(h: HyperellipticGraph, d: Divisor) -> RationalFn:
    """The admissible constant as a rational function of the class lengths."""
    deg = _theorem_shape_check(h, d)
    q = Fraction(2, 3) * deg / (deg + 2)
    lpoly = l_polynomial(h)
    mpoly = m_polynomial(h)
    if lpoly.is_zero():
        raise SolverFaultError("L vanished on a valid hyperelliptic graph")
    linear = MultiPoly()
    for cname in h.classes():
        w = w_weight(h, d, cname)
        coeff = q + w * (deg - w) / (deg + 2)
        linear = linear + MultiPoly.monomial([cname], coeff)
    return RationalFn(linear * lpoly + MultiPoly.constant(q) * mpoly, lpoly)


def _kirchhoff_determinant(
    h: HyperellipticGraph, lengths: Mapping[str, Fraction], merge: Tuple[str, ...] = ()
) -> Fraction:
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
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return Fraction(prev, scale**n)


def epsilon_closed_form(
    h: HyperellipticGraph,
    d: Divisor,
    lengths: Optional[Mapping[str, object]] = None,
) -> Fraction:
    """Evaluate the closed form at given class lengths (default: the lengths
    carried by the graph).  Exact; equal to the potential-theory value.

    By the matrix-tree theorem, L = 2^-g Psi_G and M = 2^-(g+1) times the sum
    over non-fixed pairs {v, iota v} of (val v - 2) Psi_{G/(v~iota v)}, with
    Psi the dual Kirchhoff polynomial.  The product of the lengths cancels,
    so M/L = (1/2) sum (val v - 2) kappa(G/(v~iota v)) / kappa(G): one
    determinant per pair and no subset enumeration.
    """
    if lengths is None:
        assignment = {c: h.class_length(c) for c in h.classes()}
    else:
        assignment = {c: as_fraction(lengths[c]) for c in h.classes()}
    for cname, value in assignment.items():
        if value <= 0:
            raise PolarizationShapeError(f"length of class {cname!r} must be positive")
    deg = _theorem_shape_check(h, d)
    q = Fraction(2, 3) * deg / (deg + 2)
    kappa = _kirchhoff_determinant(h, assignment)
    if kappa == 0:
        raise SolverFaultError("Kirchhoff determinant vanished on a valid hyperelliptic graph")
    pairs = ZERO
    for v in sorted(h.nonfixed_vertices):
        partner = h.involution.vertex(v)
        if v < partner:
            pairs += (h.graph.valence(v) - 2) * _kirchhoff_determinant(h, assignment, (v, partner))
    total = q * pairs / (2 * kappa)
    for cname, x in assignment.items():
        w = w_weight(h, d, cname)
        total += (q + w * (deg - w) / (deg + 2)) * x
    return total
