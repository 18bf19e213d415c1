"""Sparse multivariate polynomials in edge-class lengths; L and M.

A polynomial maps each monomial to a nonzero Fraction.  A monomial is the
sorted tuple of its variable names, a power written by repetition: x^2 y is
("x", "x", "y"), the "monomial" list of a serialized term.  A product of two
monomials is their concatenation, sorted.

For a hyperelliptic graph of size n, two homogeneous multilinear polynomials
in the edge-class indeterminates govern the admissible constant:

* L (degree n): the sum of the squarefree monomials over the n-subsets of
  classes whose restriction is a semisimple hyperelliptic graph of size n.
* M (degree n+1): over (n+1)-subsets whose restriction has a unique
  non-fixed vertex class, weighted by (valence - 2) of that vertex; zero on
  semisimple graphs.

Both live on the quotient tree T = G/<iota> (orbits and classes), rooted at
its F = n + 1 fixed vertices; val a, the valence in G over an orbit a, is
its degree in T.  Restricting to a class set S contracts the other classes:
over a piece of T - S holding a fixed vertex lies one fixed vertex of G^S,
over a piece holding none (where G is two sheets swapped by iota) a
non-fixed pair, and G^S has no loop.  So L sums X^S over the n-sets S that
leave one fixed vertex in every piece of T - S.  For M one piece K holds no
fixed vertex; its pair's valence is the number dK of classes of S at K, and
on the tree K, dK - 2 is the sum of val a - 2 over a in K.  So M is the sum
over the non-fixed a of val a - 2 times that of X^S over the (n+1)-sets S
with roots F + {a}: one vertex of F + {a} in every piece of T - S.

One recurrence, ``_forests``, sums over such sets in one leaf-to-root pass
over the ``graph._walk`` of T from its smallest fixed vertex.  Every vertex
carries (B, A), the sets below it whose top piece holds no root yet (B) or
one (A).  A child over class c joins with U = B + X_c A (c kept under a
loose piece, or cut under a rooted one) and G = A (c kept under a rooted
piece), and the parent becomes (B U, A U + B G).  A root starts at (0, 1),
any other vertex at (1, 0), and the sum is the walk root's A.  It has three
instances: L listed as monomials, M listed the same way once per non-fixed
orbit a with a a root too, and the values L(x) and M(x) below.

Give class c the conductance 1/X_c; let D be T's Laplacian grounded at the
fixed vertices, D_aa that without a's row and column, C(a) = det D/det D_aa
the conductance from a to the fixed vertices, kappa the spanning-tree sum.

* Rooted-forest matrix-tree theorem (Chaiken 1982): the spanning forests
  of T with one fixed vertex per tree are T minus the n-sets above, so
  L = prod_c X_c * det D, and the sum for a is prod_c X_c * det D_aa.
* kappa(G) = 2^(F-1) * prod_c X_c^-1 * det D.  Grounding a fixed vertex
  keeps iota, so G's grounded Laplacian splits over iota-antisymmetric
  functions, which vanish at the fixed vertices and are one function on
  the sheets over T (in orthonormal coordinates this part is D), and
  symmetric ones (twice T's grounded Laplacian, rescaled by sqrt 2 on the N
  non-fixed orbits: 2^(F+N-1)/2^N times T's weight prod_c X_c^-1).  With
  Psi_G = prod_e x_e * kappa(G) and g = F - 1 this is 2^g L = Psi_G.
* The potential of a unit current from v to iota v is antisymmetric, so it
  vanishes at the fixed vertices and is, on v's sheet, that of a unit
  current from a to them in T: R(v, iota v) = 2/C(a) = 2 det D_aa/det D.
  Hence M/L = sum over non-fixed a of (val a - 2)/C(a), and, as
  kappa(G/(v~iota v)) = R(v, iota v) kappa(G), 2^(g+1) M is the sum over
  non-fixed pairs of (val v - 2) Psi_{G/(v~iota v)}.

At a non-fixed vertex v, nu(v) is the valence (``nu_counts``), so the
shape check reads val a - 2, the weight of M, once per non-fixed orbit a.
The closed form of the admissible constant for a polarization with
coefficient nu(v) - 2 at every non-fixed vertex is

    eps = sum over classes ( (2/3) q + w(e)(deg - w(e))/(deg + 2) ) X_e
          + (2/3) q * M/L,       q = deg/(deg + 2),

with w(e) the smaller pushed coefficient on the simple restriction to the
class.  ``epsilon_closed_form`` needs only the value of M/L.  With B the
lcm of the class-length denominators and x_c = X_c B, L(x) and M(x) are
integers, and M(x)/L(x) = B M/L as L and M are homogeneous of degrees n
and n + 1.  One ``_forests`` pass over dual integers r + d t (t^2 = 0)
gives both: a fixed vertex starts at (0, 1) and a non-fixed orbit a at
(1, (val a - 2) t).  The pass is multilinear in every vertex's start, so
the t part of the result is M(x): O(V) integer operations, no gcd, no
linear algebra, no enumeration and no limit.  The class sum is one integer
sum over one denominator: with s the lcm of the polarization's coefficient
denominators, D = deg s and W = w(e) s are integers and

    (2/3) q + w(deg - w)/(deg + 2) = (2Ds + 3W(D - W)) / (3s(D + 2s)).

The symbolic L, M and ``epsilon_rational_fn`` list at most MAX_TREES cuts for
each of L and M, counted as they are listed (for M over all orbits), and
raise EnumerationCapError before a list that would pass it is built.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Mapping, Tuple

from .errors import (
    DegreeMinusTwoError,
    EnumerationCapError,
    PolarizationShapeError,
    SolverFaultError,
    _shown,
)
from .graph import Divisor, _Frozen, _walk
from .hyperelliptic import HyperellipticGraph, _w_weight
from .rationals import as_fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# The trees one l_polynomial or m_polynomial call may list: each becomes a
# stored monomial, so this bounds time and memory by the output.  ladder11's
# M (221016 trees) fits; ladder12's M (632916) does not.
MAX_TREES = 1 << 18

_L_VANISHED = "L vanished on a valid hyperelliptic graph"

Monomial = Tuple[str, ...]


def _grlex_key(mono: Monomial):
    return (len(mono), mono)


class MultiPoly(_Frozen):
    """Sparse polynomial over exact rationals; zero coefficients are never
    stored and terms are ordered graded-lexicographically."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        # keys naming one monomial in different orders add up
        clean: Dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            if not all(isinstance(var, str) for var in mono):
                raise TypeError("a monomial is a tuple of variable names (str)")
            mono = tuple(sorted(mono))
            clean[mono] = clean.get(mono, ZERO) + as_fraction(coeff)
        object.__setattr__(self, "terms", {m: c for m, c in clean.items() if c})

    @classmethod
    def _trusted(cls, terms: Mapping[Monomial, Fraction]) -> "MultiPoly":
        """From canonical monomials and Fraction coefficients, as built by
        the methods below: only zero coefficients are dropped."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", {m: c for m, c in terms.items() if c})
        return poly

    @staticmethod
    def constant(value) -> "MultiPoly":
        return MultiPoly({(): value})

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return MultiPoly({(name,): 1})

    @staticmethod
    def monomial(variables: Iterable[str], coeff=1) -> "MultiPoly":
        return MultiPoly({tuple(variables): coeff})

    def is_zero(self) -> bool:
        return not self.terms

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
                mono = tuple(sorted(m1 + m2))
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
            factors = "*".join(v if n == 1 else f"{v}^{n}" for v, n in Counter(mono).items())
            parts.append(f"{coeff}" + (f"*{factors}" if factors else ""))
        return "MultiPoly(" + " + ".join(parts) + ")"

    def sorted_terms(self) -> List[Tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]))

    def evaluate(self, assignment: Mapping[str, object]) -> Fraction:
        values = {v: as_fraction(x) for v, x in assignment.items()}
        total = ZERO
        for mono, coeff in self.terms.items():
            product = coeff
            for var in mono:
                if var not in values:
                    raise KeyError(f"no value for variable {_shown(var)}")
                product *= values[var]
            total += product
        return total

    def substitute_zero(self, variable: str) -> "MultiPoly":
        """Set one variable to zero: drop every monomial containing it."""
        return MultiPoly._trusted(
            {mono: c for mono, c in self.terms.items() if variable not in mono}
        )


class RationalFn(_Frozen):
    """Quotient of two polynomials; equality is decided by the
    cross-multiplied polynomial identity, never by sampling."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: MultiPoly, denominator: MultiPoly):
        if denominator.is_zero():
            raise ZeroDivisionError("identically-zero denominator")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def evaluate(self, assignment: Mapping[str, object]) -> Fraction:
        den = self.denominator.evaluate(assignment)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at this point")
        return self.numerator.evaluate(assignment) / den

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __repr__(self):
        return f"RationalFn({self.numerator!r} / {self.denominator!r})"


def _forests(h: HyperellipticGraph, start, cut, add, mul):
    """The sum over the forests of the quotient tree T, in the arithmetic of
    ``cut``, ``add`` and ``mul``: one leaf-to-root pass over the walk of T
    from its smallest fixed vertex.

    Every vertex carries (B, A) = ``start(v)``, the weights of the forests
    below it whose top piece has no root yet (B) or has one (A).  A child
    over class c joins with U = B + cut(A, c), the class kept under a loose
    piece or cut under a rooted one, and G = A, the class kept under a
    rooted piece; the parent becomes (B U, A U + B G).  Returns the root's
    A.  A root starts at (0, 1) and keeps only A U."""
    order, up = _walk(h.quotient, min(h.fixed_vertices))
    state = {v: start(v) for v in order}
    for v in reversed(order[1:]):
        p, c = up[v]
        b, a = state.pop(v)
        u = add(cut(a, c), b)
        pb, pa = state[p]
        state[p] = mul(pb, u), add(mul(pa, u), mul(pb, a))
    return state[order[0]][1]


def _listed(h: HyperellipticGraph, roots, budget: int) -> List[Monomial]:
    """The class sets whose deletion leaves every piece of the quotient tree
    with exactly one vertex of ``roots`` (the walk's root among them), as
    ``_forests`` over lists of monomials: a sum concatenates, a product
    joins every pair and a cut appends the class.  Every partial cut
    extends through the root to a distinct full one, so no list outgrows
    the result; one that would pass ``budget`` raises before it is built."""

    def fits(n: int) -> None:
        if n > budget:
            raise EnumerationCapError(
                f"more than {MAX_TREES} spanning trees to list; "
                "the symbolic L and M are limited to that many"
            )

    def add(x, y):
        fits(len(x) + len(y))
        return x + y

    def mul(x, y):
        fits(len(x) * len(y))
        return [a + b for a in x for b in y]

    cuts = _forests(
        h,
        lambda v: ([], [()]) if v in roots else ([()], []),
        lambda a, c: [m + (c,) for m in a],
        add,
        mul,
    )
    return [tuple(sorted(m)) for m in cuts]


def l_polynomial(h: HyperellipticGraph) -> MultiPoly:
    """L: homogeneous multilinear of degree sz(G); multiplicative over
    one-point-sums.  The sum over the cuts of the quotient tree that leave
    one fixed vertex in every piece."""
    return MultiPoly._trusted({mono: ONE for mono in _listed(h, h.fixed_vertices, MAX_TREES)})


def m_polynomial(h: HyperellipticGraph) -> MultiPoly:
    """M: homogeneous multilinear of degree sz(G) + 1; M/L is additive over
    one-point-sums and M = 0 on semisimple graphs.  The sum over non-fixed
    orbits a of (val a - 2) times the cuts of the quotient tree that leave
    one vertex of the fixed ones and a in every piece.  The limit covers all
    orbits together."""
    budget = MAX_TREES
    terms: Dict[Monomial, int] = {}
    for a in (v for v in h.quotient.vertices if v not in h.fixed_vertices):
        weight = h.graph.valence(a) - 2
        cuts = _listed(h, h.fixed_vertices | {a}, budget)
        budget -= len(cuts)
        for mono in cuts:
            terms[mono] = terms.get(mono, 0) + weight
    values = {x: Fraction(x) for x in set(terms.values())}
    return MultiPoly._trusted({mono: values[x] for mono, x in terms.items()})


def _theorem_shape_check(h: HyperellipticGraph, d: Divisor) -> Tuple[int, int]:
    """Check that d has the closed form's shape, on d scaled once to
    integers: with s the lcm of its coefficient denominators, a_v = c_v s.
    The support's vertices exist, d is iota-invariant, its coefficient at
    every non-fixed vertex is nu - 2, and deg d != -2.  nu is the valence
    (see ``nu_counts``), which iota preserves, so on an invariant d one
    check per non-fixed orbit a, against val a - 2, the weight of M, covers
    both lifts; a is the smaller lift, so the first failure named is the
    smallest failing vertex.  Returns (s, D), D = deg(d) s."""
    s, a = _common_scale(d.coefficients)
    for v in d.support():
        h.graph.require_vertex(v)
    image = h.involution.vertex
    if any(a.get(image(v), 0) != x for v, x in a.items()):
        raise PolarizationShapeError("polarization must be iota-invariant")
    for v in sorted(h.nonfixed_vertices.intersection(h.quotient.vertices)):
        weight = h.graph.valence(v) - 2
        if a.get(v, 0) != weight * s:
            raise PolarizationShapeError(
                f"coefficient at non-fixed vertex {_shown(v)} must be nu - 2 = {weight}"
            )
    big_d = sum(a.values())
    if big_d == -2 * s:
        raise DegreeMinusTwoError("closed form undefined for deg(D) = -2")
    return s, big_d


def _class_coefficients(
    h: HyperellipticGraph, d: Divisor, s: int, big_d: int
) -> Tuple[int, Dict[str, int], int]:
    """The closed form's coefficients as integer numerators over one
    denominator: (2/3) q of M/L and (2/3) q + w(deg - w)/(deg + 2) of every
    class's length, q = deg/(deg + 2).  With s the lcm of d's coefficient
    denominators, D = deg s (both from _theorem_shape_check) and W = w s
    are integers (w sums coefficients of d), and the two are 2Ds and
    2Ds + 3W(D - W) over 3s(D + 2s).  Returns (2Ds, {class: numerator},
    3s(D + 2s))."""
    q_num = 2 * big_d * s
    numerators: Dict[str, int] = {}
    for cname in h.classes():
        w = _w_weight(h, d, cname)
        big_w = w.numerator * (s // w.denominator)
        numerators[cname] = q_num + 3 * big_w * (big_d - big_w)
    return q_num, numerators, 3 * s * (big_d + 2 * s)


def epsilon_rational_fn(h: HyperellipticGraph, d: Divisor) -> RationalFn:
    """The admissible constant as a rational function of the class lengths.

    The numerator is sum_c n_c X_c L + q M over the one denominator of
    _class_coefficients, added up in integers: L is multilinear with every
    coefficient 1, so X_c times a monomial of L inserts c into it (a square
    where c is already there), and M's coefficients are integers.  One
    Fraction is built per distinct coefficient."""
    scaling = _theorem_shape_check(h, d)
    lpoly = l_polynomial(h)
    mpoly = m_polynomial(h)
    if lpoly.is_zero():
        raise SolverFaultError(_L_VANISHED)
    q_num, numerators, den = _class_coefficients(h, d, *scaling)
    terms: Dict[Monomial, int] = {}
    for c, n in numerators.items():
        if n:
            for mono in lpoly.terms:
                i = bisect_left(mono, c)
                mono = mono[:i] + (c,) + mono[i:]
                terms[mono] = terms.get(mono, 0) + n
    terms = {mono: x for mono, x in terms.items() if x}
    for mono, coeff in mpoly.terms.items():
        terms[mono] = terms.get(mono, 0) + q_num * coeff.numerator
    values = {x: Fraction(x, den) for x in set(terms.values())}
    return RationalFn(MultiPoly._trusted({m: values[x] for m, x in terms.items()}), lpoly)


def _common_scale(values: Mapping[str, Fraction]) -> Tuple[int, Dict[str, int]]:
    """B, the lcm of the values' denominators, and every value times B:
    the class lengths of the closed form, or a polarization's
    coefficients."""
    # a list: lcm(*generator) builds its argument tuple by resizing, which
    # strands tuples on the interpreter's free lists (about 2 MB over a
    # closed-form benchmark run)
    scale = lcm(*[x.denominator for x in values.values()])
    return scale, {k: x.numerator * (scale // x.denominator) for k, x in values.items()}


def _l_m_at(h: HyperellipticGraph, x: Mapping[str, int]) -> Tuple[int, int]:
    """(L(x), M(x)) at the integer class lengths x, from one ``_forests``
    pass over dual integers r + d t (t^2 = 0), a cut multiplying by x_c.
    A fixed vertex starts at (0, 1) and a non-fixed orbit a at
    (1, (val a - 2) t): the pass is multilinear in every start, so the
    t part sums, over a, val a - 2 times the forests with a a root too."""

    def add(p, q):
        return p[0] + q[0], p[1] + q[1]

    def mul(p, q):
        return p[0] * q[0], p[0] * q[1] + p[1] * q[0]

    def start(v):
        if v in h.fixed_vertices:
            return (0, 0), (1, 0)
        return (1, 0), (0, h.graph.valence(v) - 2)

    return _forests(h, start, lambda p, c: (x[c] * p[0], x[c] * p[1]), add, mul)


def epsilon_closed_form(h: HyperellipticGraph, d: Divisor) -> Fraction:
    """Evaluate the closed form at the class lengths h carries (other lengths
    go through ``with_lengths``).  Exact; equal to the potential-theory value.

    With B the lcm of the length denominators and x = X B the integer
    lengths, L(x) and M(x) are integers from one ``_forests`` pass
    (``_l_m_at``), and M(x)/L(x) = B M/L: no linear algebra, no enumeration
    and no call into ``potential``.  The class sum runs in integers too:
    the numerators of ``_class_coefficients`` against x.  The value is the
    one Fraction (q_num M(x) + sum_c n_c x_c L(x)) / (den B L(x)).
    """
    s, big_d = _theorem_shape_check(h, d)
    scale, x = _common_scale(h.lengths())
    l_value, m_value = _l_m_at(h, x)
    if not l_value:
        raise SolverFaultError(_L_VANISHED)
    q_num, numerators, den = _class_coefficients(h, d, s, big_d)
    classes = sum(c * x[cname] for cname, c in numerators.items())
    return Fraction(q_num * m_value + classes * l_value, den * scale * l_value)
