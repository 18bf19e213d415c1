"""Sparse multivariate polynomials in edge-class lengths; L and M.

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
``_cuts`` lists these sets in one pass over a rooted walk of T.

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

The closed form of the admissible constant for a polarization with
coefficient nu(v) - 2 at every non-fixed vertex is

    eps = sum over classes ( (2/3) q + w(e)(deg - w(e))/(deg + 2) ) X_e
          + (2/3) q * M/L,       q = deg/(deg + 2),

with w(e) the smaller pushed coefficient on the simple restriction to the
class.  ``epsilon_closed_form`` needs only the value of M/L, which it takes
from every C(a) in two passes over the rooted walk: O(V) Fraction
operations, with no linear algebra, no enumeration and no limit.  The
symbolic L, M and ``epsilon_rational_fn`` list at most MAX_TREES cuts for
each of L and M, counted as they are listed, and raise EnumerationCapError
past it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .errors import (
    DegreeMinusTwoError,
    EnumerationCapError,
    NotMultilinearError,
    PolarizationShapeError,
    SolverFaultError,
    _shown,
)
from .graph import Divisor
from .hyperelliptic import HyperellipticGraph, _w_weight, divisor_is_invariant, nu_counts
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

    def is_homogeneous(self, degree: int) -> bool:
        """Every term has total degree ``degree`` (true of zero)."""
        return all(sum(e for _, e in mono) == degree for mono in self.terms)

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


def _rooted_quotient(h: HyperellipticGraph) -> Tuple[List[str], Dict[str, Tuple[str, str]]]:
    """A walk of the quotient tree from its first fixed vertex: the visit
    order, every vertex after its parent, and for every other vertex its
    parent and the class joining them."""
    incident = h.quotient._incident()
    root = min(h.fixed_vertices)
    order = [root]
    up: Dict[str, Tuple[str, str]] = {}
    for v in order:
        for e in incident[v]:
            a, b = e.ends
            w = b if a == v else a
            if w not in up and w != root:
                up[w] = (v, e.id)
                order.append(w)
    return order, up


def _cuts(
    order: List[str], up: Dict[str, Tuple[str, str]], roots, budget: int
) -> List[Monomial]:
    """The class sets whose deletion leaves every piece of the quotient tree
    with exactly one vertex of ``roots`` (the walk's root among them).

    Children come before parents.  A subtree's partial cuts are kept in two
    lists, by whether the piece at its top holds a root yet; each class
    joins a child's lists into its parent's.  Every partial cut extends
    through the root to a distinct full one, so no branch dies and no list
    outgrows the result; a join that would pass ``budget`` raises."""
    rooted = {v: [()] if v in roots else [] for v in order}
    loose = {v: [] if v in roots else [()] for v in order}
    for v in reversed(order[1:]):
        p, c = up[v]
        rx, ux, ry, uy = rooted[p], loose[p], rooted.pop(v), loose.pop(v)
        # the class cut under a rooted piece, kept under a loose one: the
        # parent's piece gains no root (keeping it under a rooted one does)
        settled = [b + ((c, 1),) for b in ry] + uy
        if (len(rx) + len(ux)) * len(settled) + len(ux) * len(ry) > budget:
            raise EnumerationCapError(
                f"more than {MAX_TREES} spanning trees to list; "
                "the symbolic L and M are limited to that many"
            )
        rooted[p] = [a + b for a in rx for b in settled] + [a + b for a in ux for b in ry]
        loose[p] = [a + b for a in ux for b in settled]
    return [tuple(sorted(a)) for a in rooted[order[0]]]


def l_polynomial(h: HyperellipticGraph) -> MultiPoly:
    """L: homogeneous multilinear of degree sz(G); multiplicative over
    one-point-sums.  The sum over the cuts of the quotient tree that leave
    one fixed vertex in every piece."""
    cuts = _cuts(*_rooted_quotient(h), h.fixed_vertices, MAX_TREES)
    return MultiPoly._trusted({mono: ONE for mono in cuts})


def m_polynomial(h: HyperellipticGraph) -> MultiPoly:
    """M: homogeneous multilinear of degree sz(G) + 1; M/L is additive over
    one-point-sums and M = 0 on semisimple graphs.  The sum over non-fixed
    orbits a of (val a - 2) times the cuts of the quotient tree that leave
    one vertex of the fixed ones and a in every piece.  The limit covers all
    orbits together."""
    order, up = _rooted_quotient(h)
    budget = MAX_TREES
    terms: Dict[Monomial, Fraction] = {}
    for a in (v for v in h.quotient.vertices if v not in h.fixed_vertices):
        weight = Fraction(h.graph.valence(a) - 2)
        cuts = _cuts(order, up, h.fixed_vertices | {a}, budget)
        budget -= len(cuts)
        for mono in cuts:
            terms[mono] = terms.get(mono, ZERO) + weight
    return MultiPoly._trusted(terms)


def _theorem_shape_check(h: HyperellipticGraph, d: Divisor) -> Fraction:
    for v in d.support():
        h.graph.require_vertex(v)
    if not divisor_is_invariant(d, h.involution):
        raise PolarizationShapeError("polarization must be iota-invariant")
    for v in sorted(h.nonfixed_vertices):
        _, _, nu = nu_counts(h, v)
        if d.coefficient(v) != nu - 2:
            raise PolarizationShapeError(
                f"coefficient at non-fixed vertex {_shown(v)} must be nu - 2 = {nu - 2}"
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
        w = _w_weight(h, d, cname)
        coeff = q + w * (deg - w) / (deg + 2)
        linear = linear + MultiPoly.monomial([cname], coeff)
    return RationalFn(linear * lpoly + MultiPoly.constant(q) * mpoly, lpoly)


def _conductances(h: HyperellipticGraph, lengths: Mapping[str, Fraction]) -> Dict[str, Fraction]:
    """C(a) for every non-fixed quotient vertex a, with conductance 1/X on a
    class of length X.  From the leaves up, each vertex sums its branches
    below; from the (fixed) root down, each adds the branch above it: the
    parent's C less its own branch, in series with the joining class."""
    order, up = _rooted_quotient(h)
    fixed = h.fixed_vertices
    down = dict.fromkeys(order, ZERO)
    branch: Dict[str, Fraction] = {}
    for v in reversed(order[1:]):
        p, c = up[v]
        x = lengths[c]
        below = down[v]
        branch[v] = 1 / x if v in fixed else below / (1 + x * below)
        down[p] += branch[v]
    total: Dict[str, Fraction] = {}
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


def epsilon_closed_form(
    h: HyperellipticGraph,
    d: Divisor,
    lengths: Optional[Mapping[str, object]] = None,
) -> Fraction:
    """Evaluate the closed form at given class lengths (default: the lengths
    carried by the graph).  Exact; equal to the potential-theory value.

    M/L is the sum over non-fixed quotient vertices a of (val a - 2)/C(a),
    with C(a) the conductance from a to the grounded fixed vertices of the
    quotient tree (see the module docstring): no linear algebra, no
    enumeration and no call into ``potential``.
    """
    if lengths is None:
        assignment = {c: h.class_length(c) for c in h.classes()}
    else:
        assignment = {c: as_fraction(lengths[c]) for c in h.classes()}
    for cname, value in assignment.items():
        if value <= 0:
            raise PolarizationShapeError(f"length of class {_shown(cname)} must be positive")
    deg = _theorem_shape_check(h, d)
    q = Fraction(2, 3) * deg / (deg + 2)
    ratio = ZERO
    for a, conductance in _conductances(h, assignment).items():
        if conductance == 0:
            raise SolverFaultError(
                f"the conductance from {_shown(a)} to the fixed vertices vanished"
            )
        ratio += (h.graph.valence(a) - 2) / conductance
    total = q * ratio
    for cname, x in assignment.items():
        w = _w_weight(h, d, cname)
        total += (q + w * (deg - w) / (deg + 2)) * x
    return total
