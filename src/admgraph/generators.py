"""Seeded construction of hyperelliptic graphs and polarizations.

Every hyperelliptic graph is a double cover of its quotient tree, so the
generator works the other way around: draw a labeled tree (vertices marked
fixed or non-fixed, each non-fixed vertex of tree-degree >= 3), lift each
vertex to one fixed vertex or a swapped pair, and lift each edge to a
swapped pair of edges.  An edge between two non-fixed vertices has two
non-isomorphic lifts (straight or crossed); the choice is a seeded coin
flip so both shapes appear in the corpus.  Outputs always pass validation.

Also provides the named graphs used throughout: the simple graph, the
elementary graphs, and the two-rail ladder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .errors import InvalidGraphError, UnknownIdError, _shown
from .graph import Divisor, MetrizedGraph
from .hyperelliptic import (
    HyperellipticGraph,
    Involution,
    graph_size,
    validate_hyperelliptic,
)
from .rationals import _decimal, as_fraction

_LENGTH_CHOICES = (
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(2),
    Fraction(3, 2),
    Fraction(3),
    Fraction(5, 2),
)

_COEFF_CHOICES = (Fraction(-1), Fraction(0), Fraction(1), Fraction(2), Fraction(3))

# random_cover_spec's default bound on the quotient tree's vertices
_MAX_QUOTIENT_VERTICES = 7


@dataclass(frozen=True)
class CoverSpec:
    """Quotient tree with fixed/non-fixed vertex labels and edge lengths.

    Non-fixed vertices need tree-degree >= 3 (their cover valence equals
    it); the quotient being a tree makes axiom (4) hold by construction.
    """

    vertices: Tuple[Tuple[str, bool], ...]  # (id, is_fixed)
    edges: Tuple[Tuple[str, str, str, Fraction], ...]  # (id, u, v, length)
    seed: int = 0

    def validate(self) -> None:
        ids = [v for v, _ in self.vertices]
        fixed = dict(self.vertices)
        if len(set(ids)) != len(ids):
            raise InvalidGraphError("duplicate quotient vertex ids")
        if len(self.edges) != len(ids) - 1:
            raise InvalidGraphError("the quotient must be a tree")
        degree = dict.fromkeys(ids, 0)
        for _, u, w, _ in self.edges:
            if u not in fixed or w not in fixed:
                raise InvalidGraphError("quotient edge references unknown vertex")
            if u == w:
                raise InvalidGraphError("the quotient must have no loops")
            degree[u] += 1
            degree[w] += 1
        for v, is_fixed in self.vertices:
            if not is_fixed and degree[v] < 3:
                raise InvalidGraphError(
                    f"non-fixed quotient vertex {_shown(v)} needs degree >= 3"
                )


def double_cover(spec: CoverSpec) -> HyperellipticGraph:
    """Lift a cover spec to a validated hyperelliptic graph.

    Fixed vertices lift to one vertex, non-fixed to a swapped pair "v+", "v-";
    edges lift to a swapped pair "e+", "e-"; for an edge between two
    non-fixed vertices the attachment is chosen by a coin flip from
    spec.seed."""
    spec.validate()
    rng = random.Random(spec.seed)
    vertices = []
    vmap: Dict[str, str] = {}
    lifts: Dict[str, Tuple[str, str]] = {}  # quotient vertex -> (its "+" lift, its "-" lift)
    for v, is_fixed in spec.vertices:
        if is_fixed:
            lifts[v] = (v, v)
            vertices.append(v)
            vmap[v] = v
        else:
            plus, minus = f"{v}+", f"{v}-"
            lifts[v] = (plus, minus)
            vertices += [plus, minus]
            vmap[plus] = minus
            vmap[minus] = plus
    edges = []
    emap: Dict[str, str] = {}
    for eid, u, w, length in spec.edges:
        plus, minus = f"{eid}+", f"{eid}-"
        u_plus, u_minus = lifts[u]
        w_plus, w_minus = lifts[w]
        if u_plus != u_minus and w_plus != w_minus and rng.random() < 0.5:
            w_plus, w_minus = w_minus, w_plus  # the crossed lift
        edges.append((plus, (u_plus, w_plus), length))
        edges.append((minus, (u_minus, w_minus), length))
        emap[plus] = minus
        emap[minus] = plus
    graph = MetrizedGraph(vertices, edges)
    return validate_hyperelliptic(graph, Involution(vmap, emap))


# -- named graphs ------------------------------------------------------


def simple_graph(length=1) -> HyperellipticGraph:
    """SG: two fixed vertices joined by a swapped parallel pair."""
    return double_cover(
        CoverSpec(vertices=(("P", True), ("Q", True)), edges=(("e", "P", "Q", as_fraction(length)),))
    )


def elementary_graph(n: int, lengths: Optional[Sequence] = None) -> HyperellipticGraph:
    """The n-th elementary graph: a non-fixed hub pair of valence n + 1 over
    n + 1 fixed leaves; all edges one-jointed, size n."""
    if n < 2:
        raise InvalidGraphError("elementary graphs have size at least 2")
    k = n + 1
    if lengths is None:
        lengths = [Fraction(1)] * k
    if len(lengths) != k:
        raise InvalidGraphError(f"need {k} edge lengths")
    vertices = tuple([("Q", False)] + [(f"P{i}", True) for i in range(1, k + 1)])
    edges = tuple(
        (f"e{i}", "Q", f"P{i}", as_fraction(lengths[i - 1])) for i in range(1, k + 1)
    )
    return double_cover(CoverSpec(vertices=vertices, edges=edges))


def ladder_graph(n: int) -> HyperellipticGraph:
    """Two mirrored rails of non-fixed vertices P1..Pn with disjoint rungs
    between consecutive Pi, anchored through fixed vertices: O at P1, one Q
    at each middle Pi, and two at Pn.  Every edge has unit length."""
    if n < 2:
        raise InvalidGraphError("the ladder needs at least two rail vertices")
    length = Fraction(1)
    vertices = [("O", True)] + [(f"P{i}", False) for i in range(1, n + 1)]
    edges = [("e0", "O", "P1", length)]
    for i in range(1, n):
        edges.append((f"e{i}", f"P{i}", f"P{i + 1}", length))
    qcount = 0
    for i in range(1, n + 1):
        # rail degree so far: e0+e1 at P1, two rungs in the middle, one at Pn
        degree = 2 if i < n else 1
        for _ in range(3 - degree):
            qcount += 1
            vertices.append((f"Q{qcount}", True))
            edges.append((f"f{qcount}", f"Q{qcount}", f"P{i}", length))
    return double_cover(CoverSpec(vertices=tuple(vertices), edges=tuple(edges)))


# -- random draws ------------------------------------------------------


def random_cover_spec(seed: int, max_vertices: int = _MAX_QUOTIENT_VERTICES) -> CoverSpec:
    """A random labeled quotient tree; deterministic in the seed."""
    rng = random.Random(f"('cover', {_decimal(seed)})")
    n = rng.randint(2, max_vertices)
    parents = [rng.randrange(i) for i in range(1, n)]
    degree = [0] * n
    for i, p in enumerate(parents, start=1):
        degree[i] += 1
        degree[p] += 1
    labels = []
    for i in range(n):
        nonfixed = degree[i] >= 3 and rng.random() < 0.65
        labels.append((f"v{i}", not nonfixed))
    edges = tuple(
        (f"t{i}", f"v{i}", f"v{parents[i - 1]}", rng.choice(_LENGTH_CHOICES))
        for i in range(1, n)
    )
    return CoverSpec(vertices=tuple(labels), edges=edges, seed=seed)


def random_hyperelliptic(seed: int, min_size: int = 1, max_size: int = 5) -> HyperellipticGraph:
    """Seeded random hyperelliptic graph with size in [min_size, max_size].

    Same seed, same graph; distinct attempts derive sub-seeds so the draw
    stays reproducible.  A range below 1 or with min_size > max_size holds
    no graph (every quotient tree has two fixed leaves), and one above the
    size cap no drawn graph (a quotient tree with F fixed vertices gives
    size F - 1); both are rejected before drawing."""
    if max(min_size, 1) > max_size:
        raise InvalidGraphError(
            f"the size range [{_shown(min_size)}, {_shown(max_size)}] holds no graph "
            "(every graph has size at least 1)"
        )
    cap = _MAX_QUOTIENT_VERTICES - 1
    if min_size > cap:
        raise InvalidGraphError(
            f"the size range [{_shown(min_size)}, {_shown(max_size)}] holds no generated "
            f"graph (generated graphs have size at most {cap})"
        )
    for attempt in range(200):
        spec = random_cover_spec(seed * 1000 + attempt)
        h = double_cover(spec)
        if min_size <= graph_size(h) <= max_size:
            return h
    raise InvalidGraphError(
        f"no graph within the size bounds after 200 draws (seed {_shown(seed)})"
    )


def random_polarization(h: HyperellipticGraph, seed: int, nonnegative: bool = False) -> Divisor:
    """val - 2 (= nu - 2, see ``nu_counts``) at non-fixed vertices,
    iota-symmetric small rationals at fixed ones, resampled while the degree
    is -2 (the excluded value)."""
    rng = random.Random(f"('polarization', {_decimal(seed)})")
    choices = [c for c in _COEFF_CHOICES if not nonnegative or c >= 0]
    for _ in range(100):
        coeffs: Dict[str, Fraction] = {}
        for v in sorted(h.nonfixed_vertices):
            coeffs[v] = Fraction(h.graph.valence(v) - 2)
        for v in sorted(h.fixed_vertices):
            coeffs[v] = rng.choice(choices)
        d = Divisor(coeffs)
        if d.degree != -2:
            return d
    raise InvalidGraphError("could not draw a polarization of degree != -2")


def random_lengths(h: HyperellipticGraph, seed: int) -> Dict[str, Fraction]:
    """Random positive rational length per edge class (iota-invariant by
    construction)."""
    rng = random.Random(f"('lengths', {_decimal(seed)})")
    return {c: rng.choice(_LENGTH_CHOICES) for c in h.classes()}


def with_lengths(h: HyperellipticGraph, lengths: Mapping[str, object]) -> HyperellipticGraph:
    """Re-metrize a hyperelliptic graph with new per-class lengths: a class
    the mapping lacks is an UnknownIdError, a nonpositive length axiom (1)."""
    values = {}
    for c in h.classes():
        if c not in lengths:
            raise UnknownIdError(f"no length given for edge class {_shown(c)}")
        values[c] = as_fraction(lengths[c])
    new_edges = [(e.id, e.ends, values[h.class_of[e.id]]) for e in h.graph.edges]
    graph = MetrizedGraph(h.graph.vertices, new_edges)
    return validate_hyperelliptic(graph, h.involution)
