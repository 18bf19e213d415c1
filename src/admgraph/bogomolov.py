"""Semistable-fiber node bookkeeping and the effective lower bound.

A fiber configuration is the dual graph of a semistable fiber: vertices are
components carrying a geometric genus, edges are nodes (self-loops allowed:
a node on an irreducible component), and the arithmetic genus is the genus
sum plus the first Betti number.  Deleting a node's edge classifies it:
still connected means type 0, otherwise the type is the smaller arithmetic
genus of the two sides.  With a hyperelliptic involution, type-0 nodes are
refined: a fixed node has subtype 0; for a swapped pair, deleting both edges
must leave exactly two components and the subtype is the smaller genus.

xi_0 counts *nodes* of type (0,0); xi_j for j >= 1 counts *pairs*; delta_i
counts nodes of type i, so delta_0 = xi_0 + 2 * sum of the xi_j.  One
depth-first ``graph._walk`` types every node, in time linear in the fiber:
each edge off the tree gets its own bit, and a tree edge the XOR of the bits
of the edges leaving the subtree below it.  A node is a bridge iff its label
is 0; two non-bridges cut the fiber iff their labels are equal, and then a
side is a subtree, or a subtree less one below it (no cross edges).

From these counts come the self-intersection of the relative dualizing
sheaf, a per-fiber upper bound on the admissible constant (all nodes given
unit length), and the positive lower bound r0 on the squared Neron-Tate
radius for genus >= 3 (genus 2 is prior work and deliberately rejected).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

from .errors import (
    GenusBelowThreeError,
    GenusRangeError,
    InvalidCountsError,
    InvalidGraphError,
    MissingInvolutionError,
    NotHyperellipticConfigurationError,
    NotTypeZeroError,
    UnexpectedComponentCountError,
    _shown,
)
from .graph import Divisor, MetrizedGraph, _subdivide, _walk, push_divisor
from .hyperelliptic import (
    HyperellipticGraph,
    Involution,
    _contract_involution,
    check_involution,
    normalize_fiber,
)

class FiberConfiguration:
    """Dual graph of a semistable fiber with per-component genera and an
    optional involution."""

    __slots__ = ("graph", "genera", "involution", "genus")

    def __init__(
        self,
        graph: MetrizedGraph,
        genera: Mapping[str, int],
        involution: Optional[Involution] = None,
    ):
        if not graph.is_connected():
            raise InvalidGraphError("a fiber's dual graph is connected")
        if set(genera) - set(graph.vertices):
            raise InvalidGraphError("genera assigned to unknown components")
        full = {v: int(genera.get(v, 0)) for v in graph.vertices}
        if any(x < 0 for x in full.values()):
            raise InvalidGraphError("component genera are nonnegative")
        genus = sum(full.values()) + len(graph.edges) - len(graph.vertices) + 1
        if genus < 2:
            raise InvalidGraphError(f"fiber genus {genus} < 2 is not semistable of general type")
        if involution is not None:
            check_involution(graph, involution)
            for v in graph.vertices:
                if full[involution.vertex(v)] != full[v]:
                    raise InvalidGraphError("involution does not respect component genera")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "genera", full)
        object.__setattr__(self, "involution", involution)
        object.__setattr__(self, "genus", genus)

    def __setattr__(self, name, value):
        raise AttributeError("FiberConfiguration is immutable")

    def require_involution(self) -> Involution:
        if self.involution is None:
            raise MissingInvolutionError("this operation needs the hyperelliptic involution")
        return self.involution


def _nodes(cfg: FiberConfiguration) -> Dict[str, Tuple[int, int]]:
    """Every node's (label, weight) from one :func:`graph._walk`: a tree
    edge's weight sums 2 * (genus - 1) + valence over the subtree below it.
    A bridge of weight w cuts off a side of genus (w + 1) / 2, two nodes of
    one label weighing w and w' one of genus |w - w'| / 2."""
    g = cfg.graph
    order, up = _walk(g, g.vertices[0])
    tree = {eid for _, eid in up.values()}
    label = dict.fromkeys(order, 0)
    weight = {v: 2 * cfg.genera[v] - 2 + g.valence(v) for v in order}
    for k, e in enumerate(g.edges):
        if e.id not in tree:
            u, w = e.ends
            label[u] ^= 1 << k
            label[w] ^= 1 << k
    for v in reversed(order[1:]):
        p = up[v][0]
        label[p] ^= label[v]
        weight[p] += weight[v]
    nodes = {eid: (label[v], weight[v]) for v, (_, eid) in up.items()}
    return {e.id: nodes.get(e.id, (1 << k, 0)) for k, e in enumerate(g.edges)}


def _type(cfg: FiberConfiguration, node: Tuple[int, int]) -> int:
    label, weight = node
    side = (weight + 1) // 2
    return 0 if label else min(side, cfg.genus - side)


def _pair_subtype(cfg: FiberConfiguration, nodes, node_id: str, partner: str) -> int:
    (label, weight), (other, partner_weight) = nodes[node_id], nodes[partner]
    if label != other or not label:  # iota keeps bridges: two leave three components
        raise UnexpectedComponentCountError(
            f"removing {_shown(node_id)} and {_shown(partner)} gave {1 if label else 3} "
            "components, expected 2"
        )
    side = abs(weight - partner_weight) // 2
    return min(side, cfg.genus - 1 - side)


def node_type(cfg: FiberConfiguration, node_id: str) -> int:
    """0 if the partial normalization stays connected, else the minimum of
    the two sides' arithmetic genera."""
    cfg.graph.edge(node_id)
    return _type(cfg, _nodes(cfg)[node_id])


def node_subtype(cfg: FiberConfiguration, node_id: str) -> int:
    """Subtype j of a type-0 node: 0 when the node is iota-fixed; otherwise
    remove the node and its partner (exactly two components must result) and
    take the smaller arithmetic genus."""
    inv = cfg.require_involution()
    cfg.graph.edge(node_id)
    nodes = _nodes(cfg)
    if _type(cfg, nodes[node_id]) != 0:
        raise NotTypeZeroError(f"node {_shown(node_id)} is not of type 0")
    partner = inv.edge(node_id)
    return 0 if partner == node_id else _pair_subtype(cfg, nodes, node_id, partner)


def _classify(cfg: FiberConfiguration) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Every node's type and, with an involution, every type-0 node's
    subtype, in edge order, from one :func:`_nodes` pass (iota preserves
    types), so a failing pair raises at its first node in edge order."""
    nodes = _nodes(cfg)
    types = {eid: _type(cfg, node) for eid, node in nodes.items()}
    subtypes: Dict[str, int] = {}
    inv = cfg.involution
    if inv is not None:
        for eid, i in types.items():
            if i:
                continue
            partner = inv.edge(eid)
            if partner not in subtypes:  # a fixed node, or the first of its pair
                subtypes[partner] = 0 if partner == eid else _pair_subtype(cfg, nodes, eid, partner)
            subtypes[eid] = subtypes[partner]
    return types, subtypes


# Counts are dense vectors of about genus/2 entries each, and the formulas sum
# exact Fractions over them: the bound takes well under a second at this
# genus, but at genus 10^8 building the vectors alone runs for minutes.
MAX_GENUS = 10_000


def _require_count_genus(genus: int) -> None:
    if genus < 2:
        raise GenusRangeError("counts are defined for genus >= 2")
    if genus > MAX_GENUS:
        raise GenusRangeError(f"counts are defined for genus <= {MAX_GENUS}")


class InvariantCounts:
    """xi and delta vectors for one fiber or a whole family (the counts are
    additive over fibers)."""

    __slots__ = ("genus", "xi", "delta", "delta0")

    def __init__(self, genus: int, xi, delta, delta0: Optional[int] = None):
        genus = int(genus)
        _require_count_genus(genus)
        xi = tuple(int(x) for x in xi)
        delta = tuple(int(x) for x in delta)
        if len(xi) != (genus - 1) // 2 + 1:
            raise InvalidCountsError(f"xi must have entries for j = 0 .. {(genus - 1) // 2}")
        if len(delta) != genus // 2:
            raise InvalidCountsError(f"delta must have entries for i = 1 .. {genus // 2}")
        if any(x < 0 for x in xi) or any(x < 0 for x in delta):
            raise InvalidCountsError("counts are nonnegative")
        implied = xi[0] + 2 * sum(xi[1:])
        if delta0 is not None and int(delta0) != implied:
            raise InvalidCountsError("delta0 must equal xi0 + 2 * sum_{j>=1} xi_j")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "delta0", implied)

    def __setattr__(self, name, value):
        raise AttributeError("InvariantCounts is immutable")

    @classmethod
    def from_maps(
        cls,
        genus: int,
        xi: Optional[Mapping[int, int]] = None,
        delta: Optional[Mapping[int, int]] = None,
    ) -> "InvariantCounts":
        _require_count_genus(genus)
        xi = dict(xi or {})
        delta = dict(delta or {})
        jmax = (genus - 1) // 2
        imax = genus // 2
        if any(j < 0 or j > jmax for j in xi):
            raise InvalidCountsError(f"xi indices must lie in [0, {jmax}]")
        if any(i < 1 or i > imax for i in delta):
            raise InvalidCountsError(f"delta indices must lie in [1, {imax}]")
        xvec = [xi.get(j, 0) for j in range(jmax + 1)]
        dvec = [delta.get(i, 0) for i in range(1, imax + 1)]
        return cls(genus, xvec, dvec)

    def xi_j(self, j: int) -> int:
        return self.xi[j]

    def delta_i(self, i: int) -> int:
        return self.delta[i - 1]

    def any_positive(self) -> bool:
        return any(self.xi) or any(self.delta)

    def __eq__(self, other):
        if not isinstance(other, InvariantCounts):
            return NotImplemented
        return (self.genus, self.xi, self.delta) == (other.genus, other.xi, other.delta)

    def __repr__(self):
        return f"InvariantCounts(genus={self.genus}, xi={self.xi}, delta={self.delta})"


def _counts(
    cfg: FiberConfiguration, types: Mapping[str, int], subtypes: Mapping[str, int]
) -> InvariantCounts:
    """The counts from :func:`_classify`'s types and subtypes."""
    xi = Counter(subtypes.values())  # every type-0 node, so a pair counts twice
    delta = Counter(i for i in types.values() if i)
    pairs = {j: n // 2 if j else n for j, n in xi.items()}
    return InvariantCounts.from_maps(cfg.genus, pairs, delta)


def count_invariants(cfg: FiberConfiguration) -> InvariantCounts:
    """Classify every node; xi_0 counts nodes, xi_j (j >= 1) counts pairs."""
    cfg.require_involution()
    return _counts(cfg, *_classify(cfg))


def _require_bound_genus(g: int) -> None:
    if g < 3:
        raise GenusBelowThreeError(
            "genus 2 is covered by an earlier, separately published bound and is "
            "out of scope here; these formulas require genus >= 3"
        )


def omega_self_intersection(counts: InvariantCounts) -> Fraction:
    """(omega, omega) from the node counts via Noether's formula."""
    g = counts.genus  # >= 2: InvariantCounts refuses a smaller genus
    total = Fraction(g - 1, 2 * g + 1) * counts.xi_j(0)
    for j in range(1, (g - 1) // 2 + 1):
        total += Fraction(6 * j * (g - 1 - j) + 2 * (g - 1), 2 * g + 1) * counts.xi_j(j)
    for i in range(1, g // 2 + 1):
        total += (Fraction(12 * i * (g - i), 2 * g + 1) - 1) * counts.delta_i(i)
    return total


def epsilon_fiber_upper(counts: InvariantCounts) -> Fraction:
    """Upper bound for the admissible constant of one fiber's polarized dual
    graph, all nodes given unit length.

    The xi_j coefficient starts with 4(g-1)/(3g) for g >= 5; for g = 3, 4
    the polarization degree 2g - 2 <= 6 forces size <= 4 and the sharper
    (g-1)/g applies.
    """
    g = counts.genus
    _require_bound_genus(g)
    total = Fraction(5 * (g - 1), 12 * g) * counts.xi_j(0)
    first = Fraction(4 * (g - 1), 3 * g) if g >= 5 else Fraction(g - 1, g)
    for j in range(1, (g - 1) // 2 + 1):
        total += (first + Fraction(2 * j * (g - 1 - j), g)) * counts.xi_j(j)
    for i in range(1, g // 2 + 1):
        total += (Fraction(4 * i * (g - 1), g) - 1) * counts.delta_i(i)
    return total


def r0_bound(counts: InvariantCounts) -> Fraction:
    """The effective positive lower bound on the squared Neron-Tate radius:
    strictly positive whenever any count is."""
    g = counts.genus
    _require_bound_genus(g)
    inner = Fraction(2 * g - 5, 12) * counts.xi_j(0)
    for j in range(1, (g - 1) // 2 + 1):
        if g >= 5:
            coeff = Fraction(2 * (3 * j * (g - 1 - j) - g - 2), 3)
        else:
            coeff = Fraction(2 * j * (g - 1 - j) - 1)
        inner += coeff * counts.xi_j(j)
    for i in range(1, g // 2 + 1):
        inner += Fraction(4 * i * (g - i)) * counts.delta_i(i)
    return Fraction((g - 1) ** 2, g * (2 * g + 1)) * inner


def pairing_radicand(counts: InvariantCounts) -> Tuple[Fraction, Dict]:
    """Radicand of the admissible-pairing bound, assembled term by term:
    (g - 1) * ((omega, omega) - sum of per-fiber epsilon upper bounds).

    The report carries the per-quantity breakdown and the main theorem's
    value: the two agree whenever no delta_i with i >= 2 is present (the
    quoted tree bound is loose for i >= 2, where the theorem's sharper
    per-node analysis wins).
    """
    g = counts.genus
    _require_bound_genus(g)
    omega = omega_self_intersection(counts)
    eps_upper = epsilon_fiber_upper(counts)
    radicand = (g - 1) * (omega - eps_upper)
    theorem = r0_bound(counts)
    report = {
        "genus": g,
        "omega_self_intersection": omega,
        "epsilon_upper_total": eps_upper,
        "radicand": radicand,
        "r0_theorem": theorem,
        "warnings": [],
    }
    if not counts.any_positive():
        report["warnings"].append("no singular-fiber data: the bound is vacuous")
    if radicand != theorem:
        report["warnings"].append(
            "delta_i counts with i >= 2 present: the assembled radicand is weaker "
            "than the theorem's r0 (use r0_theorem)"
        )
    return radicand, report


# -- exact realizations of a fiber ------------------------------------


def omega_divisor(cfg: FiberConfiguration) -> Divisor:
    """The relative dualizing polarization: 2*genus(v) - 2 + valence(v)."""
    return Divisor(
        {v: Fraction(2 * cfg.genera[v] - 2 + cfg.graph.valence(v)) for v in cfg.graph.vertices}
    )


def fiber_metrized(cfg: FiberConfiguration) -> Tuple[MetrizedGraph, Divisor]:
    """The fiber as an honest metrized graph with its omega polarization.

    Loops and iota-fixed edges are split at their midpoints (new vertices
    carry coefficient 0), which changes nothing as a metric space; the
    result feeds the exact potential-theory pipeline.
    """
    g = cfg.graph
    inv = cfg.involution
    split = [e for e in g.edges if e.is_loop() or (inv is not None and inv.edge(e.id) == e.id)]
    out = _subdivide(g, {e.id: e.length / 2 for e in split})
    out = MetrizedGraph(out.vertices, out.edges)  # loop markers must be gone
    return out, omega_divisor(cfg)


def positive_type_nodes(cfg: FiberConfiguration) -> Tuple[str, ...]:
    return tuple(eid for eid, node in _nodes(cfg).items() if _type(cfg, node) >= 1)


def normalized_hyperelliptic(cfg: FiberConfiguration) -> Tuple[HyperellipticGraph, Divisor]:
    """Contract the positive-type nodes and normalize the rest into a
    hyperelliptic graph carrying the pushed omega polarization.

    Chain vertices removed by the normalization must carry coefficient 0
    (they correspond to (-2)-rational components); anything else means the
    input was not a hyperelliptic configuration.
    """
    inv = cfg.require_involution()
    positive = positive_type_nodes(cfg)
    contracted, new_inv, vmap = _contract_involution(cfg.graph, inv, positive)
    h = normalize_fiber(contracted, new_inv)
    pushed = push_divisor(omega_divisor(cfg), vmap)
    surviving = set(h.graph.vertices)
    dropped = {v: c for v, c in pushed.coefficients.items() if v not in surviving}
    if dropped:
        shown = ", ".join(_shown(v) for v in sorted(dropped))
        raise NotHyperellipticConfigurationError(
            f"normalization removed vertices with nonzero polarization: [{shown}]"
        )
    return h, Divisor({v: pushed.coefficient(v) for v in surviving})
