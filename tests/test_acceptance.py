"""Acceptance suite: ten exact-equality criteria, one pass/fail line each.

Everything here is decided by exact rational equality (no tolerances exist
anywhere in the package).  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

from contextlib import contextmanager
from fractions import Fraction

import admgraph as ag
from admgraph import EdgeKind
from _oracles import (
    component_structures,
    green_values_oracle,
    l_by_definition,
    l_symmetric,
    m_by_definition,
    m_symmetric,
    substitute_zero,
)
from conftest import join, named_corpus, rename

F = Fraction


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {description}")
        raise
    print(f"[criterion {num:02d}] PASS  {description}")


def full_corpus():
    return list(named_corpus().values()) + [ag.random_hyperelliptic(s) for s in range(25)]


def test_criterion_01_simple_graph_closed_form():
    with criterion(1, "epsilon(SG; l=1, D=P+Q) = 7/12 and c = 5/32, exact"):
        g = ag.MetrizedGraph(
            ["P", "Q"], [("e1", ("P", "Q"), 1), ("e2", ("P", "Q"), 1)]
        )
        d = ag.Divisor({"P": 1, "Q": 1})
        # hand-derived oracle first: an independent brute-force solve of the
        # five-property system must reproduce the hand-computed values
        mu = ag.admissible_measure(g, d)
        oracle = green_values_oracle(g, mu.vertex_masses, mu.edge_densities, "P")
        assert oracle["P"] == F(13, 96) and oracle["Q"] == F(-11, 96)
        assert ag.green_pairing(g, d, "P", "P") == F(13, 96)
        assert ag.green_pairing(g, d, "P", "Q") == F(-11, 96)
        eps, c = ag.epsilon_numeric(g, d)
        assert (eps, c) == (F(7, 12), F(5, 32))
        h = ag.simple_graph()
        assert ag.epsilon_closed_form(h, d) == F(7, 12)


def test_criterion_02_elementary_graph_value():
    with criterion(2, "epsilon(G_2; unit lengths, D = Q + iota(Q)) = 10/9, exact"):
        h = ag.elementary_graph(2)
        d = ag.Divisor({"Q+": 1, "Q-": 1})
        assert ag.epsilon_closed_form(h, d) == F(10, 9)
        assert ag.epsilon_numeric(h.graph, d)[0] == F(10, 9)


def test_criterion_03_oracle_equivalence_200_triples():
    with criterion(3, "closed form == exact solver on 210 random triples, sizes 1-5"):
        sizes = set()
        for seed in range(70):
            h = ag.random_hyperelliptic(seed)
            sizes.add(ag.graph_size(h))
            for k in range(3):
                salt = 1000 * seed + k
                h2 = ag.with_lengths(h, ag.random_lengths(h, salt))
                d = ag.random_polarization(h2, salt)
                assert ag.epsilon_closed_form(h2, d) == ag.epsilon_numeric(h2.graph, d)[0]
        assert sizes == {1, 2, 3, 4, 5}


def test_criterion_04_contraction_lemma():
    with criterion(4, "specializing a class to 0 equals the contracted closed form"):
        for h in full_corpus():
            d = ag.random_polarization(h, 13)
            fn = ag.epsilon_rational_fn(h, d)
            for cname in h.classes():
                g2, inv2, vmap = ag.contract_classes(h, [cname])
                h2 = ag.validate_hyperelliptic(g2, inv2)
                d2 = ag.push_divisor(d, vmap)
                assert substitute_zero(fn, cname) == ag.epsilon_rational_fn(h2, d2)


def test_criterion_05_polynomial_identities():
    with criterion(5, "L/M equal both oracles, product/additive laws, contraction, M(G_{n-1})"):
        for h in full_corpus():
            lpoly, mpoly = ag.l_polynomial(h), ag.m_polynomial(h)
            assert lpoly == l_by_definition(h) == l_symmetric(h)
            assert mpoly == m_by_definition(h) == m_symmetric(h)
        # product and M/L additivity over one-point-sums
        for seed in (0, 1):
            a = ag.random_hyperelliptic(seed, max_size=3)
            b = rename(ag.random_hyperelliptic(seed + 30, max_size=3), "B.")
            h = join(a, sorted(a.fixed_vertices)[0], b, sorted(b.fixed_vertices)[0])
            la, ma = ag.l_polynomial(a), ag.m_polynomial(a)
            lb, mb = ag.l_polynomial(b), ag.m_polynomial(b)
            assert ag.l_polynomial(h) == la * lb
            assert ag.m_polynomial(h) == ma * lb + la * mb
        # L(X = 0) equals L of the contraction (size-preserving classes)
        for h in full_corpus()[:15]:
            lpoly = ag.l_polynomial(h)
            for cname in h.classes():
                if h.class_kind(cname) is EdgeKind.TWO_JOINTED:
                    continue
                g2, inv2, _ = ag.contract_classes(h, [cname])
                h2 = ag.validate_hyperelliptic(g2, inv2)
                assert lpoly.substitute_zero(cname) == ag.l_polynomial(h2)
        # M(G_{n-1}) = (n-2) sigma_n for n = 3, 4, 5
        from itertools import combinations

        for n in (3, 4, 5):
            h = ag.elementary_graph(n - 1)
            classes = h.classes()
            assert len(classes) == n
            sigma_n = ag.MultiPoly.monomial(classes)
            assert ag.m_polynomial(h) == (n - 2) * sigma_n
            sigma_n_minus_1 = ag.MultiPoly()
            for subset in combinations(classes, n - 1):
                sigma_n_minus_1 = sigma_n_minus_1 + ag.MultiPoly.monomial(subset)
            assert ag.l_polynomial(h) == sigma_n_minus_1


def test_criterion_06_resistance_identity():
    with criterion(6, "2/(l + r) * L(lambda) = P^e(lambda) on the corpus"):
        for k, h in enumerate(full_corpus()):
            h2 = ag.with_lengths(h, ag.random_lengths(h, 77 + k))
            lpoly = ag.l_polynomial(h2)
            lengths = h2.lengths()
            lvalue = lpoly.evaluate(lengths)
            for cname in h2.classes():
                r = ag.cross_resistance(h2.graph, cname)
                assert r is not ag.INFINITY
                l = h2.class_length(cname)
                # L is linear in X_c: its coefficient is L(X_c = 1) - L(X_c = 0)
                coeff = lpoly.evaluate({**lengths, cname: 1}) - lpoly.evaluate({**lengths, cname: 0})
                assert F(2) * lvalue == (l + r) * coeff


def test_criterion_07_inequality_lemma():
    with criterion(7, "M/L <= sum(Ed0) + 1/4 sum(Ed1); 1/2 coefficient when size <= 4"):
        seen_small = 0
        for k, h in enumerate(full_corpus()):
            for comp in component_structures(h):
                comp = ag.with_lengths(comp, ag.random_lengths(comp, 55 + k))
                lengths = comp.lengths()
                ratio = ag.m_polynomial(comp).evaluate(lengths) / ag.l_polynomial(
                    comp
                ).evaluate(lengths)
                s0 = sum(
                    (comp.class_length(c) for c in comp.classes_of_kind(EdgeKind.DISJOINT)),
                    F(0),
                )
                s1 = sum(
                    (comp.class_length(c) for c in comp.classes_of_kind(EdgeKind.ONE_JOINTED)),
                    F(0),
                )
                assert ratio <= s0 + F(1, 4) * s1
                if ag.graph_size(comp) <= 4:
                    seen_small += 1
                    assert ratio <= F(1, 2) * s0 + F(1, 4) * s1
        assert seen_small > 10


def test_criterion_08_green_properties():
    with criterion(8, "symmetry, unit mass, zero integral, constancy, subdivision invariance"):
        for k, h in enumerate(full_corpus()[:18]):
            g = h.graph
            d = ag.random_polarization(h, 300 + k)
            mu = ag.admissible_measure(g, d)
            assert mu.total_mass(g) == 1
            values = ag.green_matrix(g, d)
            for x in g.vertices:
                for y in g.vertices:
                    assert values[x][y] == values[y][x]
            source = g.vertices[k % len(g.vertices)]
            pot = ag.green_function(g, d, source)
            assert pot.integral_against(mu) == 0
            cs = {
                sum((a * values[x][y] for x, a in d.coefficients.items()), F(0))
                + values[y][y]
                for y in g.vertices
            }
            assert len(cs) == 1
            eps, c = ag.epsilon_numeric(g, d)
            fine = g
            for eid in list(g.edge_ids()):
                fine = ag.subdivide_edge(fine, eid, fine.edge(eid).length / 3)
            assert ag.epsilon_numeric(fine, d) == (eps, c)


def test_criterion_09_bound_values():
    with criterion(9, "r0(3, xi0=1) = 1/63; r0(5, xi1=1) = 64/165; (w,w)(3, xi0=1) = 2/7"):
        assert ag.r0_bound(ag.InvariantCounts.from_maps(3, {0: 1})) == F(1, 63)
        assert ag.r0_bound(ag.InvariantCounts.from_maps(5, {1: 1})) == F(64, 165)
        assert ag.omega_self_intersection(ag.InvariantCounts.from_maps(3, {0: 1})) == F(2, 7)


def test_criterion_10_dominance_and_positivity():
    with criterion(10, "per-fiber upper bound >= exact epsilon; r0 > 0 for positive counts"):
        from test_bogomolov import FIBERS

        for make in FIBERS:
            cfg = make()
            counts = ag.count_invariants(cfg)
            graph, omega = ag.fiber_metrized(cfg)
            eps, _ = ag.epsilon_numeric(graph, omega)
            assert ag.epsilon_fiber_upper(counts) >= eps
            assert ag.r0_bound(counts) > 0
        for g in range(3, 9):
            for j in range(0, (g - 1) // 2 + 1):
                assert ag.r0_bound(ag.InvariantCounts.from_maps(g, {j: 1})) > 0
            for i in range(1, g // 2 + 1):
                assert ag.r0_bound(ag.InvariantCounts.from_maps(g, {}, {i: 1})) > 0
