"""MultiPoly arithmetic, L/M constructions, and the closed-form epsilon."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import admgraph as ag
from _oracles import (
    _connects,
    component_structures,
    conductances_kirchhoff,
    conductances_reference,
    epsilon_kirchhoff,
    kirchhoff_polynomial,
    l_by_definition,
    l_cotrees,
    l_symmetric,
    m_by_definition,
    m_cotrees,
    m_symmetric,
    nonfixed_pairs,
    substitute_zero,
)
from admgraph import EdgeKind, MultiPoly, polynomials
from admgraph.errors import ECHO_LIMIT
from admgraph.generators import double_cover, random_cover_spec
from conftest import shown_id

F = Fraction


def sigma(variables, k):
    """Elementary symmetric polynomial, for expectations."""
    from itertools import combinations

    total = MultiPoly()
    for subset in combinations(sorted(variables), k):
        total = total + MultiPoly.monomial(subset)
    return total


def degrees(p):
    """The (total degree, largest exponent) pairs of p's terms."""
    return {(len(mono), max(Counter(mono).values(), default=0)) for mono in p.terms}


class TestMultiPoly:
    def test_zero_coefficients_dropped(self):
        p = MultiPoly.variable("x") - MultiPoly.variable("x")
        assert p.is_zero() and p.terms == {}

    def test_product_and_powers(self):
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        p = (x + y) * (x + y)
        assert p == x * x + 2 * x * y + y * y
        assert degrees(p) == {(2, 1), (2, 2)}

    @pytest.mark.parametrize("key", [(("x", 1),), ("x", 1), ("x", None)])
    def test_monomial_of_non_names_rejected(self, key):
        with pytest.raises(TypeError):
            MultiPoly({key: 1})

    def test_keys_naming_one_monomial_add_up(self):
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        assert MultiPoly({("x", "y"): 1, ("y", "x"): 2}) == 3 * x * y
        assert MultiPoly({("x", "y"): 1, ("y", "x"): -1}).is_zero()
        assert MultiPoly({("y", "x"): 0, ("x", "y"): 2}).terms == {("x", "y"): F(2)}

    def test_evaluate(self):
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        assert (x * y + 2 * x).evaluate({"x": F(1, 2), "y": 3}) == F(5, 2)

    @pytest.mark.parametrize("length", [ECHO_LIMIT, ECHO_LIMIT + 1, 300])
    def test_evaluate_names_an_overlong_variable_by_length(self, length):
        var = "x" * length
        with pytest.raises(KeyError) as info:
            MultiPoly.variable(var).evaluate({})
        assert info.value.args == (f"no value for variable {shown_id(var)}",)

    def test_substitute_zero(self):
        p = sigma(["x", "y", "z"], 2)
        assert p.substitute_zero("z") == MultiPoly.monomial(["x", "y"])
        assert p.substitute_zero("absent") == p

    def test_grlex_serialization_order(self):
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        p = x * y + x + y * y * y
        monos = [m for m, _ in p.sorted_terms()]
        assert monos == [("x",), ("x", "y"), ("y", "y", "y")]

    def test_rational_fn_equality_cross_multiplied(self):
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        a = ag.RationalFn(x * y, x)
        b = ag.RationalFn(y * x * x, x * x)
        assert a == b


class TestLPolynomial:
    def test_sg_single_class(self):
        h = ag.simple_graph()
        assert ag.l_polynomial(h) == MultiPoly.variable(h.classes()[0])

    def test_elementary_is_sigma_n_minus_one(self):
        for n in (2, 3, 4):
            h = ag.elementary_graph(n)
            assert ag.l_polynomial(h) == sigma(h.classes(), n)

    def test_multiplicative_over_wedge(self):
        from conftest import join, rename

        a = ag.elementary_graph(2)
        b = rename(ag.simple_graph(), "B.")
        h = join(a, "P1", b, "B.P")
        assert ag.l_polynomial(h) == ag.l_polynomial(a) * ag.l_polynomial(b)

    def test_specialize_matches_contraction(self, corpus):
        for h in corpus[:14]:
            lpoly = ag.l_polynomial(h)
            for cname in h.classes():
                g2, inv2, _ = ag.contract_classes(h, [cname])
                if h.class_kind(cname) is EdgeKind.TWO_JOINTED:
                    continue  # size drops; the identity is for size-preserving classes
                h2 = ag.validate_hyperelliptic(g2, inv2)
                assert lpoly.substitute_zero(cname) == ag.l_polynomial(h2)

    def test_homogeneous_multilinear(self, corpus):
        for h in corpus:
            lpoly = ag.l_polynomial(h)
            assert degrees(lpoly) <= {(ag.graph_size(h), 1)}


class TestMPolynomial:
    def test_sg_zero(self):
        assert ag.m_polynomial(ag.simple_graph()).is_zero()

    def test_semisimple_zero(self):
        from conftest import join, rename

        h = join(ag.simple_graph(), "P", rename(ag.simple_graph(), "B."), "B.P")
        assert ag.m_polynomial(h).is_zero()

    def test_elementary_value(self):
        for n in (2, 3, 4):
            h = ag.elementary_graph(n)
            expected = (n - 1) * sigma(h.classes(), n + 1)
            assert ag.m_polynomial(h) == expected

    def test_m_over_l_additive(self, corpus):
        from conftest import join, rename

        for k, h1 in enumerate(corpus[:4]):
            h2 = rename(ag.elementary_graph(2), "Z.")
            v1 = sorted(h1.fixed_vertices)[0]
            h = join(h1, v1, h2, "Z.P1")
            l1, m1 = ag.l_polynomial(h1), ag.m_polynomial(h1)
            l2, m2 = ag.l_polynomial(h2), ag.m_polynomial(h2)
            lg, mg = ag.l_polynomial(h), ag.m_polynomial(h)
            assert lg == l1 * l2
            assert mg == m1 * l2 + l1 * m2

    def test_homogeneous_multilinear(self, corpus):
        for h in corpus:
            mpoly = ag.m_polynomial(h)
            assert degrees(mpoly) <= {(ag.graph_size(h) + 1, 1)}


class TestStrategyAgreement:
    """The cut route of the library against the restriction definition,
    the elementary-symmetric construction and the co-tree listing, all kept
    as oracles."""

    def test_on_corpus(self, corpus):
        for h in corpus:
            lpoly, mpoly = ag.l_polynomial(h), ag.m_polynomial(h)
            assert lpoly == l_by_definition(h) == l_symmetric(h) == l_cotrees(h)
            assert mpoly == m_by_definition(h) == m_symmetric(h) == m_cotrees(h)


class TestCoTrees:
    """L and M are listed as cuts of the quotient tree; the module docstring
    of ``polynomials`` proves that these are the subset definitions and the
    co-trees of G/E- (of G/(E- + v~iota v) for M).  The proofs are checked
    against the definition, the elementary-symmetric construction and the
    co-tree listing, all kept as oracles, on generated covers."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_matches_both_oracles_on_covers(self, seed):
        h = double_cover(random_cover_spec(seed, max_vertices=12))
        assert len(h.class_members) <= 11
        lpoly, mpoly = ag.l_polynomial(h), ag.m_polynomial(h)
        assert lpoly == l_by_definition(h) == l_symmetric(h) == l_cotrees(h)
        assert mpoly == m_by_definition(h) == m_symmetric(h) == m_cotrees(h)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_connects_matches_is_connected(self, n, data):
        # the co-tree oracle's connectivity check against the graph's own
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        ends = data.draw(st.lists(pair, max_size=10))
        edges = [(a, b, None) for a, b in ends]
        g = ag.MetrizedGraph(
            [str(k) for k in range(n)],
            [(f"e{k}", (str(a), str(b)), 1) for k, (a, b) in enumerate(ends)],
            allow_loops=True,
        )
        assert _connects(list(range(n)), n, edges) == g.is_connected()

    def test_ladder_l_term_counts_are_fibonacci(self):
        fib = [0, 1]
        while len(fib) < 27:
            fib.append(fib[-1] + fib[-2])
        for n in range(2, 13):
            lpoly = ag.l_polynomial(ag.ladder_graph(n))
            assert len(lpoly.terms) == fib[2 * n + 2]
            assert set(lpoly.terms.values()) == {1}

    # term counts and coefficient sums of M, as the definition oracle gives them
    LADDER_M = {
        2: (5, 6),
        3: (19, 25),
        4: (65, 90),
        5: (210, 300),
        6: (654, 954),
        7: (1985, 2939),
        8: (5911, 8850),
    }

    def test_ladder_m_counts_and_sums(self):
        for n, (count, total) in self.LADDER_M.items():
            h = ag.ladder_graph(n)
            mpoly = ag.m_polynomial(h)
            assert (len(mpoly.terms), sum(mpoly.terms.values())) == (count, total)
            if n <= 6:
                assert mpoly == m_by_definition(h)


class TestEnumerationCap:
    def test_l_budget_counts_trees(self, monkeypatch):
        h = ag.ladder_graph(3)
        monkeypatch.setattr(ag.polynomials, "MAX_TREES", 21)
        assert len(ag.l_polynomial(h).terms) == 21
        monkeypatch.setattr(ag.polynomials, "MAX_TREES", 20)
        with pytest.raises(ag.EnumerationCapError, match="more than 20 spanning trees"):
            ag.l_polynomial(h)

    def test_class_count_does_not_decide(self, monkeypatch):
        h = ag.ladder_graph(30)
        assert len(h.class_members) == 61
        monkeypatch.setattr(ag.polynomials, "MAX_TREES", 1000)
        for symbolic in (ag.l_polynomial, ag.m_polynomial):
            with pytest.raises(ag.EnumerationCapError):
                symbolic(h)

    def test_m_budget_covers_all_pairs(self, monkeypatch):
        # ladder3's three non-fixed pairs list 8, 9 and 8 trees
        h = ag.ladder_graph(3)
        monkeypatch.setattr(ag.polynomials, "MAX_TREES", 25)
        assert len(ag.m_polynomial(h).terms) == 19
        monkeypatch.setattr(ag.polynomials, "MAX_TREES", 24)
        with pytest.raises(ag.EnumerationCapError):
            ag.m_polynomial(h)


class TestClosedForm:
    def test_sg_pinned_value(self):
        h = ag.simple_graph()
        assert ag.epsilon_closed_form(h, ag.Divisor({"P": 1, "Q": 1})) == F(7, 12)

    def test_elementary_g2_pinned_value(self):
        h = ag.elementary_graph(2)
        d = ag.Divisor({"Q+": 1, "Q-": 1})
        assert ag.epsilon_closed_form(h, d) == F(10, 9)

    def test_sg_symbolic_prop(self):
        # eps(SG, aP + bQ) = (2/3 deg/(deg+2) + ab/(deg+2)) X
        for a, b in [(1, 1), (2, 1), (3, 0), (0, 0), (2, -1)]:
            h = ag.simple_graph(F(5, 7))
            d = ag.Divisor({"P": a, "Q": b})
            deg = a + b
            expect = (F(2, 3) * deg / (deg + 2) + F(a * b, deg + 2)) * F(5, 7)
            assert ag.epsilon_closed_form(h, d) == expect

    def test_wrong_shape_rejected(self):
        h = ag.elementary_graph(2)
        with pytest.raises(ag.PolarizationShapeError):
            ag.epsilon_closed_form(h, ag.Divisor({"Q+": 2, "Q-": 2}))

    def test_degree_minus_two_rejected(self):
        h = ag.simple_graph()
        with pytest.raises(ag.DegreeMinusTwoError):
            ag.epsilon_closed_form(h, ag.Divisor({"P": -1, "Q": -1}))

    def test_matches_numeric_on_corpus(self, corpus):
        for k, h in enumerate(corpus):
            h2 = ag.with_lengths(h, ag.random_lengths(h, 900 + k))
            d = ag.random_polarization(h2, 900 + k)
            closed = ag.epsilon_closed_form(h2, d)
            numeric, _ = ag.epsilon_numeric(h2.graph, d)
            assert closed == numeric
            assert ag.epsilon_closed_form(ag.with_lengths(h, h2.lengths()), d) == closed

    def test_specialization_is_contraction(self, corpus):
        for h in corpus[:10]:
            d = ag.random_polarization(h, 41)
            fn = ag.epsilon_rational_fn(h, d)
            for cname in h.classes():
                g2, inv2, vmap = ag.contract_classes(h, [cname])
                h2 = ag.validate_hyperelliptic(g2, inv2)
                d2 = ag.push_divisor(d, vmap)
                assert substitute_zero(fn, cname) == ag.epsilon_rational_fn(h2, d2)

    def test_rational_fn_is_the_products_of_its_parts(self, corpus):
        # the numerator added up in integers equals sum_c n_c X_c L + q M
        # formed by MultiPoly products, term for term and in the same order
        cases = [(h, ag.random_polarization(h, 43)) for h in corpus[:12]]
        cases.append((ag.ladder_graph(6), ag.random_polarization(ag.ladder_graph(6), 6)))
        for h, d in cases:
            scaling = polynomials._theorem_shape_check(h, d)
            q_num, numerators, den = polynomials._class_coefficients(h, d, *scaling)
            linear = MultiPoly({(c,): F(n, den) for c, n in numerators.items()})
            lpoly, mpoly = ag.l_polynomial(h), ag.m_polynomial(h)
            expected = linear * lpoly + MultiPoly.constant(F(q_num, den)) * mpoly
            fn = ag.epsilon_rational_fn(h, d)
            assert list(fn.numerator.terms.items()) == list(expected.terms.items())
            assert fn.denominator.terms == lpoly.terms


class TestPolarizationCheck:
    """The closed form validates its polarization once per call; w_weight
    called directly still checks its own."""

    def cases(self, h):
        d = ladder_polarization(h)
        shift = dict(d.coefficients, O=d.coefficient("O") - (d.degree + 2))
        return {
            "non-invariant": (
                dict(d.coefficients, **{"P1+": 5}),
                ag.PolarizationShapeError,
                "polarization must be iota-invariant",
            ),
            "wrong shape": (
                dict(d.coefficients, **{"P1+": 2, "P1-": 2}),
                ag.PolarizationShapeError,
                "coefficient at non-fixed vertex 'P1+' must be nu - 2 = 1",
            ),
            "degree -2": (shift, ag.DegreeMinusTwoError, "closed form undefined for deg(D) = -2"),
            "unknown vertex": (
                dict(d.coefficients, nope=1),
                ag.UnknownIdError,
                "unknown vertex 'nope'",
            ),
        }

    @pytest.mark.parametrize(
        "case", ["non-invariant", "wrong shape", "degree -2", "unknown vertex"]
    )
    def test_errors_and_messages(self, case):
        h = ag.ladder_graph(3)
        coeffs, error, message = self.cases(h)[case]
        for call in (ag.epsilon_closed_form, ag.epsilon_rational_fn):
            with pytest.raises(error) as info:
                call(h, ag.Divisor(coeffs))
            assert str(info.value) == message

    def test_w_weight_checks_invariance(self):
        h = ag.ladder_graph(3)
        coeffs = self.cases(h)["non-invariant"][0]
        with pytest.raises(ag.PolarizationShapeError) as info:
            ag.w_weight(h, ag.Divisor(coeffs), "e1+")
        assert str(info.value) == "w is defined for iota-invariant divisors"

    def test_w_weight_names_an_unknown_vertex(self):
        h = ag.ladder_graph(3)
        with pytest.raises(ag.UnknownIdError) as info:
            ag.w_weight(h, ag.Divisor({"nope": 1}), "e1+")
        assert str(info.value) == "unknown vertex 'nope'"

    def test_one_invariance_check_per_call(self, monkeypatch):
        # the closed form checks invariance once, on the polarization scaled
        # to integers (test_errors_and_messages), and no class re-checks it
        h = ag.ladder_graph(4)
        d = ladder_polarization(h)
        checks = []
        check = ag.divisor_is_invariant

        def counted(*args):
            checks.append(args)
            return check(*args)

        monkeypatch.setattr(ag.hyperelliptic, "divisor_is_invariant", counted)
        for call in (ag.epsilon_closed_form, ag.epsilon_rational_fn):
            checks.clear()
            call(h, d)
            assert checks == []
        checks.clear()
        ag.w_weight(h, d, "e1+")
        assert len(checks) == 1


def ladder_polarization(h):
    """nu - 2 at non-fixed vertices (the closed form's shape), 1 at fixed."""
    coeffs = {v: ag.nu_counts(h, v)[2] - 2 for v in h.nonfixed_vertices}
    coeffs.update({v: 1 for v in h.fixed_vertices})
    return ag.Divisor(coeffs)


def psi(h, merge=()):
    """Psi of h's graph over class variables, with the vertices in
    ``merge`` identified first."""
    rename = {v: merge[0] for v in merge}
    vertices = sorted({rename.get(v, v) for v in h.graph.vertices})
    edges = [
        (tuple(rename.get(x, x) for x in e.ends), h.class_of[e.id]) for e in h.graph.edges
    ]
    return kirchhoff_polynomial(vertices, edges)


class TestKirchhoff:
    """L and M are spanning-tree polynomials: 2^g L = Psi_G and 2^(g+1) M
    sums (val v - 2) Psi_{G/(v~iota v)}, as the module docstring of
    ``polynomials`` proves; checked here against the subset enumeration of
    Psi and against the solver's resistances."""

    def test_l_and_m_are_kirchhoff_polynomials(self, corpus):
        for h in corpus:
            if len(h.graph.edges) > 14:
                continue
            g = len(h.graph.edges) - len(h.graph.vertices) + 1
            assert 2**g * ag.l_polynomial(h) == psi(h)
            assert 2**g * l_by_definition(h) == psi(h)
            merged = MultiPoly()
            for v, w in nonfixed_pairs(h):
                merged = merged + (h.graph.valence(v) - 2) * psi(h, (v, w))
            assert 2 ** (g + 1) * ag.m_polynomial(h) == merged
            assert 2 ** (g + 1) * m_by_definition(h) == merged

    def test_m_over_l_is_resistance_sum(self, corpus):
        for k, h in enumerate(corpus):
            h2 = ag.with_lengths(h, ag.random_lengths(h, 300 + k))
            lengths = h2.lengths()
            ratio = ag.m_polynomial(h2).evaluate(lengths) / ag.l_polynomial(h2).evaluate(lengths)
            resistances = sum(
                (
                    (h2.graph.valence(v) - 2) * ag.effective_resistance(h2.graph, v, w)
                    for v, w in nonfixed_pairs(h2)
                ),
                F(0),
            )
            assert ratio == resistances / 2

    def test_matches_rational_function_at_given_lengths(self, corpus):
        for k, h in enumerate(corpus):
            d = ag.random_polarization(h, 600 + k)
            lengths = ag.random_lengths(h, 600 + k)
            expect = ag.epsilon_rational_fn(h, d).evaluate(lengths)
            assert ag.epsilon_closed_form(ag.with_lengths(h, lengths), d) == expect

    def test_independent_of_the_solver(self, corpus, monkeypatch):
        cases = []
        for k, h in enumerate(corpus):
            d = ag.random_polarization(h, 800 + k)
            cases.append((h, d, ag.epsilon_numeric(h.graph, d)[0]))

        def no_solver(*args, **kwargs):
            raise AssertionError("the closed form must not call the solver")

        # every route of potential runs through this one elimination
        monkeypatch.setattr(ag.potential, "_eliminate", no_solver)
        g, d = cases[0][0].graph, cases[0][1]
        for call in (
            lambda: ag.epsilon_numeric(g, d),
            lambda: ag.green_matrix(g, d),
            lambda: ag.admissible_measure(g, d),
            lambda: ag.effective_resistance(g, g.vertices[0], g.vertices[-1]),
        ):
            with pytest.raises(AssertionError):
                call()
        for h, d, numeric in cases:
            assert ag.epsilon_closed_form(h, d) == numeric

    def test_no_class_cap(self):
        h = ag.ladder_graph(13)
        assert len(h.class_members) == 27
        d = ladder_polarization(h)
        numeric, _ = ag.epsilon_numeric(h.graph, d)
        assert ag.epsilon_closed_form(h, d) == numeric


BIG = int("9" * 800)
SMALL = F(1, int("7" * 800))


def integer_m_over_l(h):
    """M/L from the library's integer pass: M(x)/L(x) over B, at the
    integer lengths x = X B (B the lcm of the length denominators)."""
    scale, x = polynomials._common_scale(h.lengths())
    l_value, m_value = polynomials._l_m_at(h, x)
    return F(m_value, l_value * scale)


def m_over_l(h, conductance):
    """The sum over the non-fixed orbits a of (val a - 2)/C(a)."""
    return sum(((h.graph.valence(a) - 2) / c for a, c in conductance.items()), F(0))


class TestQuotientTree:
    """The closed form's M/L from the integer forest pass over the quotient
    tree against the conductances C(a) of two oracles (Kirchhoff
    determinants, C(a) = 2 kappa(G) / kappa(G/(v~iota v)), one Bareiss
    elimination each, and Fraction series-parallel passes), and the closed
    form against the solver."""

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=33), st.data())
    def test_matches_kirchhoff_and_solver_on_corpus(self, corpus, index, data):
        h = corpus[index]
        length = st.one_of(
            st.fractions(min_value=F(1, 50), max_value=50),
            st.sampled_from([BIG, SMALL, BIG + 1, F(1, BIG + 2)]),
        )
        h2 = ag.with_lengths(h, {c: data.draw(length) for c in h.classes()})
        lengths = h2.lengths()
        ratio = integer_m_over_l(h2)
        assert ratio == m_over_l(h2, conductances_kirchhoff(h2, lengths))
        assert ratio == m_over_l(h2, conductances_reference(h2, lengths))
        d = ag.random_polarization(h2, index)
        closed = ag.epsilon_closed_form(h2, d)
        assert closed == epsilon_kirchhoff(h2, d, lengths)
        assert closed == ag.epsilon_numeric(h2.graph, d)[0]

    def test_long_lengths_on_corpus(self, corpus):
        # lengths alternating by class between an 800-digit integer and the
        # reciprocal of another, on the graphs of at most five vertices
        # (ladder3 at these lengths is TestLongNumbers' case)
        for h in corpus:
            if len(h.graph.vertices) > 5:
                continue
            h2 = ag.with_lengths(h, {c: (BIG, SMALL)[k % 2] for k, c in enumerate(h.classes())})
            lengths = h2.lengths()
            d = ag.random_polarization(h2, 5)
            closed = ag.epsilon_closed_form(h2, d)
            assert closed == epsilon_kirchhoff(h2, d, lengths)
            assert closed == ag.epsilon_numeric(h2.graph, d)[0]

    def test_ladders_match_kirchhoff(self):
        for n in list(range(2, 21)) + [30]:
            h = ag.ladder_graph(n)
            lengths = h.lengths()
            assert integer_m_over_l(h) == m_over_l(h, conductances_kirchhoff(h, lengths))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000), st.data())
    def test_integer_pass_matches_fraction_reference(self, seed, data):
        # random covers at random rational lengths, the 800-digit integer
        # and reciprocal lengths of test_long_lengths_on_corpus among them;
        # trees this large often have a fixed vertex below a non-fixed one
        h = double_cover(random_cover_spec(seed, max_vertices=40))
        length = st.one_of(
            st.fractions(min_value=F(1, 10**6), max_value=10**6),
            st.sampled_from([BIG, SMALL, BIG + 1, F(1, BIG + 2)]),
        )
        h2 = ag.with_lengths(h, {c: data.draw(length) for c in h.classes()})
        lengths = h2.lengths()
        assert integer_m_over_l(h2) == m_over_l(h2, conductances_reference(h2, lengths))

    def test_integer_pass_matches_fraction_reference_on_ladders(self):
        for n in range(2, 301):
            h = ag.ladder_graph(n)
            lengths = h.lengths()
            assert integer_m_over_l(h) == m_over_l(h, conductances_reference(h, lengths))

    def test_integer_pass_is_l_and_m_on_corpus_and_ladders(self, corpus):
        # L(x) and M(x) of the pass against the listed L and M evaluated at
        # the same integer lengths
        graphs = list(corpus) + [ag.ladder_graph(n) for n in range(2, 8)]
        for k, h in enumerate(graphs):
            h2 = ag.with_lengths(h, ag.random_lengths(h, 700 + k))
            _, x = polynomials._common_scale(h2.lengths())
            assert polynomials._l_m_at(h2, x) == (
                ag.l_polynomial(h).evaluate(x),
                ag.m_polynomial(h).evaluate(x),
            )

    def test_ladders_match_solver(self):
        for n in (40, 60):
            h = ag.ladder_graph(n)
            d = ladder_polarization(h)
            assert ag.epsilon_closed_form(h, d) == ag.epsilon_numeric(h.graph, d)[0]

    def test_vanishing_l_is_a_fault(self, monkeypatch):
        # one message for L(x) = 0 in the closed form and L = 0 in the
        # rational function
        h = ag.elementary_graph(2)
        d = ladder_polarization(h)
        monkeypatch.setattr(ag.polynomials, "_l_m_at", lambda h, x: (0, 0))
        with pytest.raises(ag.SolverFaultError, match="^L vanished") as closed:
            ag.epsilon_closed_form(h, d)
        monkeypatch.setattr(ag.polynomials, "l_polynomial", lambda h: MultiPoly())
        with pytest.raises(ag.SolverFaultError) as symbolic:
            ag.epsilon_rational_fn(h, d)
        assert str(closed.value) == str(symbolic.value)


class TestInequalities:
    def test_m_over_l_bound(self, corpus):
        quarter, half = F(1, 4), F(1, 2)
        for k, h in enumerate(corpus):
            for comp in component_structures(h):
                comp = ag.with_lengths(comp, ag.random_lengths(comp, 500 + k))
                lengths = comp.lengths()
                ratio = ag.m_polynomial(comp).evaluate(lengths) / ag.l_polynomial(
                    comp
                ).evaluate(lengths)
                s0 = sum(
                    (comp.class_length(c) for c in comp.classes_of_kind(EdgeKind.DISJOINT)),
                    F(0),
                )
                s1 = sum(
                    (
                        comp.class_length(c)
                        for c in comp.classes_of_kind(EdgeKind.ONE_JOINTED)
                    ),
                    F(0),
                )
                assert ratio <= s0 + quarter * s1
                if ag.graph_size(comp) <= 4:
                    assert ratio <= half * s0 + quarter * s1

    def test_epsilon_upper_bounds(self, corpus):
        # the two per-class upper bounds: 4/3 in general, 1 when all
        # components have size < 5; nonnegative polarizations only
        for k, h in enumerate(corpus):
            h2 = ag.with_lengths(h, ag.random_lengths(h, 700 + k))
            d = ag.random_polarization(h2, 700 + k, nonnegative=True)
            deg = d.degree
            if deg == 0:
                continue
            eps, _ = ag.epsilon_numeric(h2.graph, d)
            q = deg / (deg + 2)
            small = all(ag.graph_size(c) < 5 for c in component_structures(h2))
            for first in ([F(4, 3)] if not small else [F(4, 3), F(1)]):
                bound = F(0)
                for cname in h2.classes():
                    w = ag.w_weight(h2, d, cname)
                    l = h2.class_length(cname)
                    if w == 0:
                        bound += F(5, 6) * q * l
                    else:
                        bound += (first * q + w * (deg - w) / (deg + 2)) * l
                assert eps <= bound
