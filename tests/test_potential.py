"""Potential theory: resistances, measures, Green's functions, epsilon.

Closed-form expectations here were derived by hand from the five defining
properties (the SG values 13/96 and -11/96 come from solving the flux and
normalization equations by hand) and are cross-checked against the two
independent oracles in _oracles.py.
"""

import random
import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import admgraph as ag
from _oracles import (
    banded_inverse,
    dense_eliminate,
    dense_factor,
    full_inverse_cross_resistances,
    full_inverse_epsilon,
    full_inverse_factor,
    full_inverse_green_matrix,
    full_inverse_measure,
    full_inverse_resistances,
    green_values_oracle,
    one_point_sum,
    tree_resistance,
)
from admgraph import potential
from admgraph.generators import double_cover, random_cover_spec
from admgraph.potential import (
    _Weights,
    _assert_green_values,
    _band_order,
    _eliminate,
    _envelope,
    _factor,
    _green_values,
    _polarization,
    _solve,
    _solved_measure,
    _unit,
)

F = Fraction


def _scaled(xs, scale):
    """x * scale for each x; scale must be a multiple of every denominator."""
    return [x.numerator * (scale // x.denominator) for x in xs]


def sg(length=1):
    return ag.MetrizedGraph(
        ["P", "Q"], [("e1", ("P", "Q"), length), ("e2", ("P", "Q"), length)]
    )


def unit_triangle():
    return ag.MetrizedGraph(
        ["A", "B", "C"], [("a", ("A", "B"), 1), ("b", ("B", "C"), 1), ("c", ("C", "A"), 1)]
    )


def single_edge(length=1):
    return ag.MetrizedGraph(["P", "Q"], [("e", ("P", "Q"), length)])


D_PQ = ag.Divisor({"P": 1, "Q": 1})


def _reference_solve(matrix, rhs):
    """Plain rational Gaussian elimination with first-nonzero pivoting: the
    reference the fraction-free solve_linear must reproduce exactly."""
    n = len(matrix)
    a = [row[:] for row in matrix]
    b = [row[:] for row in rhs]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ag.SolverFaultError("singular linear system")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
            for c in range(len(b[r])):
                b[r][c] -= factor * b[col][c]
    for col in range(n - 1, -1, -1):
        for c in range(len(b[col])):
            acc = b[col][c] - sum(a[col][k] * b[k][c] for k in range(col + 1, n))
            b[col][c] = acc / a[col][col]
    return b


def solve_linear(matrix, rhs):
    """Solve A X = B exactly for square A; B holds one column per solve, by
    the dense integer elimination of the oracles.

    Each row of [A | B] is scaled to integers by the lcm of its
    denominators, which leaves X unchanged; the integer elimination gives
    det * X, and Fractions are built only at the end.
    """
    n = len(matrix)
    a, b = [], []
    for row in (list(ar) + list(br) for ar, br in zip(matrix, rhs)):
        ints = _scaled(row, lcm(*(x.denominator for x in row)))
        a.append(ints[:n])
        b.append(ints[n:])
    det, y = dense_eliminate(a, b)
    return [[Fraction(v, det) for v in ys] for ys in y]


# zeros are frequent, so leading entries vanish and rows get swapped; the
# last choice gives denominators up to 10^30
RATIONALS = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(F, st.integers(-(10**12), 10**12), st.integers(1, 10**30)),
)


@st.composite
def linear_systems(draw):
    n = draw(st.integers(1, 6))
    width = draw(st.integers(1, 4))
    matrix = draw(st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n))
    rhs = draw(st.lists(st.lists(RATIONALS, min_size=width, max_size=width), min_size=n, max_size=n))
    return matrix, rhs


class TestSolveLinear:
    @settings(max_examples=200, deadline=None)
    @given(linear_systems())
    def test_matches_rational_elimination(self, system):
        matrix, rhs = system
        try:
            expected = _reference_solve(matrix, rhs)
        except ag.SolverFaultError:
            with pytest.raises(ag.SolverFaultError):
                solve_linear(matrix, rhs)
            return
        assert solve_linear(matrix, rhs) == expected

    def test_zero_leading_entries_swap_rows(self):
        matrix = [[F(0), F(0), F(2)], [F(0), F(3, 7), F(1)], [F(5, 2), F(1), F(0)]]
        rhs = [[F(1), F(0)], [F(0), F(1, 10**20)], [F(-1, 3), F(4)]]
        x = solve_linear(matrix, rhs)
        assert x == _reference_solve(matrix, rhs)
        for i in range(3):
            for c in range(2):
                assert sum(matrix[i][k] * x[k][c] for k in range(3)) == rhs[i][c]

    @pytest.mark.parametrize(
        "matrix",
        [
            [[F(0)]],
            [[F(1, 2), F(1, 3)], [F(3, 2), F(1)]],
            [[F(0), F(1), F(2)], [F(0), F(3), F(4)], [F(0), F(5), F(7, 9)]],
        ],
    )
    def test_singular_raises(self, matrix):
        with pytest.raises(ag.SolverFaultError, match="singular linear system"):
            solve_linear(matrix, [[F(1)] for _ in matrix])


def _reference_green_check(g, mu, source, values):
    """The Green self-check in Fractions: slopes from the vertex values, flux
    balance at every vertex, then the integral against mu.  The integer
    checker in potential must raise exactly when this does, with the same
    message."""
    second = {e.id: mu.density_on(e.id) for e in g.edges}
    slopes = {
        e.id: (values[e.ends[1]] - values[e.ends[0]]) / e.length - second[e.id] * e.length / 2
        for e in g.edges
    }
    pot = ag.PiecewisePotential(g, source, dict(values), second, slopes)
    flux = {v: F(0) for v in g.vertices}
    for e in g.edges:
        u, w = e.ends
        flux[u] += slopes[e.id]
        flux[w] += -(second[e.id] * e.length + slopes[e.id])
    for v in g.vertices:
        if flux[v] != mu.mass_at(v) - (1 if v == source else 0):
            raise ag.SolverFaultError(f"flux balance fails at {v!r}")
    if pot.integral_against(mu) != 0:
        raise ag.SolverFaultError("integral of g against mu is nonzero")


def _integer_weights(g, fac, mu):
    """A Measure as the integer form the checker takes: masses by band
    position and the mass on each edge (density * length) over one
    denominator."""
    edge_masses = [mu.density_on(e.id) * e.length for e in g.edges]
    masses = [mu.mass_at(v) for v in fac.order]
    den = lcm(*(x.denominator for x in masses + edge_masses))
    return _Weights(
        den,
        [x.numerator * (den // x.denominator) for x in masses],
        [x.numerator * (den // x.denominator) for x in edge_masses],
    )


def _green_slices(g, d):
    """(factorization, n, integer slices) of every source from the
    library's factorization, each slice a mapping vertex -> X with
    g(source, v) = X / n."""
    fac, _, diagonal, mu, _ = _solved_measure(g, _polarization(g, d))
    n, rows, _ = _green_values(fac, mu, [_unit(fac, v) for v in fac.order], diagonal)
    return fac, n, {s: dict(zip(fac.order, row)) for s, row in zip(fac.order, rows)}


def _check_slice(fac, mu, n, source, values):
    """The library's checker on one slice g(source, .) given as a mapping."""
    _assert_green_values(fac, mu, n, [(_unit(fac, source), [values[v] for v in fac.order])])


@pytest.fixture(scope="module")
def green_cases(corpus):
    """(graph, factorization, admissible measure, n, integer slices) for
    small corpus graphs."""
    cases = []
    for k, h in enumerate(corpus):
        g = h.graph
        if len(g.edges) > 12:
            continue
        d = ag.random_polarization(h, 500 + k)
        fac, n, slices = _green_slices(g, d)
        cases.append((g, fac, ag.admissible_measure(g, d), n, slices))
    return cases


def _shifted(n, values, t):
    """(n', values') representing values / n + t."""
    return n * t.denominator, {v: x * t.denominator + t.numerator * n for v, x in values.items()}


def _assert_checks_agree(g, fac, mu, source, n, values):
    try:
        _reference_green_check(g, mu, source, {v: F(x, n) for v, x in values.items()})
    except ag.SolverFaultError as err:
        with pytest.raises(ag.SolverFaultError, match=re.escape(str(err))):
            _check_slice(fac, _integer_weights(g, fac, mu), n, source, values)
        return False
    _check_slice(fac, _integer_weights(g, fac, mu), n, source, values)
    return True


NONZERO = st.fractions(min_value=-5, max_value=5, max_denominator=50).filter(lambda t: t != 0)


class TestGreenCheck:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_integer_check_agrees_with_reference(self, green_cases, data):
        g, fac, mu, n, slices = data.draw(st.sampled_from(green_cases))
        source = data.draw(st.sampled_from(g.vertices))
        values = slices[source]
        kind = data.draw(st.sampled_from(["none", "entry", "shift", "grounded mass"]))
        if kind == "entry":
            # g(source, v) + sign/k; the grounded last vertex is drawn too
            v = data.draw(st.sampled_from(g.vertices))
            k = data.draw(st.integers(1, 10**6))
            sign = data.draw(st.sampled_from([1, -1]))
            n, values = n * k, {u: x * k for u, x in values.items()}
            values[v] += sign * n
        elif kind == "shift":
            n, values = _shifted(n, values, data.draw(NONZERO))
        elif kind == "grounded mass":
            # extra mass at the grounded vertex, the slice re-centred so its
            # integral still vanishes: only that vertex's flux can tell
            last = g.vertices[-1]
            delta = data.draw(NONZERO.filter(lambda t: t != -1))
            masses = dict(mu.vertex_masses)
            masses[last] = mu.mass_at(last) + delta
            mu = ag.Measure(masses, mu.edge_densities)
            n, values = _shifted(n, values, -delta * F(values[last], n) / (1 + delta))
        assert _assert_checks_agree(g, fac, mu, source, n, values) == (kind == "none")

    def test_each_kind_is_caught_by_its_check(self, green_cases):
        for g, fac, measure, n, slices in green_cases:
            mu = _integer_weights(g, fac, measure)
            source, last = g.vertices[0], g.vertices[-1]
            moved = dict(slices[source])
            moved[last] += 1
            with pytest.raises(ag.SolverFaultError, match="flux balance"):
                _check_slice(fac, mu, n, source, moved)
            shifted = {v: x + 1 for v, x in slices[source].items()}
            with pytest.raises(ag.SolverFaultError, match="integral"):
                _check_slice(fac, mu, n, source, shifted)
            masses = dict(measure.vertex_masses)
            masses[last] = measure.mass_at(last) + 1
            heavier = _integer_weights(g, fac, ag.Measure(masses, measure.edge_densities))
            n2, recentred = _shifted(n, slices[source], -F(slices[source][last], 2 * n))
            with pytest.raises(ag.SolverFaultError, match=re.escape(f"flux balance fails at {last!r}")):
                _check_slice(fac, heavier, n2, source, recentred)

    def test_corrupted_matrix_entry_raises(self, monkeypatch):
        h = ag.ladder_graph(6)
        g, d = h.graph, ag.random_polarization(h, 6)
        fac, _, diagonal, mu, _ = _solved_measure(g, _polarization(g, d))
        n, rows, _ = _green_values(fac, mu, [_unit(fac, v) for v in fac.order], diagonal)
        rng = random.Random(6)
        for _ in range(40):
            x, y = rng.randrange(len(rows)), rng.randrange(len(rows))
            bad = [list(row) for row in rows]
            bad[x][y] += rng.choice([-1, 1]) * rng.randint(1, n)
            monkeypatch.setattr(potential, "_green_values", lambda *args: (n, bad, []))
            with pytest.raises(ag.SolverFaultError):
                ag.green_matrix(g, d)


def _fault_cases(corpus):
    """(graph, divisor) pairs: ladders and small corpus covers."""
    cases = []
    for n in (2, 3, 6):
        h = ag.ladder_graph(n)
        cases.append((h.graph, ag.random_polarization(h, n)))
    for k, h in enumerate(corpus[:6]):
        cases.append((h.graph, ag.random_polarization(h, 700 + k)))
    return cases


def _corrupt(monkeypatch, name, which, rng, period=1):
    """Wrap potential.<name> so that its result on call number `which`
    (from 0), modulo `period`, has one entry moved by a nonzero integer.
    The Green values solve their columns in one round (retried whole when
    the shared factor does not divide one), so `period` is the number of
    columns in a round."""
    original = getattr(potential, name)
    calls = []

    def corrupted(*args):
        out = original(*args)
        calls.append(None)
        if out is not None and (len(calls) - 1) % period == which:
            out = list(out)
            out[rng.randrange(len(out))] += rng.choice([-1, 1]) * rng.randint(1, 10**6)
        return out

    monkeypatch.setattr(potential, name, corrupted)


def _corrupt_diagonal(monkeypatch, rng, anywhere=False):
    """Wrap potential._envelope so that one diagonal entry Y_vv of its
    result, or if anywhere one entry Y_ij of all it holds, is moved by a
    nonzero integer (both Y_ij and Y_ji where it stores both)."""
    original = potential._envelope

    def corrupted(el, *full):
        first, y = original(el, *full)
        i = rng.randrange(len(y))
        j = rng.randrange(first[i], first[i] + len(y[i])) if anywhere else i
        step = rng.choice([-1, 1]) * rng.randint(1, 10**6)
        y[i][j - first[i]] += step
        if j != i and first[j] <= i < first[j] + len(y[j]):
            y[j][i - first[j]] += step
        return first, y

    monkeypatch.setattr(potential, "_envelope", corrupted)


class TestFaultInjection:
    """A fault in any entry of Y that an entry point reads is caught by its
    certificate.  The column solves run in a fixed order: the flux weights
    w first, then one column per slice (epsilon: D, then the first vertex
    y0).  The diagonal is read off the envelope, and green_matrix reads
    all of Y off one back-substitution."""

    # epsilon's solves: Y w, Y a for D = a / s, and the y0 column
    @pytest.mark.parametrize("which", [0, 1, 2], ids=["flux", "divisor", "y0"])
    def test_epsilon_catches_a_corrupted_column(self, monkeypatch, corpus, which):
        rng = random.Random(which)
        for g, d in _fault_cases(corpus):
            for _ in range(5):
                with monkeypatch.context() as m:
                    _corrupt(m, "_solve", which, rng, period=3)
                    with pytest.raises(ag.SolverFaultError):
                        ag.epsilon_numeric(g, d)

    def test_epsilon_catches_a_corrupted_diagonal_entry(self, monkeypatch, corpus):
        rng = random.Random(7)
        for g, d in _fault_cases(corpus):
            for _ in range(5):
                with monkeypatch.context() as m:
                    _corrupt_diagonal(m, rng)
                    with pytest.raises((ag.ConstancyViolationError, ag.SolverFaultError)):
                        ag.epsilon_numeric(g, d)

    def test_green_catches_a_corrupted_column(self, monkeypatch, corpus):
        rng = random.Random(8)
        for g, d in _fault_cases(corpus):
            for which in range(2):
                with monkeypatch.context() as m:
                    _corrupt(m, "_solve", which, rng, period=2)
                    with pytest.raises(ag.SolverFaultError):
                        ag.green_function(g, d, rng.choice(g.vertices[:-1]))
            # green_matrix reads every entry of Y off one back-substitution
            with monkeypatch.context() as m:
                _corrupt_diagonal(m, rng, anywhere=True)
                with pytest.raises(ag.SolverFaultError):
                    ag.green_matrix(g, d)

    def test_measure_catches_a_corrupted_diagonal_entry(self, monkeypatch, corpus):
        # the canonical mass is Foster's sum over the edges' resistances, so
        # one wrong diagonal entry moves it off V - 1
        rng = random.Random(9)
        for g, d in _fault_cases(corpus):
            with monkeypatch.context() as m:
                _corrupt_diagonal(m, rng)
                with pytest.raises(ag.SolverFaultError, match="canonical measure mass"):
                    ag.admissible_measure(g, d)


def _reference_laplacian(g):
    """The weighted Laplacian (conductance 1/length) in Fractions, with the
    last vertex grounded: its row and column removed."""
    order = g.vertices
    n = len(order) - 1
    index = {v: i for i, v in enumerate(order)}
    lap = [[F(0)] * n for _ in range(n)]
    for e in g.edges:
        c = 1 / e.length
        iu, iw = index[e.ends[0]], index[e.ends[1]]
        for a, b in ((iu, iw), (iw, iu)):
            if a < n:
                lap[a][a] += c
                if b < n:
                    lap[a][b] -= c
    return lap


def _reference_grounded_solve(g, columns):
    """Vertex potentials for current injections (one mapping per column,
    summing to zero) by the per-row solve_linear, last vertex at 0."""
    order = g.vertices
    rhs = [[col.get(v, F(0)) for col in columns] for v in order[:-1]]
    x = solve_linear(_reference_laplacian(g), rhs) + [[F(0)] * len(columns)]
    return [{v: x[i][j] for i, v in enumerate(order)} for j in range(len(columns))]


def _reference_resistances(g, pairs):
    """Every pair's resistance from one solve with a column per pair."""
    potentials = _reference_grounded_solve(g, [{p: F(1), q: F(-1)} for p, q in pairs])
    return [x[p] - x[q] for x, (p, q) in zip(potentials, pairs)]


def _reference_canonical(g):
    """(vertex masses, edge densities): mass 1 - valence/2, density
    (l - R) / l^2 with R the resistance across the edge (m-column solve)."""
    masses = {v: 1 - F(g.valence(v), 2) for v in g.vertices}
    resistances = _reference_resistances(g, [e.ends for e in g.edges])
    densities = {e.id: (e.length - r) / e.length**2 for e, r in zip(g.edges, resistances)}
    return masses, densities


def _reference_admissible(g, d):
    masses, densities = _reference_canonical(g)
    scale = 1 / (d.degree + 2)
    return (
        {v: (d.coefficient(v) + 2 * m) * scale for v, m in masses.items()},
        {e: 2 * x * scale for e, x in densities.items()},
    )


def _reference_green_matrix(g, d):
    """g(s, v) from one V-column flux solve, each column shifted so that its
    integral against the admissible measure vanishes."""
    masses, densities = _reference_admissible(g, d)
    weights = dict(masses)
    const = F(0)  # the part of the integral not linear in the vertex values
    for e in g.edges:
        half = densities[e.id] * e.length / 2
        weights[e.ends[0]] += half
        weights[e.ends[1]] += half
        const -= densities[e.id] ** 2 * e.length**3 / 12
    columns = [{v: (1 if v == s else 0) - w for v, w in weights.items()} for s in g.vertices]
    out = {}
    for s, f in zip(g.vertices, _reference_grounded_solve(g, columns)):
        shift = -const - sum(weights[v] * f[v] for v in g.vertices)
        out[s] = {v: f[v] + shift for v in g.vertices}
    return out


def _reference_epsilon(g, d):
    values = _reference_green_matrix(g, d)
    coeffs = d.coefficients
    (c,) = {sum(b * values[x][y] for x, b in coeffs.items()) + values[y][y] for y in g.vertices}
    g_d_d = sum(b * b2 * values[x][y] for x, b in coeffs.items() for y, b2 in coeffs.items())
    return 2 * d.degree * c - g_d_d, c


# small lengths, long numerators over short denominators, and the reverse
LENGTHS = st.one_of(
    st.fractions(min_value=F(1, 12), max_value=9, max_denominator=12),
    st.builds(F, st.integers(1, 10**40), st.integers(1, 10**6)),
    st.builds(F, st.integers(1, 10**6), st.integers(1, 10**40)),
)


@pytest.fixture(scope="module")
def small_graphs(corpus):
    return [h for h in corpus if len(h.graph.edges) <= 12]


class TestFactorization:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_reference_route(self, small_graphs, data):
        h = data.draw(st.sampled_from(small_graphs))
        g = ag.MetrizedGraph(
            h.graph.vertices, [(e.id, e.ends, data.draw(LENGTHS)) for e in h.graph.edges]
        )
        d = ag.random_polarization(h, data.draw(st.integers(0, 10**6)))
        pairs = [e.ends for e in g.edges]
        assert [ag.effective_resistance(g, p, q) for p, q in pairs] == _reference_resistances(
            g, pairs
        )
        can = ag.canonical_measure(g)
        assert (can.vertex_masses, can.edge_densities) == _reference_canonical(g)
        adm = ag.admissible_measure(g, d)
        assert (adm.vertex_masses, adm.edge_densities) == _reference_admissible(g, d)
        green = _reference_green_matrix(g, d)
        assert ag.green_matrix(g, d) == green
        source = data.draw(st.sampled_from(g.vertices))
        assert ag.green_function(g, d, source).vertex_values == green[source]
        assert ag.epsilon_numeric(g, d) == _reference_epsilon(g, d)

    def test_one_elimination_per_call(self, monkeypatch):
        h = ag.ladder_graph(3)
        g, d = h.graph, ag.random_polarization(h, 3)
        e = g.edges[0]
        rows = []
        eliminate = potential._eliminate

        def counted(a):
            rows.append(len(a))
            return eliminate(a)

        monkeypatch.setattr(potential, "_eliminate", counted)
        calls = [
            lambda: ag.epsilon_numeric(g, d),
            lambda: ag.green_function(g, d, g.vertices[0]),
            lambda: ag.green_matrix(g, d),
            lambda: ag.admissible_measure(g, d),
            lambda: ag.canonical_measure(g),
            lambda: ag.effective_resistance(g, *e.ends),
            lambda: ag.cross_resistance(g, e.id),
        ]
        for call in calls:
            rows.clear()
            call()
            assert rows == [len(g.vertices) - 1]


# small lengths, and two 800-digit integers and their reciprocals: K mixes
# entries of very different sizes
LONG = [int("9" * 800), int("7" * 800)]
BAND_LENGTHS = st.one_of(
    st.fractions(min_value=F(1, 12), max_value=9, max_denominator=12),
    st.sampled_from([F(x) for x in LONG] + [F(1, x) for x in LONG]),
)


@st.composite
def spd_matrices(draw):
    """A = M^T M + I for a sparse integer M."""
    n = draw(st.integers(1, 7))
    entries = st.one_of(st.just(0), st.just(0), st.integers(-9, 9), st.integers(-(10**30), 10**30))
    m = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return [[sum(m[k][i] * m[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]


def _assert_resistances_match_dense(g, pairs, edges):
    """effective_resistance on the pairs and cross_resistance on the edges
    equal S (Y_pp + Y_qq - 2 Y_pq) / det read off dense_factor."""
    scale, det, y = dense_factor(g)
    index = {v: i for i, v in enumerate(g.vertices)}

    def dense(p, q):
        i, j = index[p], index[q]
        return F(scale * (y[i][i] + y[j][j] - 2 * y[i][j]), det)

    for p, q in pairs:
        assert ag.effective_resistance(g, p, q) == dense(p, q), (p, q)
    for e in edges:
        across = dense(*e.ends)
        expected = ag.INFINITY if across == e.length else e.length * across / (e.length - across)
        assert ag.cross_resistance(g, e.id) == expected, e.id


def _assert_reads_match_dense(g, charges):
    """det, every envelope entry of Y = det K^-1 and the column Y b for
    each charge vector b (in the graph's vertex order) equal the dense
    elimination's."""
    scale, det, y = dense_factor(g)
    fac = _factor(g)
    assert (fac.scale, fac.det) == (scale, det)
    assert fac.index == {v: i for i, v in enumerate(fac.order)}
    first, env = _envelope(fac.elim)
    vertex = [g.vertices.index(v) for v in fac.order]  # band position -> vertex index
    for i, hi in enumerate(fac.elim.hi):
        for j in range(first[i], hi + 1):
            assert env[i][j - first[i]] == y[vertex[i]][vertex[j]], (i, j)
    for b in charges:
        band = [b[k] for k in vertex]
        assert _solve(fac.elim, band) == [sum(map(mul, y[k], b)) for k in vertex]


def _assert_matrix_reads_match_dense(a, columns):
    """_eliminate's det, envelope and solves against dense_eliminate."""
    n = len(a)
    det, y = dense_eliminate(a, [[int(i == j) for j in range(n)] for i in range(n)])
    el = _eliminate(a)
    assert el.pivots[-1] == det
    first, env = _envelope(el)
    for i, hi in enumerate(el.hi):
        assert env[i] == y[i][first[i] : hi + 1]
    for b in columns:
        # b's grounded entry, one past a's rows, is not read: Y b is 0 there
        yb = [sum(map(mul, row, b)) for row in y] + [0]
        grounded = b + [sum(b) + 5]
        assert _solve(el, grounded) == yb
        # divided by a divisor f of det where f divides Y b, else None
        for f in {gcd(det, 6), gcd(det, sum(b) + 7), det}:
            divided = [x // f for x in yb] if all(x % f == 0 for x in yb) else None
            assert _solve(el, grounded, f) == divided, f


CHARGES = st.integers(-(10**6), 10**6)


class TestBandedElimination:
    """The library eliminates inside the band of the reordered Laplacian
    and reads the envelope of Y and columns Y b from it; the dense
    elimination in the graph's own order is the reference."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_factor_matches_dense_elimination(self, small_graphs, data):
        if data.draw(st.booleans()):
            g = data.draw(st.sampled_from(small_graphs)).graph
        else:
            spec = random_cover_spec(data.draw(st.integers(0, 10**6)), max_vertices=6)
            g = double_cover(spec).graph
        g = ag.MetrizedGraph(
            g.vertices, [(e.id, e.ends, data.draw(BAND_LENGTHS)) for e in g.edges]
        )
        size = len(g.vertices)
        charges = data.draw(
            st.lists(st.lists(CHARGES, min_size=size, max_size=size), min_size=1, max_size=3)
        )
        units = [[int(i == j) for j in range(size)] for i in range(size)]
        _assert_reads_match_dense(g, charges + units)
        vertex = st.sampled_from(g.vertices)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3))
        edges = data.draw(st.lists(st.sampled_from(g.edges), min_size=1, max_size=3))
        _assert_resistances_match_dense(g, pairs, edges)

    def test_ladders_match_dense_elimination(self):
        rng = random.Random(30)
        for n in range(2, 31):
            g = ag.ladder_graph(n).graph
            size = len(g.vertices)
            charges = [[rng.randint(-9, 9) for _ in range(size)], [int(i == n) for i in range(size)]]
            _assert_reads_match_dense(g, charges)
            pairs = [g.edges[0].ends, (g.vertices[1], g.vertices[-2])]
            _assert_resistances_match_dense(g, pairs, g.edges[:2])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_positive_definite_matches_dense_elimination(self, data):
        a = data.draw(spd_matrices())
        n = len(a)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert banded_inverse(a) == dense_eliminate(a, identity)
        columns = data.draw(st.lists(st.lists(CHARGES, min_size=n, max_size=n), max_size=3))
        _assert_matrix_reads_match_dense(a, columns + identity)

    def test_ladder_bandwidth_is_three(self):
        g = ag.ladder_graph(100).graph
        place = {v: i for i, v in enumerate(_band_order(g))}
        ground = g.vertices[-1]
        assert place[ground] == len(g.vertices) - 1
        ends = [e.ends for e in g.edges if ground not in e.ends]
        assert max(abs(place[u] - place[w]) for u, w in ends) == 3

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0]],
            [[-2]],
            [[0, 1], [1, 0]],
            [[1, 1], [1, 1]],
            [[1, 2], [2, 1]],
            [[2, -1, 0], [-1, 2, -1], [0, -1, -5]],
            [[3, 0, 1], [0, 0, 0], [1, 0, 3]],
        ],
    )
    def test_nonpositive_pivot_raises(self, matrix):
        with pytest.raises(ag.SolverFaultError, match="nonpositive pivot"):
            _eliminate(matrix)


def _assert_matches_full_inverse(g, d, sources, edges=3, matrix=True):
    """Every public solver entry point equals the full-inverse route; the
    resistances on the first `edges` edges and two other pairs."""
    fac = full_inverse_factor(g)
    vertex = g.vertices
    pairs = [(vertex[0], vertex[-1]), (vertex[-1], vertex[len(vertex) // 2])]
    pairs += [e.ends for e in g.edges[:edges]]
    assert [ag.effective_resistance(g, p, q) for p, q in pairs] == full_inverse_resistances(
        g, fac, pairs
    )
    cross = full_inverse_cross_resistances(g, fac)
    for e in g.edges[:edges]:
        expected = cross[e.id]
        assert ag.cross_resistance(g, e.id) == (ag.INFINITY if expected is None else expected)
    can = ag.canonical_measure(g)
    assert (can.vertex_masses, can.edge_densities) == full_inverse_measure(g, fac)
    adm = ag.admissible_measure(g, d)
    assert (adm.vertex_masses, adm.edge_densities) == full_inverse_measure(g, fac, d)
    assert ag.epsilon_numeric(g, d) == full_inverse_epsilon(g, fac, d)
    if not matrix:
        return
    values = full_inverse_green_matrix(g, fac, d)
    assert ag.green_matrix(g, d) == values
    for source in sources:
        pot = ag.green_function(g, d, source)
        assert pot.vertex_values == values[source]
        assert pot.second_derivatives == adm.edge_densities
        assert pot.slopes_at_start == {
            e.id: (values[source][e.ends[1]] - values[source][e.ends[0]]) / e.length
            - adm.edge_densities[e.id] * e.length / 2
            for e in g.edges
        }


def _assert_every_slice_certified(g, d):
    """The certificate epsilon_numeric ran before it read two slices: flux
    and the integral on every slice g(x, .), the matrix exactly symmetric,
    and g(D, y) + g(y, y) the same at every vertex, equal to its c."""
    s, _ = pol = _polarization(g, d)
    fac, a, diagonal, mu, _ = _solved_measure(g, pol)
    charges = [_unit(fac, v) for v in fac.order]
    n, rows, _ = _green_values(fac, mu, charges, diagonal)
    _assert_green_values(fac, mu, n, zip(charges, rows))
    assert all(row[j] == other[i] for i, row in enumerate(rows) for j, other in enumerate(rows))
    (c,) = {sum(map(mul, a, column)) + s * column[i] for i, column in enumerate(rows)}
    assert F(c, s * n) == ag.epsilon_numeric(g, d)[1]


# small lengths, 800-digit integers and their reciprocals
ALL_LENGTHS = st.one_of(LENGTHS, BAND_LENGTHS)


class TestFullInverseRoute:
    """Each entry point reads only the entries of Y it needs; the full
    inverse, every quantity read off all of Y, is the reference."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_covers_match_full_inverse(self, small_graphs, data):
        h = data.draw(st.sampled_from(small_graphs))
        g = ag.MetrizedGraph(
            h.graph.vertices, [(e.id, e.ends, data.draw(ALL_LENGTHS)) for e in h.graph.edges]
        )
        d = ag.random_polarization(h, data.draw(st.integers(0, 10**6)))
        sources = data.draw(st.lists(st.sampled_from(g.vertices), min_size=1, max_size=2))
        _assert_matches_full_inverse(g, d, sources)
        _assert_every_slice_certified(g, d)

    def test_corpus_matches_full_inverse(self, corpus):
        for k, h in enumerate(corpus):
            g = h.graph
            d = ag.random_polarization(h, 900 + k)
            _assert_matches_full_inverse(g, d, [g.vertices[k % len(g.vertices)]], len(g.edges))
            _assert_every_slice_certified(g, d)

    def test_ladders_match_full_inverse(self):
        for n in range(2, 61):
            h = ag.ladder_graph(n)
            g, d = h.graph, ag.random_polarization(h, n)
            _assert_matches_full_inverse(g, d, [g.vertices[n]], matrix=n % 10 == 2)
            _assert_every_slice_certified(g, d)

    def test_public_dicts_follow_the_graph_order(self, small_graphs):
        """The solver works in band positions; every dict an entry point
        returns is keyed in the graph's vertex and edge order."""
        reordered = 0
        for k, h in enumerate(small_graphs):
            g = h.graph
            reordered += _band_order(g) != list(g.vertices)
            d = ag.random_polarization(h, 1100 + k)
            vertices, edges = list(g.vertices), list(g.edge_ids())
            for mu in (ag.canonical_measure(g), ag.admissible_measure(g, d)):
                assert (list(mu.vertex_masses), list(mu.edge_densities)) == (vertices, edges)
            pot = ag.green_function(g, d, g.vertices[k % len(g.vertices)])
            assert list(pot.vertex_values) == vertices
            assert list(pot.second_derivatives) == list(pot.slopes_at_start) == edges
            matrix = ag.green_matrix(g, d)
            assert list(matrix) == vertices
            assert all(list(row) == vertices for row in matrix.values())
        assert reordered >= len(small_graphs) // 2, (reordered, len(small_graphs))


class TestResistance:
    def test_sg_parallel_law(self):
        assert ag.effective_resistance(sg(), "P", "Q") == F(1, 2)

    def test_same_vertex_is_zero(self):
        assert ag.effective_resistance(unit_triangle(), "A", "A") == 0

    def test_unit_triangle(self):
        g = unit_triangle()
        for p, q in [("A", "B"), ("B", "C"), ("A", "C")]:
            assert ag.effective_resistance(g, p, q) == F(2, 3)

    def test_series_law(self):
        path = ag.MetrizedGraph(
            ["P", "Q", "R"], [("e1", ("P", "Q"), F(3, 2)), ("e2", ("Q", "R"), F(1, 3))]
        )
        assert ag.effective_resistance(path, "P", "R") == F(3, 2) + F(1, 3)

    def test_parallel_law_general(self):
        g = ag.MetrizedGraph(["P", "Q"], [("e1", ("P", "Q"), 2), ("e2", ("P", "Q"), 3)])
        assert ag.effective_resistance(g, "P", "Q") == F(6, 5)

    def test_disconnected_rejected(self):
        g = ag.MetrizedGraph(["P", "Q", "R"], [("e", ("P", "Q"), 1)])
        with pytest.raises(ag.DisconnectedGraphError):
            ag.effective_resistance(g, "P", "R")

    def test_matches_spanning_tree_oracle(self, corpus):
        for h in corpus[:12]:
            g = h.graph
            if len(g.edges) > 12:
                continue
            rng = random.Random(str(g.vertices))
            pairs = [(rng.choice(g.vertices), rng.choice(g.vertices)) for _ in range(3)]
            for p, q in pairs:
                assert ag.effective_resistance(g, p, q) == tree_resistance(g, p, q)


class TestCrossResistance:
    def test_sg_other_edge(self):
        assert ag.cross_resistance(sg(), "e1") == 1

    def test_bridge_is_infinite(self):
        assert ag.cross_resistance(single_edge(), "e") is ag.INFINITY

    def test_unit_triangle_series(self):
        assert ag.cross_resistance(unit_triangle(), "a") == 2

    def test_matches_spanning_tree_oracle(self, corpus):
        # a triangle with a pendant edge, so that a bridge occurs
        pendant = ag.MetrizedGraph(
            ["A", "B", "C", "D"],
            [
                ("a", ("A", "B"), 1),
                ("b", ("B", "C"), F(1, 2)),
                ("c", ("C", "A"), 3),
                ("d", ("C", "D"), F(2, 3)),
            ],
        )
        graphs = [h.graph for h in corpus if len(h.graph.edges) <= 12] + [pendant]
        bridges = 0
        for g in graphs:
            mu = ag.canonical_measure(g)
            for e in g.edges:
                rest = ag.MetrizedGraph(g.vertices, [x for x in g.edges if x.id != e.id])
                r = ag.cross_resistance(g, e.id)
                if not rest.is_connected():
                    bridges += 1
                    assert r is ag.INFINITY
                    assert mu.density_on(e.id) == 0
                else:
                    assert r == tree_resistance(rest, *e.ends)
                    assert mu.density_on(e.id) == 1 / (e.length + r)
        assert bridges == 1


class TestCanonicalMeasure:
    def test_unit_triangle(self):
        mu = ag.canonical_measure(unit_triangle())
        assert all(m == 0 for m in mu.vertex_masses.values())
        assert all(d == F(1, 3) for d in mu.edge_densities.values())
        assert mu.total_mass(unit_triangle()) == 1

    def test_single_edge_tree(self):
        mu = ag.canonical_measure(single_edge())
        assert mu.vertex_masses == {"P": F(1, 2), "Q": F(1, 2)}
        assert mu.density_on("e") == 0

    def test_sg(self):
        mu = ag.canonical_measure(sg())
        assert all(m == 0 for m in mu.vertex_masses.values())
        assert all(d == F(1, 2) for d in mu.edge_densities.values())

    def test_total_mass_one_on_corpus(self, corpus):
        for h in corpus:
            mu = ag.canonical_measure(h.graph)
            assert mu.total_mass(h.graph) == 1


class TestAdmissibleMeasure:
    def test_zero_divisor_gives_canonical(self):
        g = unit_triangle()
        assert ag.admissible_measure(g, ag.Divisor({})) == ag.canonical_measure(g)

    def test_sg_with_p_plus_q(self):
        mu = ag.admissible_measure(sg(), D_PQ)
        assert mu.vertex_masses == {"P": F(1, 4), "Q": F(1, 4)}
        assert mu.density_on("e1") == F(1, 4)
        assert mu.total_mass(sg()) == 1

    def test_single_edge_with_p_plus_q(self):
        mu = ag.admissible_measure(single_edge(), D_PQ)
        assert mu.vertex_masses == {"P": F(1, 2), "Q": F(1, 2)}
        assert mu.density_on("e") == 0

    def test_degree_minus_two_rejected(self):
        with pytest.raises(ag.DegreeMinusTwoError):
            ag.admissible_measure(sg(), ag.Divisor({"P": -2}))

    def test_total_mass_one_on_corpus(self, corpus):
        for h in corpus:
            d = ag.random_polarization(h, 5)
            mu = ag.admissible_measure(h.graph, d)
            assert mu.total_mass(h.graph) == 1


def _fraction_sum(mu, g):
    """The total mass as the Fractions' own sum, one term at a time."""
    total = sum(mu.vertex_masses.values(), F(0))
    for e in g.edges:
        total += mu.density_on(e.id) * e.length
    return total


class TestTotalMass:
    def test_corpus_measures(self, corpus):
        for k, h in enumerate(corpus):
            g = h.graph
            d = ag.random_polarization(h, 1200 + k)
            for mu in (ag.canonical_measure(g), ag.admissible_measure(g, d)):
                assert mu.total_mass(g) == _fraction_sum(mu, g) == 1

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_the_fraction_sum(self, small_graphs, data):
        """Zero densities and masses, edges without a density, ids the
        graph lacks, negative values and long denominators."""
        g = data.draw(st.sampled_from(small_graphs)).graph
        g = ag.MetrizedGraph(
            g.vertices, [(e.id, e.ends, data.draw(ALL_LENGTHS)) for e in g.edges]
        )
        values = st.one_of(st.just(F(0)), ALL_LENGTHS, ALL_LENGTHS.map(lambda x: -x))
        masses = data.draw(st.dictionaries(st.sampled_from(g.vertices + ("elsewhere",)), values))
        densities = data.draw(st.dictionaries(st.sampled_from(g.edge_ids() + ("nowhere",)), values))
        mu = ag.Measure(masses, densities)
        total = mu.total_mass(g)
        assert type(total) is F and total == _fraction_sum(mu, g)


class TestGreenFunction:
    def test_sg_hand_solved_values(self):
        pot = ag.green_function(sg(), D_PQ, "P")
        assert pot.value_at_vertex("P") == F(13, 96)
        assert pot.value_at_vertex("Q") == F(-11, 96)

    def test_single_edge_hand_solved_values(self):
        pot = ag.green_function(single_edge(), D_PQ, "P")
        assert pot.value_at_vertex("P") == F(1, 4)
        assert pot.value_at_vertex("Q") == F(-1, 4)

    def test_symmetry_on_sg(self):
        assert ag.green_pairing(sg(), D_PQ, "P", "Q") == ag.green_pairing(sg(), D_PQ, "Q", "P")

    def test_interior_evaluation_continuous(self):
        pot = ag.green_function(sg(), D_PQ, "P")
        e = sg().edge("e1")
        assert pot.value_on_edge("e1", F(0)) == pot.value_at_vertex("P")
        assert pot.value_on_edge("e1", e.length) == pot.value_at_vertex("Q")
        with pytest.raises(ag.ArcLengthRangeError) as err:
            pot.value_on_edge("e1", e.length + 1)
        assert err.value.code == "arc-length-range"

    def test_interior_evaluation_matches_subdivision(self):
        # interior values are honest: subdividing at the point and reading
        # the new vertex gives the same rational number
        pot = ag.green_function(sg(), D_PQ, "P")
        fine = ag.subdivide_edge(sg(), "e1", F(1, 3))
        assert pot.value_on_edge("e1", F(1, 3)) == ag.green_pairing(fine, D_PQ, "P", "e1.m")

    def test_canonical_divisor_degree(self, corpus):
        for h in corpus[:8]:
            g = h.graph
            k = ag.Divisor({v: g.valence(v) - 2 for v in g.vertices})
            assert k.degree == 2 * (len(g.edges) - len(g.vertices) + 1) - 2

    def test_matches_independent_oracle(self, corpus):
        for k, h in enumerate(corpus[:10]):
            g = h.graph
            d = ag.random_polarization(h, k)
            mu = ag.admissible_measure(g, d)
            source = g.vertices[k % len(g.vertices)]
            expected = green_values_oracle(
                g, mu.vertex_masses, mu.edge_densities, source
            )
            pot = ag.green_function(g, d, source)
            for v in g.vertices:
                assert pot.value_at_vertex(v) == expected[v]

    def test_integral_against_measure_is_zero(self, corpus):
        for k, h in enumerate(corpus[:10]):
            d = ag.random_polarization(h, 100 + k)
            mu = ag.admissible_measure(h.graph, d)
            pot = ag.green_function(h.graph, d, h.graph.vertices[0])
            assert pot.integral_against(mu) == 0

    def test_green_matrix_symmetric(self, corpus):
        for k, h in enumerate(corpus[:10]):
            d = ag.random_polarization(h, 200 + k)
            values = ag.green_matrix(h.graph, d)
            for x in h.graph.vertices:
                for y in h.graph.vertices:
                    assert values[x][y] == values[y][x]


class TestEpsilonNumeric:
    def test_sg_pinned_values(self):
        eps, c = ag.epsilon_numeric(sg(), D_PQ)
        assert (eps, c) == (F(7, 12), F(5, 32))

    def test_single_unit_edge(self):
        eps, _ = ag.epsilon_numeric(single_edge(), D_PQ)
        assert eps == 1

    def test_single_edge_hand_formula(self):
        # eps = l (2 d (a+1)(b+1) - (a-b)^2) / (d+2)^2 on one edge
        for a, b, l in [(2, 1, F(3, 2)), (0, 3, F(1, 3)), (-1, 2, 2)]:
            d = a + b
            g = single_edge(l)
            eps, _ = ag.epsilon_numeric(g, ag.Divisor({"P": a, "Q": b}))
            assert eps == l * (2 * d * (a + 1) * (b + 1) - (a - b) ** 2) / F((d + 2) ** 2)

    def test_degree_minus_two_rejected(self):
        with pytest.raises(ag.DegreeMinusTwoError):
            ag.epsilon_numeric(sg(), ag.Divisor({"P": -2}))

    def test_additivity_over_one_point_sums(self):
        for seed in range(6):
            h1 = ag.random_hyperelliptic(seed, max_size=3)
            base = ag.random_hyperelliptic(seed + 40, max_size=3)
            g2 = ag.MetrizedGraph(
                [f"B.{v}" for v in base.graph.vertices],
                [
                    (f"B.{e.id}", (f"B.{e.ends[0]}", f"B.{e.ends[1]}"), e.length)
                    for e in base.graph.edges
                ],
            )
            v1 = sorted(h1.fixed_vertices)[0]
            v2 = f"B.{sorted(base.fixed_vertices)[0]}"
            joined = one_point_sum(h1.graph, v1, g2, v2)
            coeffs = dict(ag.random_polarization(h1, seed).coefficients)
            for v, c in ag.random_polarization(base, seed + 40).coefficients.items():
                target = v1 if f"B.{v}" == v2 else f"B.{v}"
                coeffs[target] = coeffs.get(target, F(0)) + c
            d = ag.Divisor(coeffs)
            if d.degree == -2:
                continue
            total, _ = ag.epsilon_numeric(joined, d)
            parts = F(0)
            for piece in (h1.graph, g2):
                others = set(joined.edge_ids()) - set(piece.edge_ids())
                restricted, vmap = ag.contract(joined, others)
                clean = ag.MetrizedGraph(restricted.vertices, restricted.edges)
                eps, _ = ag.epsilon_numeric(clean, ag.push_divisor(d, vmap))
                parts += eps
            assert total == parts


class TestSubdivisionInvariance:
    def subdivide_all(self, g, t_num=1, t_den=3):
        out = g
        for eid in list(g.edge_ids()):
            out = ag.subdivide_edge(out, eid, out.edge(eid).length * t_num / t_den)
        return out

    def test_resistance_green_c_epsilon_unchanged(self, corpus):
        for k, h in enumerate(corpus[:8]):
            g = h.graph
            d = ag.random_polarization(h, 300 + k)
            fine = self.subdivide_all(g)
            p, q = g.vertices[0], g.vertices[-1]
            assert ag.effective_resistance(g, p, q) == ag.effective_resistance(fine, p, q)
            assert ag.green_pairing(g, d, p, q) == ag.green_pairing(fine, d, p, q)
            assert ag.epsilon_numeric(g, d) == ag.epsilon_numeric(fine, d)


class TestContractionLimit:
    def test_epsilon_converges_to_contraction(self):
        h = ag.elementary_graph(2)
        d = ag.Divisor({"Q+": 1, "Q-": 1, "P1": 2})
        target_class = "e1+"
        contracted, inv2, vmap = ag.contract_classes(h, [target_class])
        eps_limit, _ = ag.epsilon_numeric(
            ag.MetrizedGraph(contracted.vertices, contracted.edges), ag.push_divisor(d, vmap)
        )
        gaps = []
        for k in range(1, 5):
            short = ag.with_lengths(h, {"e1+": F(1, 10**k), "e2+": 1, "e3+": 1})
            eps, _ = ag.epsilon_numeric(short.graph, d)
            gaps.append(abs(eps - eps_limit))
        assert all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
        assert gaps[-1] < F(1, 1000)
