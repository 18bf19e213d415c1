"""Graph model: construction, validation, contraction; the one-point-sum and
block oracles kept next to the tests."""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
import admgraph as ag
from _oracles import _components_without, irreducible_decomposition, one_point_sum
from admgraph.graph import _subdivide, _walk


def sg_graph(length=1):
    return ag.MetrizedGraph(["P", "Q"], [("e1", ("P", "Q"), length), ("e2", ("P", "Q"), length)])


def triangle():
    return ag.MetrizedGraph(
        ["A", "B", "C"], [("a", ("A", "B"), 3), ("b", ("B", "C"), 1), ("c", ("C", "A"), 1)]
    )


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ag.InvalidGraphError):
            ag.MetrizedGraph(["v"], [("l", ("v", "v"), 1)])

    def test_loop_marker_allowed_when_asked(self):
        g = ag.MetrizedGraph(["v"], [("l", ("v", "v"), 1)], allow_loops=True)
        assert g.loops()[0].id == "l"

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ag.UnknownIdError):
            ag.MetrizedGraph(["P"], [("e", ("P", "Z"), 1)])

    def test_rejects_duplicate_edge_ids(self):
        with pytest.raises(ag.InvalidGraphError):
            ag.MetrizedGraph(["P", "Q"], [("e", ("P", "Q"), 1), ("e", ("P", "Q"), 2)])

    def test_rejects_float_lengths(self):
        with pytest.raises(TypeError):
            ag.MetrizedGraph(["P", "Q"], [("e", ("P", "Q"), 0.5)])

    def test_rational_strings_accepted(self):
        g = ag.MetrizedGraph(["P", "Q"], [("e", ("P", "Q"), "3/2")])
        assert g.edge("e").length == Fraction(3, 2)


class TestValidate:
    def test_sg_valid(self):
        assert ag.validate_graph(sg_graph()).valid

    def test_one_point_graph_valid(self):
        assert ag.validate_graph(ag.MetrizedGraph(["v"], [])).valid

    def test_zero_length_reported(self):
        g = ag.MetrizedGraph(["P", "Q"], [("e", ("P", "Q"), 0)])
        report = ag.validate_graph(g)
        assert not report.valid
        assert "nonpositive length" in report.problems[0]

    def test_disconnected_reported(self):
        g = ag.MetrizedGraph(["P", "Q", "R"], [("e", ("P", "Q"), 1)])
        report = ag.validate_graph(g)
        assert not report.valid
        assert any("not connected" in p for p in report.problems)

    @pytest.mark.parametrize(
        "vertices, edges, error, message",
        [
            # an edge id that reads like the connectivity problem is still a length problem
            (["P", "Q"], [("not connected", ("P", "Q"), 0)], ag.InvalidGraphError,
             "edge 'not connected': nonpositive length 0"),
            (["P", "Q", "R"], [("e", ("P", "Q"), -1)], ag.InvalidGraphError,
             "edge 'e': nonpositive length -1"),
            (["P", "Q"], [("e", ("P", "Q"), 1), ("l", ("Q", "Q"), 0)], ag.InvalidGraphError,
             "edge 'l': nonpositive length 0"),
            (["P", "Q"], [("l", ("Q", "Q"), 1), ("e", ("P", "Q"), 0)], ag.InvalidGraphError,
             "edge 'l': self-loop at 'Q'"),
            (["P", "Q", "R"], [("e", ("P", "Q"), 1)], ag.DisconnectedGraphError,
             "graph is not connected"),
        ],
    )
    def test_require_analytic_raises_the_first_reported_problem(
        self, vertices, edges, error, message
    ):
        g = ag.MetrizedGraph(vertices, edges, allow_loops=True)
        assert ag.validate_graph(g).problems[0] == message
        with pytest.raises(ag.AdmGraphError) as err:
            g.require_analytic()
        assert type(err.value) is error and str(err.value) == message


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the exception itself is the outcome compared
        return "raised", (type(exc), str(exc))


# (edge with a nonpositive length, where a loop is listed, disconnected)
_COMBINATIONS = [
    (nonpositive, loop, disconnected)
    for nonpositive in (None, "e", "l", "f")
    for loop in (None, "first", "second")
    for disconnected in (False, True)
    if loop or nonpositive != "l"
]


@pytest.mark.parametrize("nonpositive, loop, disconnected", _COMBINATIONS)
def test_require_analytic_on_every_combination(nonpositive, loop, disconnected):
    """Each combination of a nonpositive length (on a plain edge, on the
    loop or on a later edge), a loop listed first or second, and a second
    component raises what the whole report gave: its first problem, as
    InvalidGraphError if an edge has one, else as DisconnectedGraphError."""
    lengths = {"e": 1, "l": 1, "f": 2}
    if nonpositive:
        lengths[nonpositive] = Fraction(-1, 3) if nonpositive == "f" else 0
    edges = [("e", ("P", "Q")), ("f", ("Q", "R"))]
    if loop:
        edges.insert(0 if loop == "first" else 1, ("l", ("Q", "Q")))
    vertices = ["P", "Q", "R"] + ["S"] * disconnected
    g = ag.MetrizedGraph(vertices, [(i, ends, lengths[i]) for i, ends in edges], allow_loops=True)
    assert list(ag.validate_graph(g).problems) == _oracles.graph_problems(g)
    expected = _outcome(_oracles.require_analytic, g)
    assert _outcome(g.require_analytic) == expected
    assert (expected[0] == "ok") == (not nonpositive and not loop and not disconnected)


class TestWalk:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7), st.data())
    def test_a_depth_first_tree_of_the_oracle_component(self, n, data):
        ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs = data.draw(st.lists(ends, max_size=10))
        g = ag.MetrizedGraph(
            [f"v{i}" for i in range(n)],
            [(f"e{k}", (f"v{i}", f"v{j}"), 1) for k, (i, j) in enumerate(pairs)],
            allow_loops=True,
        )
        root = data.draw(st.sampled_from(g.vertices))
        order, up = _walk(g, root)
        component = next(c for c in _components_without(g, ()) if root in c)
        # each vertex of root's component once, root first, every other
        # after its parent and joined to it by its tree edge
        assert len(order) == len(set(order)) and set(order) == component
        assert order[0] == root and set(up) == component - {root}
        position = {v: k for k, v in enumerate(order)}
        for v, (parent, eid) in up.items():
            assert position[parent] < position[v]
            assert set(g.edge(eid).ends) == {v, parent}

        def ancestors(v):
            out = {v}
            while v != root:
                v = up[v][0]
                out.add(v)
            return out

        tree = {eid for _, eid in up.values()}
        for e in g.edges:
            u, w = e.ends
            if e.id not in tree and u in component:
                assert u in ancestors(w) or w in ancestors(u), e.id
        assert g.is_connected() == (len(_components_without(g, ())) == 1)


class TestContract:
    def test_triangle_single_edge(self):
        g2, vmap = ag.contract(triangle(), ["a"])
        assert set(g2.vertices) == {"A", "C"}
        assert vmap == {"A": "A", "B": "A", "C": "C"}
        assert sorted(g2.edge_ids()) == ["b", "c"]
        assert g2.edge("b").length == 1

    def test_empty_contraction_is_identity(self):
        g = triangle()
        g2, vmap = ag.contract(g, [])
        assert g2 == g
        assert vmap == {v: v for v in g.vertices}

    def test_sg_contraction_leaves_loop_marker(self):
        g2, _ = ag.contract(sg_graph(), ["e1"])
        assert len(g2.vertices) == 1
        assert [e.id for e in g2.loops()] == ["e2"]

    def test_unknown_edge(self):
        with pytest.raises(ag.UnknownIdError):
            ag.contract(triangle(), ["nope"])


class TestPushDivisor:
    def test_merge_adds_coefficients(self):
        g2, vmap = ag.contract(sg_graph(), ["e1"])
        d = ag.push_divisor(ag.Divisor({"P": 1, "Q": 1}), vmap)
        assert d == ag.Divisor({"P": 2})

    def test_zero_divisor(self):
        _, vmap = ag.contract(triangle(), ["a"])
        assert ag.push_divisor(ag.Divisor({}), vmap) == ag.Divisor({})

    def test_degree_preserved_with_negative_parts(self):
        g2, vmap = ag.contract(triangle(), ["b"])  # merges B and C
        d = ag.Divisor({"A": 2, "B": -1})
        pushed = ag.push_divisor(d, vmap)
        assert pushed.degree == d.degree == 1
        assert pushed.coefficient("B") == -1

    def test_vertex_outside_domain(self):
        with pytest.raises(ag.UnknownIdError):
            ag.push_divisor(ag.Divisor({"Z": 1}), {"P": "P"})


class TestOnePointSum:
    def test_sg_wedge_sg(self):
        other = ag.MetrizedGraph(["Q", "R"], [("f1", ("Q", "R"), 1), ("f2", ("Q", "R"), 1)])
        joined = one_point_sum(sg_graph(), "Q", other, "Q")
        assert len(joined.vertices) == 3
        assert len(joined.edges) == 4

    def test_wedge_with_point_is_identity(self):
        g = triangle()
        point = ag.MetrizedGraph(["z"], [])
        assert one_point_sum(g, "A", point, "z") == g

    def test_triangle_wedge_edge(self):
        extra = ag.MetrizedGraph(["X", "Y"], [("x", ("X", "Y"), 2)])
        joined = one_point_sum(triangle(), "A", extra, "X")
        assert len(joined.vertices) == 4
        assert len(joined.edges) == 4
        assert joined.valence("A") == 3

    def test_id_clash_rejected(self):
        with pytest.raises(ag.InvalidGraphError):
            one_point_sum(triangle(), "A", triangle(), "B")


class TestDecomposition:
    def test_triangle_is_irreducible(self):
        assert irreducible_decomposition(triangle()) == [triangle()]

    def test_wedge_of_two(self):
        other = ag.MetrizedGraph(["Q", "R"], [("f1", ("Q", "R"), 1), ("f2", ("Q", "R"), 1)])
        joined = one_point_sum(sg_graph(), "Q", other, "Q")
        blocks = irreducible_decomposition(joined)
        assert len(blocks) == 2
        assert {tuple(b.vertices) for b in blocks} == {("P", "Q"), ("Q", "R")}

    def test_path_splits_into_edges(self):
        path = ag.MetrizedGraph(
            ["P", "Q", "R"], [("e1", ("P", "Q"), 1), ("e2", ("Q", "R"), 1)]
        )
        blocks = irreducible_decomposition(path)
        assert [b.edge_ids() for b in blocks] == [("e1",), ("e2",)]

    def test_one_point_graph_decomposes_to_nothing(self):
        assert irreducible_decomposition(ag.MetrizedGraph(["v"], [])) == []

    def test_necklace_is_one_block(self):
        # parallel pairs arranged in a cycle: no cut vertex anywhere
        g = ag.MetrizedGraph(
            ["a", "b", "c"],
            [
                ("e1", ("a", "b"), 1),
                ("e2", ("a", "b"), 1),
                ("f1", ("b", "c"), 1),
                ("f2", ("b", "c"), 1),
                ("g1", ("c", "a"), 1),
                ("g2", ("c", "a"), 1),
            ],
        )
        assert len(irreducible_decomposition(g)) == 1

    def test_bowtie_splits_at_center(self):
        bow = ag.MetrizedGraph(
            ["c", "x", "y", "u", "v"],
            [
                ("a", ("c", "x"), 1),
                ("b", ("x", "y"), 1),
                ("d", ("y", "c"), 1),
                ("p", ("c", "u"), 1),
                ("q", ("u", "v"), 1),
                ("r", ("v", "c"), 1),
            ],
        )
        blocks = irreducible_decomposition(bow)
        assert [b.vertices for b in blocks] == [("c", "u", "v"), ("c", "x", "y")]

    def test_components_share_at_most_one_vertex(self, corpus):
        for h in corpus:
            blocks = irreducible_decomposition(h.graph)
            for i, a in enumerate(blocks):
                for b in blocks[i + 1 :]:
                    assert len(set(a.vertices) & set(b.vertices)) <= 1

    def test_disconnected_rejected(self):
        g = ag.MetrizedGraph(["P", "Q"], [])
        with pytest.raises(ag.DisconnectedGraphError):
            irreducible_decomposition(g)


class TestSubdivide:
    def test_unit_edge_halved(self):
        g = ag.MetrizedGraph(["P", "Q"], [("e", ("P", "Q"), 1)])
        s = ag.subdivide_edge(g, "e", Fraction(1, 2))
        assert len(s.vertices) == 3
        assert sorted(e.length for e in s.edges) == [Fraction(1, 2), Fraction(1, 2)]

    def test_boundary_rejected(self):
        g = ag.MetrizedGraph(["P", "Q"], [("e", ("P", "Q"), 1)])
        with pytest.raises(ValueError) as err:
            ag.subdivide_edge(g, "e", 1)
        assert isinstance(err.value, ag.AdmGraphError)
        assert err.value.code == "arc-length-range"

    def test_triangle_length_preserved(self):
        s = ag.subdivide_edge(triangle(), "a", 1)
        assert len(s.vertices) == 4
        assert sum(e.length for e in s.edges) == sum(e.length for e in triangle().edges)


def assert_subdivision_agrees(g, cuts):
    """_subdivide gives the graph, or raises the error, of splitting one
    edge at a time; returns its outcome's kind."""
    got = _outcome(_subdivide, g, cuts)
    expected = _outcome(_oracles.split_edges, g, cuts)
    if expected[0] == "raised":
        assert got == expected
    else:
        assert got[0] == "ok", got
        fields = [(x.vertices, x.edges, x.allow_loops) for x in (got[1], expected[1])]
        assert fields[0] == fields[1]
    if len(cuts) == 1:
        ((edge_id, t),) = cuts.items()
        assert _outcome(ag.subdivide_edge, g, edge_id, t) == got
    return got[0]


class TestSubdivideAll:
    """Splitting every cut edge in one rebuild equals splitting them one at
    a time, collisions and errors included."""

    @pytest.mark.parametrize(
        "vertices, edges, cuts, message",
        [
            # an existing "x.a" or "x.m" when x splits
            (["P", "Q"], [("x", ("P", "Q")), ("x.a", ("P", "Q"))], {"x": 1},
             "subdivision edge ids already taken"),
            (["P", "Q"], [("x", ("P", "Q")), ("x.b", ("Q", "P"))], {"x": 1},
             "subdivision edge ids already taken"),
            (["P", "Q", "x.m"], [("x", ("P", "Q")), ("y", ("Q", "x.m"))], {"x": 1},
             "vertex id 'x.m' already taken"),
            # two split edges whose new ids meet: x's halves are named like y
            (["P", "Q"], [("x", ("P", "Q")), ("x.a", ("P", "Q"))], {"x": 1, "x.a": 1},
             "subdivision edge ids already taken"),
            (["P", "Q"], [("x.b", ("P", "Q")), ("x", ("P", "Q"))], {"x.b": 1, "x": 1},
             "subdivision edge ids already taken"),
            # x splits first, and y's new ids are clear
            (["P", "Q"], [("x", ("P", "Q")), ("x.m", ("P", "Q"))], {"x": 1, "x.m": 1}, None),
            (["P", "Q", "x.a"], [("x", ("P", "Q")), ("y", ("Q", "x.a"))], {"x": 1, "y": 1}, None),
            # the first failing cut in id order is reported
            (["P", "Q", "y.m"], [("y", ("P", "Q")), ("x", ("Q", "P"))], {"y": 1, "x": 5},
             "t out of range: need 0 < 5 < 2"),
            (["P", "Q"], [("x", ("P", "Q"))], {"x": 1, "z": 1}, "unknown edge 'z'"),
        ],
    )
    def test_collisions(self, vertices, edges, cuts, message):
        g = ag.MetrizedGraph(vertices, [(i, ends, 2) for i, ends in edges])
        outcome = assert_subdivision_agrees(g, cuts)
        assert outcome == ("ok" if message is None else "raised")
        if message is not None:
            with pytest.raises(ag.AdmGraphError, match=re.escape(message)):
                _subdivide(g, cuts)

    def test_random_ids_agree(self):
        """Ids drawn from a small pool of names and of the names splitting
        gives them, so that cuts meet existing ids and each other."""
        rng = random.Random(25)
        names = ["a", "b", "a.a", "a.b", "a.m", "b.a", "a.a.a", "a.m.b"]
        kinds = Counter()
        for _ in range(600):
            vertices = rng.sample(["u", "v", "w"] + [f"{x}.m" for x in names], rng.randint(2, 5))
            edges = [
                (x, (rng.choice(vertices), rng.choice(vertices)), rng.randint(1, 3))
                for x in rng.sample(names, rng.randint(1, 6))
            ]
            g = ag.MetrizedGraph(vertices, edges, allow_loops=True)
            cut = rng.sample(edges, rng.randint(0, len(edges)))
            cuts = {x: rng.choice([Fraction(length, 2), Fraction(1, 3), "1/2", length]) for x, _, length in cut}
            kinds[assert_subdivision_agrees(g, cuts)] += 1
        assert min(kinds["ok"], kinds["raised"]) >= 100, kinds


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2_000))
def test_push_divisor_preserves_degree(seed):
    h = ag.random_hyperelliptic(seed % 120)
    rng = random.Random(seed)
    edge_ids = list(h.graph.edge_ids())
    subset = rng.sample(edge_ids, k=rng.randint(0, len(edge_ids)))
    _, vmap = ag.contract(h.graph, subset)
    d = ag.random_polarization(h, seed)
    assert ag.push_divisor(d, vmap).degree == d.degree
