"""The fiber pipeline on a generated corpus and against its oracles.

The corpus (``_fibers``) decorates random hyperelliptic graphs with tails,
loops, genus, iota-fixed edges between swapped vertices and iota-symmetric
rational chains.  Every fiber must satisfy the five properties of the
bound, and node typing, the counts and the normalization must agree with
the one-query-at-a-time versions kept in ``_oracles``, also on mutated
fibers: loops at chain vertices, cycles of removable vertices, fixed edges
that do not swap their ends, clashing midpoint ids and chain vertices with
nonzero polarization, and on corpus fibers whose ids are permuted at random.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _fibers
import _oracles
import admgraph as ag
from admgraph import bogomolov
from admgraph.bogomolov import positive_type_nodes
from admgraph.cli import run_command
from admgraph.errors import ECHO_LIMIT
from admgraph.hyperelliptic import normalize_fiber
from conftest import shown_id

CORPUS_SIZE = 600


@pytest.fixture(scope="module")
def corpus():
    return [(sub, parts, parts.configuration()) for sub, parts in _fibers.corpus(CORPUS_SIZE)]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the exception itself is the outcome compared
        return "raised", (type(exc), getattr(exc, "code", None), str(exc))


def _edge_fields(g):
    # a merged edge's ends are compared as an unordered pair
    return [(e.id, tuple(sorted(e.ends)), e.length) for e in g.edges]


def _fields(h):
    return {
        "vertices": h.graph.vertices,
        "edges": _edge_fields(h.graph),
        "vertex_map": h.involution.vertex_map,
        "edge_map": h.involution.edge_map,
        "fixed_vertices": h.fixed_vertices,
        "nonfixed_vertices": h.nonfixed_vertices,
        "edge_kinds": list(h.edge_kinds.items()),
        "class_members": list(h.class_members.items()),
        "class_of": list(h.class_of.items()),
        "quotient": (h.quotient.vertices, _edge_fields(h.quotient)),
    }


def _oracle_positive(cfg):
    return tuple(e.id for e in cfg.graph.edges if _oracles.node_type(cfg, e.id) >= 1)


def _oracle_classify(cfg):
    """``_classify`` by the oracles; the count raises at the first failing
    pair in edge order."""
    types = {e.id: _oracles.node_type(cfg, e.id) for e in cfg.graph.edges}
    _oracles.count_invariants(cfg)
    return types, {e: _oracles.node_subtype(cfg, e) for e, i in types.items() if i == 0}


def _contracted_dual(cfg, positive):
    contracted, vmap = ag.contract(cfg.graph, positive)
    inv = cfg.involution
    return contracted, ag.Involution(
        {v: vmap[inv.vertex(v)] for v in contracted.vertices},
        {e.id: inv.edge(e.id) for e in contracted.edges},
    )


def assert_normalization_agrees(dual, inv):
    """``normalize_fiber`` and its oracle give the same fields or raise the
    same exception with the same code and message."""
    got = _outcome(normalize_fiber, dual, inv)
    expected = _outcome(_oracles.normalize_fiber, dual, inv)
    if expected[0] == "raised":
        assert got == expected
    else:
        assert got[0] == "ok", got
        assert _fields(got[1]) == _fields(expected[1])
    return got


def assert_pipeline_agrees(cfg):
    """Types, subtypes, counts, positive nodes, both normalizations and the
    metrized fiber agree with the oracles; returns the library's
    normalization outcome."""
    edges = [e.id for e in cfg.graph.edges]
    types = [ag.node_type(cfg, e) for e in edges]
    assert types == [_oracles.node_type(cfg, e) for e in edges]
    for e in edges:
        assert _outcome(ag.node_subtype, cfg, e) == _outcome(_oracles.node_subtype, cfg, e)
    assert _outcome(ag.count_invariants, cfg) == _outcome(_oracles.count_invariants, cfg)
    assert _outcome(bogomolov._classify, cfg) == _outcome(_oracle_classify, cfg)
    positive = positive_type_nodes(cfg)
    assert positive == _oracle_positive(cfg)
    assert_normalization_agrees(*_contracted_dual(cfg, positive))

    # every edge split in one rebuild, as if split one at a time
    metrized = _outcome(ag.fiber_metrized, cfg)
    expected = _outcome(_oracles.fiber_graph, cfg)
    if expected[0] == "raised":
        assert metrized == expected
    else:
        assert metrized[0] == "ok", metrized
        graph, expected = metrized[1][0], expected[1]
        assert (graph.vertices, graph.edges) == (expected.vertices, expected.edges)

    got = _outcome(bogomolov.normalized_hyperelliptic, cfg)
    with mock.patch.object(bogomolov, "positive_type_nodes", _oracle_positive), mock.patch.object(
        bogomolov, "normalize_fiber", _oracles.normalize_fiber
    ):
        expected = _outcome(bogomolov.normalized_hyperelliptic, cfg)
    if expected[0] == "raised":
        assert got == expected
    else:
        assert got[0] == "ok", got
        (h, d), (h_expected, d_expected) = got[1], expected[1]
        assert (_fields(h), d) == (_fields(h_expected), d_expected)
    return got


def _bridge_term(g, i):
    """The admissible constant's share of one unit-length bridge of type i."""
    return Fraction(4 * i * (g - i) * (g - 1) - (g - 2 * i) ** 2, g * g)


class TestCorpusProperties:
    def test_five_properties(self, corpus):
        assert len(corpus) >= 500
        merged = 0
        for sub, parts, cfg in corpus:
            counts = ag.count_invariants(cfg)
            positive = positive_type_nodes(cfg)
            # delta_0 counts the type-0 nodes
            type_zero = len(cfg.graph.edges) - len(positive)
            assert type_zero == counts.delta0 == counts.xi_j(0) + 2 * sum(counts.xi[1:]), sub
            assert ag.r0_bound(counts) > 0, sub
            graph, omega = ag.fiber_metrized(cfg)
            eps, _ = ag.epsilon_numeric(graph, omega)
            assert eps <= ag.epsilon_fiber_upper(counts), sub
            h, d = ag.normalized_hyperelliptic(cfg)
            closed = ag.epsilon_closed_form(h, d)
            assert closed == ag.epsilon_numeric(h.graph, d)[0], sub
            g = cfg.genus
            bridges = sum((_bridge_term(g, ag.node_type(cfg, e)) for e in positive), Fraction(0))
            assert eps == closed + bridges, sub
            chain_vertices = {c for chain in parts.chains for side in chain for c in side}
            merged += bool(chain_vertices) and not chain_vertices & set(h.graph.vertices)
        assert merged >= 100

    def test_corpus_agrees_with_oracles(self, corpus):
        for sub, _, cfg in corpus:
            outcome = assert_pipeline_agrees(cfg)
            assert outcome[0] == "ok", (sub, outcome)

    def test_renamed_corpus_agrees_with_oracles(self, corpus):
        """A merged edge is named by its chain's union-find root, the
        chain's smallest edge id.  With the vertex ids and the edge ids of
        each fiber permuted at random, that id lies at an end of a chain or
        in its middle, and on either sheet of a swapped pair of chains."""
        places = Counter()
        for sub, parts, _ in corpus:
            renamed, edge_name = _renamed(parts, sub)
            outcome = assert_pipeline_agrees(renamed.configuration())
            assert outcome[0] == "ok", (sub, outcome)
            for sheets in _chain_sheets(parts):
                names = [[edge_name[e] for e in sheet] for sheet in sheets]
                smallest = min(min(sheet) for sheet in names)
                side = next(k for k, sheet in enumerate(names) if smallest in sheet)
                position = names[side].index(smallest)
                places[f"sheet {side}"] += 1
                places["end" if position in (0, len(names[side]) - 1) else "middle"] += 1
        assert min(places[key] for key in ("sheet 0", "sheet 1", "end", "middle")) >= 100, places


def _renamed(parts, seed):
    """parts with its vertex ids, and apart from them its edge ids, permuted
    by a seeded shuffle; returns the renamed parts and the edge renaming."""
    rng = random.Random(f"rename-{seed}")

    def permutation(ids):
        ids = sorted(ids)
        return dict(zip(ids, rng.sample(ids, len(ids))))

    v = permutation(parts.vertices)
    e = permutation(eid for eid, _, _ in parts.edges)
    renamed = _fibers.FiberParts(
        [v[x] for x in parts.vertices],
        [(e[eid], (v[a], v[b]), length) for eid, (a, b), length in parts.edges],
        {v[x]: g for x, g in parts.genera.items()},
        {v[x]: v[y] for x, y in parts.vmap.items()},
        {e[x]: e[y] for x, y in parts.emap.items()},
        [([v[x] for x in a], [v[x] for x in b]) for a, b in parts.chains],
    )
    return renamed, e


def _chain_sheets(parts):
    """The edge ids of each swapped pair of chains, each chain's from one
    end to the other: ``_fibers`` names them "<replaced edge>/<label>" and
    lists them in path order."""
    sheets = {}
    for eid, _, _ in parts.edges:
        if "/" in eid:
            sheets.setdefault(eid.split("/")[0], []).append(eid)
    pairs = {name: parts.emap[sheet[0]].split("/")[0] for name, sheet in sheets.items()}
    return [(sheets[name], sheets[image]) for name, image in pairs.items() if name < image]


# -- mutations of the raw parts ----------------------------------------------


def _chain_vertex(parts, k):
    chain, image = parts.chains[k % len(parts.chains)]
    j = (k // len(parts.chains)) % len(chain)
    return chain[j], image[j]


def _chain_loop(parts, k):
    """Swapped loops at a chain vertex and its image: both stay, as loops."""
    if parts.chains:
        c, c_image = _chain_vertex(parts, k)
        a, b = f"L{c}", f"L{c_image}"
        parts.edges += [(a, (c, c), 1), (b, (c_image, c_image), 1)]
        parts.emap[a], parts.emap[b] = b, a


def _chain_genus(parts, k):
    """Genus 1 on a chain vertex and its image: nonzero polarization there."""
    if parts.chains:
        for c in _chain_vertex(parts, k):
            parts.genera[c] = 1


def _fixed_between_fixed(parts, k):
    """An iota-fixed edge between two fixed vertices: not a swap."""
    fixed = sorted(v for v in parts.vertices if parts.vmap[v] == v)
    if len(fixed) >= 2:
        a = fixed[k % len(fixed)]
        b = fixed[(k + 1 + k // len(fixed)) % len(fixed)]
        if a != b:
            eid = f"y{a}{b}"
            parts.edges.append((eid, (a, b), 1))
            parts.emap[eid] = eid


def _rename_vertex(parts, old, new):
    def r(v):
        return new if v == old else v

    parts.vertices = [r(v) for v in parts.vertices]
    parts.edges = [(eid, (r(u), r(w)), length) for eid, (u, w), length in parts.edges]
    parts.genera = {r(v): g for v, g in parts.genera.items()}
    parts.vmap = {r(v): r(w) for v, w in parts.vmap.items()}
    parts.chains = [([r(v) for v in a], [r(v) for v in b]) for a, b in parts.chains]


def _rename_edge(parts, old, new):
    def r(e):
        return new if e == old else e

    parts.edges = [(r(eid), ends, length) for eid, ends, length in parts.edges]
    parts.emap = {r(e): r(f) for e, f in parts.emap.items()}


def _midpoint_clash(parts, k):
    """An iota-fixed edge between swapped vertices whose midpoint vertex or
    half-edge id is already taken."""
    swapped = sorted(v for v in parts.vertices if parts.vmap[v] > v)
    if not swapped:
        return
    v = swapped[k % len(swapped)]
    fixed = f"z{v}"
    parts.edges.append((fixed, (v, parts.vmap[v]), 1))
    parts.emap[fixed] = fixed
    if k % 3 == 0:
        victim = sorted(parts.vertices)[k % len(parts.vertices)]
        _rename_vertex(parts, victim, f"{fixed}.m")
    else:
        victim = sorted(e for e in parts.emap if e != fixed)[k % (len(parts.emap) - 1)]
        _rename_edge(parts, victim, f"{fixed}.{'ab'[k % 2]}")


FIBER_MUTATIONS = {
    "chain-loop": _chain_loop,
    "chain-genus": _chain_genus,
    "fixed-not-swapping": _fixed_between_fixed,
    "midpoint-clash": _midpoint_clash,
}


def _cycles(dual, inv, shapes, rng):
    """``dual`` with disjoint cycles of removable vertices added: a swapped
    pair of n-cycles (n = 1 is a pair of loops), or a 2n-cycle that iota
    rotates by n.  Vertex labels interleave with the chain vertices'."""
    vertices = list(dual.vertices)
    edges = list(dual.edges)
    vmap, emap = dict(inv.vertex_map), dict(inv.edge_map)
    labels = iter(rng.sample(range(1000), 40))
    for shape, n in shapes:
        size = 2 * n
        ring = [f"R{next(labels):03d}c" for _ in range(size)]
        ids = [f"c{next(labels):03d}" for _ in range(size)]
        vertices += ring
        if shape == "swapped":
            # ring[:n] and ring[n:] are two n-cycles, swapped
            for i in range(size):
                start = (i // n) * n
                u, w = ring[i], ring[start + (i - start + 1) % n]
                edges.append(ag.Edge(ids[i], (u, w), Fraction(1)))
        else:
            for i in range(size):
                edges.append(ag.Edge(ids[i], (ring[i], ring[(i + 1) % size]), Fraction(1)))
        for i in range(size):
            vmap[ring[i]] = ring[(i + n) % size]
            emap[ids[i]] = ids[(i + n) % size]
    graph = ag.MetrizedGraph(vertices, edges, allow_loops=True)
    return graph, ag.Involution(vmap, emap)


@st.composite
def involutive_fibers(draw):
    """A connected multigraph under an involution that fixes some vertices
    and swaps others in pairs.  Edges come in orbits: a fixed edge (between
    fixed vertices, a loop at one, or joining a swapped pair) or a swapped
    pair (parallel between fixed vertices, two loops, or any two edges
    mapped to each other).  Each vertex orbit is joined to an earlier one;
    the edge order is shuffled."""
    vmap, genera, vertices, edges, emap = {}, {}, [], [], {}

    def add(u, w, fixed):
        k = len(edges)
        if fixed:
            edges.append((f"e{k}", (u, w), 1))
            emap[f"e{k}"] = f"e{k}"
        else:
            edges.extend([(f"e{k}", (u, w), 1), (f"e{k + 1}", (vmap[u], vmap[w]), 1)])
            emap[f"e{k}"], emap[f"e{k + 1}"] = f"e{k + 1}", f"e{k}"

    def invariant(u, w):
        return {vmap[u], vmap[w]} == {u, w}

    for k, swapped in enumerate(draw(st.lists(st.booleans(), min_size=1, max_size=6))):
        genus = draw(st.integers(0, 2))
        a, b = (f"a{k}", f"b{k}") if swapped else (f"f{k}", f"f{k}")
        vmap[a], vmap[b] = b, a
        genera[a] = genera[b] = genus
        if swapped and (not vertices or draw(st.booleans())):
            add(a, b, draw(st.booleans()))
        if vertices:
            y = draw(st.sampled_from(vertices))
            add(a, y, invariant(a, y) and draw(st.booleans()))
        vertices.extend(sorted({a, b}))
    for i, j, fixed in draw(
        st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices), st.booleans()),
                 max_size=8)
    ):
        add(i, j, fixed and invariant(i, j))
    graph = ag.MetrizedGraph(vertices, draw(st.permutations(edges)), allow_loops=True)
    return graph, genera, ag.Involution(vmap, emap)


class TestRandomMultigraphsAgreeWithOracles:
    @settings(max_examples=300, deadline=None)
    @given(involutive_fibers())
    def test_classification_and_its_errors(self, fiber):
        built = _outcome(ag.FiberConfiguration, *fiber)
        assume(built[0] == "ok")  # genus below 2: no fiber to compare
        assert_pipeline_agrees(built[1])


class TestMutationsAgreeWithOracles:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=5000),
        st.lists(
            st.tuples(st.sampled_from(sorted(FIBER_MUTATIONS)), st.integers(0, 60)), max_size=2
        ),
    )
    def test_mutated_fibers(self, sub, mutations):
        parts = _fibers.fiber_parts(sub)
        for name, k in mutations:
            FIBER_MUTATIONS[name](parts, k)
        built = _outcome(parts.configuration)
        assume(built[0] == "ok")  # e.g. genus below 2: no fiber to compare
        assert_pipeline_agrees(built[1])

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=5000),
        st.lists(
            st.tuples(st.sampled_from(["swapped", "rotated"]), st.integers(1, 3)),
            min_size=1,
            max_size=3,
        ),
        st.randoms(use_true_random=False),
    )
    def test_removable_cycles(self, sub, shapes, rng):
        parts = _fibers.fiber_parts(sub)
        assume(parts.genus() >= 2)
        cfg = parts.configuration()
        dual, inv = _cycles(*_contracted_dual(cfg, positive_type_nodes(cfg)), shapes, rng)
        outcome = assert_normalization_agrees(dual, inv)
        assert outcome[0] == "raised" and "carries a loop" in outcome[1][2]

    @pytest.mark.parametrize(
        "vertices, edges, vmap, emap, message",
        [
            (
                ["v1", "v2", "v3", "v4"],
                [("e1", ("v1", "v2")), ("e2", ("v2", "v3")), ("e3", ("v3", "v4")), ("e4", ("v4", "v1"))],
                {"v1": "v3", "v2": "v4", "v3": "v1", "v4": "v2"},
                {"e1": "e3", "e2": "e4", "e3": "e1", "e4": "e2"},
                "cannot remove vertex 'v4': it carries a loop",
            ),
            (
                ["x", "y"],
                [("e1", ("x", "y")), ("e2", ("y", "x"))],
                {"x": "y", "y": "x"},
                {"e1": "e2", "e2": "e1"},
                "cannot remove vertex 'y': it carries a loop",
            ),
            (
                ["a", "b"],
                [("l", ("a", "a")), ("m", ("b", "b"))],
                {"a": "b", "b": "a"},
                {"l": "m", "m": "l"},
                "cannot remove vertex 'a': it carries a loop",
            ),
            (
                ["a" * 300, "b"],
                [("l", ("a" * 300, "a" * 300)), ("m", ("b", "b"))],
                {"a" * 300: "b", "b": "a" * 300},
                {"l": "m", "m": "l"},
                "cannot remove vertex <an id of 300 characters>: it carries a loop",
            ),
        ],
    )
    def test_removable_cycle_names_its_largest_vertex(self, vertices, edges, vmap, emap, message):
        graph = ag.MetrizedGraph(vertices, [(e, ends, 1) for e, ends in edges], allow_loops=True)
        outcome = assert_normalization_agrees(graph, ag.Involution(vmap, emap))
        error = (ag.NotHyperellipticConfigurationError, "not-hyperelliptic-configuration", message)
        assert outcome == ("raised", error)

    @pytest.mark.parametrize("length", [ECHO_LIMIT, ECHO_LIMIT + 1])
    def test_fixed_edges_are_named_by_length(self, length):
        x = "e" * length
        # between two fixed vertices
        graph = ag.MetrizedGraph(["a", "b"], [(x, ("a", "b"), 1)], allow_loops=True)
        outcome = assert_normalization_agrees(graph, ag.Involution({"a": "a", "b": "b"}, {x: x}))
        assert outcome[1][2] == (
            f"fixed edge {shown_id(x)} does not swap its endpoints "
            "(positive-type nodes must be contracted first)"
        )
        # between swapped vertices, with its midpoint's id taken
        graph = ag.MetrizedGraph(
            ["a", "b", f"{x}.m"],
            [(x, ("a", "b"), 1), ("g", ("a", f"{x}.m"), 1), ("h", ("b", f"{x}.m"), 1)],
            allow_loops=True,
        )
        inv = ag.Involution({"a": "b", "b": "a", f"{x}.m": f"{x}.m"}, {x: x, "g": "h", "h": "g"})
        outcome = assert_normalization_agrees(graph, inv)
        assert outcome[1][2] == f"midpoint ids for {shown_id(x)} already taken"

    @pytest.mark.parametrize("length", [ECHO_LIMIT, ECHO_LIMIT + 1])
    def test_dropped_vertices_are_named_by_length(self, length):
        parts = next(parts for _, parts in _fibers.corpus(50) if parts.chains)
        c, c_image = _chain_vertex(parts, 0)
        _chain_genus(parts, 0)
        _rename_vertex(parts, c, "x" * length)
        _rename_vertex(parts, c_image, "y" * length)
        with pytest.raises(ag.NotHyperellipticConfigurationError) as info:
            bogomolov.normalized_hyperelliptic(parts.configuration())
        shown = ", ".join(shown_id(v * length) for v in "xy")
        assert str(info.value) == (
            f"normalization removed vertices with nonzero polarization: [{shown}]"
        )

    def test_fixed_loop_at_a_swapped_vertex_is_a_malformed_involution(self):
        graph = ag.MetrizedGraph(
            ["a", "b"], [("l", ("a", "a"), 1), ("e", ("a", "b"), 1), ("f", ("a", "b"), 1)],
            allow_loops=True,
        )
        inv = ag.Involution({"a": "b", "b": "a"}, {"l": "l", "e": "f", "f": "e"})
        outcome = assert_normalization_agrees(graph, inv)
        assert outcome[1][0] is ag.InvolutionMalformedError

    def test_each_fiber_mutation_reaches_its_check(self):
        reached = set()
        for sub, parts in _fibers.corpus(200):
            if not parts.chains:
                continue
            for name, mutate in FIBER_MUTATIONS.items():
                mutated = _fibers.fiber_parts(sub)
                mutate(mutated, sub)
                built = _outcome(mutated.configuration)
                if built[0] == "ok":
                    outcome = assert_pipeline_agrees(built[1])
                    if outcome[0] == "raised":
                        reached.add((name, outcome[1][0]))
            if len(reached) == len(FIBER_MUTATIONS):
                break
        assert reached >= {
            ("chain-loop", ag.NotHyperellipticConfigurationError),
            ("chain-genus", ag.NotHyperellipticConfigurationError),
            ("fixed-not-swapping", ag.NotHyperellipticConfigurationError),
            ("midpoint-clash", ag.NotHyperellipticConfigurationError),
        }


# -- the CLI -------------------------------------------------------------------


def _fiber_file(tmp_path, cfg):
    """The fiber's document, and the fiber as the CLI reads it back (the
    document lists the edges sorted by id)."""
    text = ag.serialize_document(ag.document_from(cfg.graph, cfg.involution, genera=cfg.genera))
    path = tmp_path / "fiber.json"
    path.write_text(text)
    return str(path), ag.parse_graph_document(text).to_fiber()


def _oracle_classify_nodes(cfg):
    """The ``classify-nodes`` result, by the oracles, one node at a time."""
    nodes = {}
    for e in cfg.graph.edges:
        i = _oracles.node_type(cfg, e.id)
        entry = {"type": i}
        if i == 0:
            entry["subtype"] = _oracles.node_subtype(cfg, e.id)
        nodes[e.id] = entry
    counts = _oracles.count_invariants(cfg)
    return {
        "genus": cfg.genus,
        "nodes": nodes,
        "counts": {
            "xi": {str(j): counts.xi_j(j) for j in range(len(counts.xi))},
            "delta": {str(i): counts.delta_i(i) for i in range(1, len(counts.delta) + 1)},
            "delta0": counts.delta0,
        },
    }


class TestClassifyNodes:
    def test_output_matches_the_oracles(self, corpus, capsys, tmp_path):
        for sub, _, cfg in corpus[::4]:
            path, read_back = _fiber_file(tmp_path, cfg)
            assert run_command(["classify-nodes", path]) == 0
            assert capsys.readouterr().out == json.dumps(_oracle_classify_nodes(read_back)) + "\n", sub

    def test_classification_walks_the_fiber_once(self, corpus):
        walks = []
        walk = bogomolov._walk

        def counted(g, root):
            walks.append(g)
            return walk(g, root)

        for _, _, cfg in corpus[:50]:
            for classify in (bogomolov._classify, ag.count_invariants, positive_type_nodes):
                walks.clear()
                with mock.patch.object(bogomolov, "_walk", counted):
                    classify(cfg)
                assert walks == [cfg.graph], classify

    def test_failing_pair_reports_the_first_in_edge_order(self, capsys, tmp_path):
        # deleting the swapped pair (f, e) leaves A and B joined by the fixed m
        graph = ag.MetrizedGraph(
            ["A", "B"],
            [("m", ("A", "B"), 1), ("f", ("A", "B"), 1), ("e", ("A", "B"), 1)],
        )
        inv = ag.Involution({"A": "A", "B": "B"}, {"e": "f", "f": "e", "m": "m"})
        cfg = ag.FiberConfiguration(graph, {"A": 1}, inv)
        for fiber, first, second in ((cfg, "f", "e"), (_fiber_file(tmp_path, cfg)[1], "e", "f")):
            message = f"removing {first!r} and {second!r} gave 1 components, expected 2"
            for count in (ag.count_invariants, _oracles.count_invariants):
                assert _outcome(count, fiber)[1][1:] == ("unexpected-component-count", message)
        path, _ = _fiber_file(tmp_path, cfg)
        assert run_command(["classify-nodes", path]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == {
            "code": "unexpected-component-count",
            "message": message,
        }


def test_configuration_walks_the_graph_once():
    parts = _fibers.fiber_parts(7)
    graph = ag.MetrizedGraph(parts.vertices, parts.edges, allow_loops=True)
    calls = []
    walk = ag.MetrizedGraph.is_connected

    def counted(g):
        calls.append(g)
        return walk(g)

    with mock.patch.object(ag.MetrizedGraph, "is_connected", counted):
        ag.FiberConfiguration(graph, parts.genera, ag.Involution(parts.vmap, parts.emap))
    assert calls == [graph]


def test_random_labels_separate_the_two_partner_rules():
    """In some chains the smallest id's image is not the partner chain's
    smallest id, so a wrong partner rule cannot pass unnoticed."""
    differing = 0
    for _, parts in _fibers.corpus(100):
        chain_edges = {}
        for eid, _, _ in parts.edges:
            if "/" in eid:
                chain_edges.setdefault(eid.split("/")[0], []).append(eid)
        for name, edges in chain_edges.items():
            smallest = min(edges)
            image = parts.emap[smallest]
            differing += image != min(chain_edges[image.split("/")[0]])
    assert differing >= 10
