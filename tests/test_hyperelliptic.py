"""Involutions, axioms, edge classes, size, w weights, fiber normalization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
import admgraph as ag
from admgraph import EdgeKind
from admgraph.errors import ECHO_LIMIT
from conftest import named_corpus, shown_id

F = Fraction


def sg():
    return ag.simple_graph()


def swap_involution_on_triangle():
    g = ag.MetrizedGraph(
        ["A", "B", "C"], [("a", ("A", "B"), 1), ("b", ("B", "C"), 1), ("c", ("C", "A"), 1)]
    )
    return g, ag.Involution({v: v for v in g.vertices}, {e: e for e in g.edge_ids()})


class TestInvolution:
    def test_identity_involution_fixed_edges_rejected(self):
        g, inv = swap_involution_on_triangle()
        with pytest.raises(ag.AxiomViolationError) as err:
            ag.validate_hyperelliptic(g, inv)
        assert err.value.clause == 2

    def test_length_mismatch_rejected(self):
        g = ag.MetrizedGraph(["P", "Q"], [("e1", ("P", "Q"), 1), ("e2", ("P", "Q"), 2)])
        inv = ag.Involution({"P": "P", "Q": "Q"}, {"e1": "e2", "e2": "e1"})
        with pytest.raises(ag.InvolutionMalformedError):
            ag.validate_hyperelliptic(g, inv)

    def test_non_permutation_rejected(self):
        g = sg().graph
        inv = ag.Involution({"P": "P"}, dict(sg().involution.edge_map))
        with pytest.raises(ag.InvolutionMalformedError):
            ag.validate_hyperelliptic(g, inv)


class TestAxioms:
    def test_sg_valid_and_two_jointed(self):
        h = sg()
        assert set(h.edge_kinds.values()) == {EdgeKind.TWO_JOINTED}
        assert h.fixed_vertices == {"P", "Q"}

    def test_elementary_all_one_jointed(self):
        h = ag.elementary_graph(2)
        assert len(h.graph.vertices) == 5
        assert len(h.graph.edges) == 6
        assert set(h.edge_kinds.values()) == {EdgeKind.ONE_JOINTED}

    def test_low_valence_nonfixed_rejected(self):
        g = ag.MetrizedGraph(
            ["P", "Q", "O"],
            [("e1", ("O", "P"), 1), ("e2", ("O", "Q"), 1)],
        )
        inv = ag.Involution({"O": "O", "P": "Q", "Q": "P"}, {"e1": "e2", "e2": "e1"})
        with pytest.raises(ag.AxiomViolationError) as err:
            ag.validate_hyperelliptic(g, inv)
        assert err.value.clause == 3

    def test_quotient_loop_rejected(self):
        # two swapped vertices joined by two swapped parallel pairs
        g = ag.MetrizedGraph(
            ["u", "v"],
            [
                ("a", ("u", "v"), 1),
                ("b", ("u", "v"), 1),
                ("c", ("u", "v"), 1),
                ("d", ("u", "v"), 1),
            ],
        )
        inv = ag.Involution(
            {"u": "v", "v": "u"}, {"a": "b", "b": "a", "c": "d", "d": "c"}
        )
        with pytest.raises(ag.AxiomViolationError) as err:
            ag.validate_hyperelliptic(g, inv)
        assert err.value.clause == 4

    def test_ladder_classification(self):
        h = ag.ladder_graph(3)
        kinds = {e: k for e, k in h.edge_kinds.items()}
        assert kinds["e1+"] is EdgeKind.DISJOINT
        assert kinds["f1+"] is EdgeKind.ONE_JOINTED
        assert kinds["e0+"] is EdgeKind.ONE_JOINTED


class TestSize:
    def test_sg_is_one(self):
        assert ag.graph_size(sg()) == 1

    def test_elementary_sizes(self):
        for n in (2, 3, 4):
            assert ag.graph_size(ag.elementary_graph(n)) == n

    def test_size_additive_over_wedge(self):
        from conftest import join, rename

        h = join(sg(), "P", rename(sg(), "B."), "B.P")
        assert ag.graph_size(h) == 2

    def test_global_formula(self, corpus):
        # sz = #Ed1~ - #Irr + 2 #Irr_simple
        for h in corpus:
            comps = _oracles.component_structures(h)
            simple = sum(1 for c in comps if _oracles.is_simple(c))
            one_jointed = len(h.classes_of_kind(EdgeKind.ONE_JOINTED))
            assert ag.graph_size(h) == one_jointed - len(comps) + 2 * simple

    def test_size_preserved_by_nonsplitting_contractions(self, corpus):
        for h in corpus[:14]:
            for cname in h.classes():
                kind = h.class_kind(cname)
                g2, inv2, _ = ag.contract_classes(h, [cname])
                if len(g2.vertices) == 1 and not g2.edges:
                    continue
                h2 = ag.validate_hyperelliptic(g2, inv2)
                if kind in (EdgeKind.DISJOINT, EdgeKind.ONE_JOINTED):
                    assert ag.graph_size(h2) == ag.graph_size(h)

    def test_component_count_relations(self, corpus):
        # contraction: #Irr equal (disjoint), larger (one-jointed), one less (two-jointed)
        for h in corpus[:14]:
            n_irr = len(_oracles.component_structures(h))
            for cname in h.classes():
                kind = h.class_kind(cname)
                g2, inv2, _ = ag.contract_classes(h, [cname])
                if len(g2.vertices) == 1 and not g2.edges:
                    continue
                n_after = len(_oracles.component_structures(ag.validate_hyperelliptic(g2, inv2)))
                if kind is EdgeKind.DISJOINT:
                    assert n_after == n_irr
                elif kind is EdgeKind.ONE_JOINTED:
                    assert n_after > n_irr
                else:
                    assert n_after == n_irr - 1


class TestComponents:
    def test_components_iota_stable(self, corpus):
        for h in corpus:
            for comp in _oracles.component_structures(h):
                vset = set(comp.graph.vertices)
                assert {h.involution.vertex(v) for v in vset} == vset

    def test_jointing_points_are_fixed_with_four_ends(self, corpus):
        for h in corpus:
            blocks = _oracles.component_structures(h)
            membership = {}
            for b in blocks:
                for v in b.graph.vertices:
                    membership.setdefault(v, 0)
                    membership[v] += 1
            joints = {v for v, n in membership.items() if n > 1}
            expected = {
                v
                for v in h.graph.vertices
                if v in h.fixed_vertices and h.graph.valence(v) >= 4
            }
            assert joints == expected


class TestNuCounts:
    def test_elementary_hub(self):
        h = ag.elementary_graph(2)
        assert ag.nu_counts(h, "Q+") == (0, 3, 3)

    def test_ladder_middle_vertex(self):
        h = ag.ladder_graph(3)
        assert ag.nu_counts(h, "P2+") == (2, 1, 3)

    def test_fixed_vertex_rejected(self):
        with pytest.raises(ag.FixedVertexError):
            ag.nu_counts(sg(), "P")


class TestWWeight:
    def test_sg(self):
        h = sg()
        d = ag.Divisor({"P": 3, "Q": 1})
        assert ag.w_weight(h, d, h.classes()[0]) == 1

    def test_elementary_pushes_remainder(self):
        h = ag.elementary_graph(2)
        a = {"P1": 2, "P2": 0, "P3": 1}
        d = ag.Divisor({"Q+": 1, "Q-": 1, **a})
        deg = d.degree
        for i in (1, 2, 3):
            got = ag.w_weight(h, d, f"e{i}+")
            assert got == min(a[f"P{i}"], deg - a[f"P{i}"])

    def test_zero_divisor(self):
        h = sg()
        assert ag.w_weight(h, ag.Divisor({}), h.classes()[0]) == 0

    def test_non_invariant_divisor_rejected(self):
        h = ag.elementary_graph(2)
        with pytest.raises(ag.PolarizationShapeError):
            ag.w_weight(h, ag.Divisor({"Q+": 1}), "e1+")


class TestNormalizeFiber:
    def fixed_edge_config(self):
        # swapped pair u, v joined by a fixed edge of length 2; anchored so
        # that every non-fixed vertex keeps valence 3
        g = ag.MetrizedGraph(
            ["u", "v", "w", "x", "A", "O1", "O2"],
            [
                ("e", ("u", "v"), 2),
                ("f", ("u", "w"), 1),
                ("f'", ("v", "x"), 1),
                ("q", ("u", "A"), 1),
                ("q'", ("v", "A"), 1),
                ("p1", ("w", "O1"), 1),
                ("p1'", ("x", "O1"), 1),
                ("p2", ("w", "O2"), 1),
                ("p2'", ("x", "O2"), 1),
            ],
        )
        inv = ag.Involution(
            {"u": "v", "v": "u", "w": "x", "x": "w", "A": "A", "O1": "O1", "O2": "O2"},
            {
                "e": "e",
                "f": "f'",
                "f'": "f",
                "q": "q'",
                "q'": "q",
                "p1": "p1'",
                "p1'": "p1",
                "p2": "p2'",
                "p2'": "p2",
            },
        )
        return g, inv

    def test_fixed_edge_becomes_one_jointed_halves(self):
        g, inv = self.fixed_edge_config()
        h = ag.normalize_fiber(g, inv)
        assert "e.m" in h.graph.vertices
        assert h.graph.edge("e.a").length == 1
        assert h.edge_kinds["e.a"] is EdgeKind.ONE_JOINTED
        assert h.involution.edge("e.a") == "e.b"
        assert sum(e.length for e in h.graph.edges) == sum(e.length for e in g.edges)

    def test_already_hyperelliptic_unchanged(self):
        h = ag.elementary_graph(3)
        again = ag.normalize_fiber(h.graph, h.involution)
        assert again.graph == h.graph
        assert again.involution.edge_map == h.involution.edge_map

    def test_chain_vertex_removed_lengths_added(self):
        # non-fixed degree-2 vertices R, R' on a swapped chain between two
        # fixed anchors of a banana
        g = ag.MetrizedGraph(
            ["Z", "Z2", "R", "R2"],
            [
                ("l", ("Z", "Z"), 1),
                ("a", ("Z", "R"), F(1, 2)),
                ("b", ("R", "Z2"), 1),
                ("a2", ("Z", "R2"), F(1, 2)),
                ("b2", ("R2", "Z2"), 1),
            ],
            allow_loops=True,
        )
        inv = ag.Involution(
            {"Z": "Z", "Z2": "Z2", "R": "R2", "R2": "R"},
            {"l": "l", "a": "a2", "a2": "a", "b": "b2", "b2": "b"},
        )
        h = ag.normalize_fiber(g, inv)
        assert "R" not in h.graph.vertices and "R2" not in h.graph.vertices
        assert h.graph.edge("a").length == F(3, 2)
        assert sum(e.length for e in h.graph.edges) == sum(e.length for e in g.edges)

    def test_fixed_loop_becomes_simple_pair(self):
        g = ag.MetrizedGraph(["v"], [("l", ("v", "v"), 1)], allow_loops=True)
        inv = ag.Involution({"v": "v"}, {"l": "l"})
        h = ag.normalize_fiber(g, inv)
        assert _oracles.is_simple(_oracles.component_structures(h)[0])
        assert h.graph.edge("l.a").length == F(1, 2)

    def test_branch_preserving_fixed_edge_rejected(self):
        g = ag.MetrizedGraph(["A", "B"], [("n", ("A", "B"), 1), ("m", ("A", "B"), 1)])
        inv = ag.Involution({"A": "A", "B": "B"}, {"n": "n", "m": "m"})
        with pytest.raises(ag.NotHyperellipticConfigurationError):
            ag.normalize_fiber(g, inv)

    def test_potential_quantities_survive_normalization(self):
        g, inv = self.fixed_edge_config()
        h = ag.normalize_fiber(g, inv)
        d = ag.Divisor({"A": 1, "O1": 1})
        # u, v survive normalization; compare green pairings on a metrized
        # realization of the raw input (fixed edge subdivided only)
        raw = ag.subdivide_edge(g, "e", 1)
        assert ag.effective_resistance(raw, "u", "A") == ag.effective_resistance(
            h.graph, "u", "A"
        )
        assert ag.epsilon_numeric(raw, d) == ag.epsilon_numeric(h.graph, d)


def restriction_corpus(corpus):
    """The corpus and 500 random covers of at most 12 quotient vertices."""
    covers = [ag.double_cover(ag.generators.random_cover_spec(s, 12)) for s in range(500)]
    return list(corpus) + covers


class TestRestrictionSimplicity:
    def test_elementary_class_restricts_to_sg(self):
        g2, inv2, _ = _oracles.restrict_classes(ag.elementary_graph(2), ["e1+"])
        h2 = ag.validate_hyperelliptic(g2, inv2)
        assert _oracles.is_simple(h2)
        assert set(g2.vertices) == {"P1", "P2"}  # everything else merged

    def test_every_class_restricts_to_simple(self, corpus):
        # w_weight takes the simple restriction from the axioms and does
        # not check it; the oracle restricts, raises unless the result is
        # semisimple of size 1, and pushes d onto it
        for k, h in enumerate(restriction_corpus(corpus)):
            d = ag.random_polarization(h, 7 + k)
            for cname in h.classes():
                assert ag.w_weight(h, d, cname) == _oracles.w_by_restriction(h, d, cname)

    def test_side_sums(self, corpus):
        # w(c) = min(s_c, deg D - s_c), s_c the degree of D below c in the
        # walk of the quotient tree
        graphs = restriction_corpus(corpus) + [ag.ladder_graph(n) for n in range(2, 9)]
        for k, h in enumerate(graphs):
            d = ag.random_polarization(h, 11 + k)
            sums = _oracles.w_by_side_sums(h, d)
            assert sums == {c: ag.w_weight(h, d, c) for c in h.classes()}

    def test_a_broken_restriction_is_a_solver_fault(self, monkeypatch):
        # the axioms leave two vertices; anything else is a fault, not a value
        h = ag.elementary_graph(2)
        monkeypatch.setattr(ag.hyperelliptic, "contract", lambda g, ids: ag.contract(g, []))
        with pytest.raises(ag.SolverFaultError) as info:
            ag.w_weight(h, ag.Divisor({}), "e1+")
        assert str(info.value) == "restriction to class 'e1+' is not the simple graph"


class TestOverlongIds:
    @pytest.mark.parametrize("length", [ECHO_LIMIT, ECHO_LIMIT + 1, 300])
    def test_fixed_vertex_of_nu(self, length):
        x = "P" * length
        spec = ag.CoverSpec(vertices=((x, True), ("Q", True)), edges=(("e", x, "Q", Fraction(1)),))
        with pytest.raises(ag.FixedVertexError) as info:
            ag.nu_counts(ag.double_cover(spec), x)
        assert str(info.value) == f"vertex {shown_id(x)} is fixed; nu is defined on non-fixed vertices"


def w_of_last(h, names):
    """w_weight at the last of the names, for an invariant divisor."""
    return ag.w_weight(h, ag.random_polarization(h, 1), names[-1])


class TestUnknownIds:
    @pytest.mark.parametrize("call", [w_of_last, ag.contract_classes])
    @pytest.mark.parametrize(
        "names, message",
        [
            (["nope"], "unknown edge class 'nope'"),
            (["e1+", "nope"], "unknown edge class 'nope'"),
            (["v" * 300], "unknown edge class <an id of 300 characters>"),
        ],
    )
    def test_unknown_class(self, call, names, message):
        with pytest.raises(ag.UnknownIdError) as info:
            call(ag.elementary_graph(2), names)
        assert str(info.value) == message

    def test_w_weight_checks_the_class_last(self):
        # the divisor's support, then its invariance, then the class name
        h = ag.elementary_graph(2)
        with pytest.raises(ag.UnknownIdError) as info:
            ag.w_weight(h, ag.Divisor({"nope": 1}), "nope")
        assert str(info.value) == "unknown vertex 'nope'"
        with pytest.raises(ag.PolarizationShapeError) as info:
            ag.w_weight(h, ag.Divisor({"Q+": 1}), "nope")
        assert str(info.value) == "w is defined for iota-invariant divisors"

    @pytest.mark.parametrize(
        "edge_ids, message",
        [
            (["nope"], "unknown edge 'nope'"),
            (["e1+", "nope"], "unknown edge 'nope'"),
            (["v" * 300], "unknown edge <an id of 300 characters>"),
        ],
    )
    def test_unknown_edge(self, edge_ids, message):
        with pytest.raises(ag.UnknownIdError) as info:
            ag.contract(ag.elementary_graph(2).graph, edge_ids)
        assert str(info.value) == message


# -- one-pass construction against the check-by-check oracle ------------


def _raw(h):
    """A hyperelliptic graph as constructor input: mutable vertex and edge
    lists and involution maps."""
    g = h.graph
    return {
        "vertices": list(g.vertices),
        "edges": [(e.id, e.ends, e.length) for e in g.edges],
        "vmap": dict(h.involution.vertex_map),
        "emap": dict(h.involution.edge_map),
        "allow_loops": False,
    }


def _pick(items, k):
    items = sorted(items)
    return items[k % len(items)]


def _set_edge(raw, eid, ends=None, length=None):
    for i, (x, old_ends, old_length) in enumerate(raw["edges"]):
        if x == eid:
            raw["edges"][i] = (x, ends or old_ends, old_length if length is None else length)


def _edge_ids(raw):
    """The edge map's ids that are edges: an "unknown-id" mutation may have
    added an id that is no edge, or dropped an edge's id."""
    return raw["emap"].keys() & {x for x, _, _ in raw["edges"]}


def _ends(raw, eid):
    return next(ends for x, ends, _ in raw["edges"] if x == eid)


def _fixed(raw):
    """The fixed vertices, or all vertices if a mutation left none fixed."""
    return [v for v in raw["vertices"] if raw["vmap"].get(v) == v] or raw["vertices"]


def _fix_edge(raw, k):
    eid = _pick(raw["emap"], k)
    raw["emap"][raw["emap"][eid]] = raw["emap"][eid]
    raw["emap"][eid] = eid


def _loop(raw, k):
    """A new orbit of two loops at a fixed vertex."""
    v = _pick(_fixed(raw), k)
    raw["edges"] += [("loop+", (v, v), Fraction(1)), ("loop-", (v, v), Fraction(1))]
    raw["emap"]["loop+"], raw["emap"]["loop-"] = "loop-", "loop+"
    raw["allow_loops"] = bool(k % 3)


def _valence_two(raw, k):
    """Subdivide one orbit by a swapped pair of new vertices, each of
    valence 2."""
    eid = _pick(_edge_ids(raw), k)
    partner = raw["emap"][eid]
    vmap = raw["vmap"]
    u, w = _ends(raw, eid)
    length = next(x for i, _, x in raw["edges"] if i == eid)
    raw["vertices"] += ["mid+", "mid-"]
    vmap["mid+"], vmap["mid-"] = "mid-", "mid+"
    _set_edge(raw, eid, ends=(u, "mid+"))
    _set_edge(raw, partner, ends=(vmap.get(u, u), "mid-"))
    raw["edges"] += [
        (f"{eid}.b", ("mid+", w), length),
        (f"{partner}.b", ("mid-", vmap.get(w, w)), length),
    ]
    raw["emap"][f"{eid}.b"], raw["emap"][f"{partner}.b"] = f"{partner}.b", f"{eid}.b"


def _orbit_lengths(raw, k):
    eid = _pick(_edge_ids(raw), k)
    length = next(x for i, _, x in raw["edges"] if i == eid)
    _set_edge(raw, eid, length=ag.as_fraction(length) + 1)


def _not_involution(raw, k):
    """Compose the vertex or the edge map with a 3-cycle: still a
    permutation, but in general not of order 2."""
    mapping = raw["vmap"] if k % 2 else raw["emap"]
    keys = sorted(mapping)
    cycle = [keys[(k + i) % len(keys)] for i in range(3)]
    images = [mapping[x] for x in cycle]
    for x, image in zip(cycle, images[1:] + images[:1]):
        mapping[x] = image


def _not_permutation(raw, k):
    """One id of the vertex or the edge map takes the image of another, so
    the map's images are no longer all the ids."""
    mapping = raw["vmap"] if k % 2 else raw["emap"]
    keys = sorted(mapping)
    mapping[keys[k % len(keys)]] = mapping[keys[(k + 1) % len(keys)]]


def _swap_partners(raw, k):
    """Pair the edges of two orbits crosswise: an involution on the edge ids
    that need not respect the endpoints."""
    emap = raw["emap"]
    a = _pick(emap, k)
    b = _pick([x for x in emap if x not in (a, emap[a])] or [a], k + 1)
    a2, b2 = emap[a], emap[b]
    emap[a], emap[b2] = b2, a
    emap[b], emap[a2] = a2, b


def _disconnect(raw, k):
    raw["vertices"].append("iso")
    raw["vmap"]["iso"] = "iso"


def _nonpositive(raw, k):
    eid = _pick(raw["emap"], k)
    value = (0, -1, Fraction(-1, 2), "0")[k % 4]
    for x in {eid, raw["emap"][eid]}:
        _set_edge(raw, x, length=value)


def _quotient_cycle(raw, k):
    """A new two-jointed orbit between two fixed vertices that are already
    joined through the quotient tree."""
    fixed = sorted(set(_fixed(raw)))
    u, w = fixed[k % len(fixed)], fixed[(k + 1) % len(fixed)]
    raw["edges"] += [("extra+", (u, w), Fraction(1)), ("extra-", (u, w), Fraction(1))]
    raw["emap"]["extra+"], raw["emap"]["extra-"] = "extra-", "extra+"


def _duplicate(raw, k):
    if k % 2:
        raw["vertices"].append(_pick(raw["vertices"], k))
    else:
        eid, ends, length = raw["edges"][k % len(raw["edges"])]
        raw["edges"].append((eid, tuple(reversed(ends)), length))


def _unknown(raw, k):
    kind = k % 5
    if kind == 0:
        eid, (u, _), length = raw["edges"][k % len(raw["edges"])]
        _set_edge(raw, eid, ends=(u, "ghost"))
    elif kind == 1:
        del raw["emap"][_pick(raw["emap"], k)]
    elif kind == 2:
        raw["vmap"]["ghost"] = _pick(raw["vertices"], k)
    elif kind == 3:
        raw["emap"][_pick(raw["emap"], k)] = "ghost"
    else:
        raw["emap"]["ghost"] = _pick(raw["emap"], k)


MUTATIONS = {
    "fixed-edge": _fix_edge,
    "loop": _loop,
    "valence-2": _valence_two,
    "orbit-lengths": _orbit_lengths,
    "not-involution": _not_involution,
    "not-permutation": _not_permutation,
    "endpoints": _swap_partners,
    "disconnected": _disconnect,
    "nonpositive": _nonpositive,
    "quotient-cycle": _quotient_cycle,
    "duplicate-id": _duplicate,
    "unknown-id": _unknown,
}


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the exception itself is the outcome compared
        return "raised", (type(exc), getattr(exc, "code", None), str(exc))


def _library_fields(h):
    return {
        "fixed_vertices": h.fixed_vertices,
        "nonfixed_vertices": h.nonfixed_vertices,
        "edge_kinds": list(h.edge_kinds.items()),
        "class_members": list(h.class_members.items()),
        "class_of": list(h.class_of.items()),
        "quotient": (h.quotient.vertices, h.quotient.edges),
        "nu": {v: ag.nu_counts(h, v) for v in sorted(h.nonfixed_vertices)},
    }


def _edge_items(raw, form):
    """The edges in one of the constructor's input forms."""
    if form == "edges":
        return [ag.Edge(eid, ends, length) for eid, ends, length in raw["edges"]]
    if form == "strings":
        return [
            (eid, ends, length if isinstance(length, str) else ag.format_rational(length))
            for eid, ends, length in raw["edges"]
        ]
    return list(raw["edges"])


def assert_agrees_with_oracle(raw, form="tuples"):
    """Library and oracle build and validate ``raw`` with the same result
    or the same exception; returns the library's outcome."""
    edges = _edge_items(raw, form)
    built = _outcome(ag.MetrizedGraph, raw["vertices"], edges, allow_loops=raw["allow_loops"])
    expected = _outcome(_oracles.graph_fields, raw["vertices"], edges, raw["allow_loops"])
    if built[0] == "raised":
        assert built == expected
        return built
    g = built[1]
    assert expected == ("ok", (g.vertices, g.edges))
    assert all(g.edge(e.id) is e for e in g.edges)
    assert [g.valence(v) for v in g.vertices] == [_oracles.valence(g, v) for v in g.vertices]
    assert list(ag.validate_graph(g).problems) == _oracles.graph_problems(g)
    assert _outcome(g.require_analytic) == _outcome(_oracles.require_analytic, g)

    inv = ag.Involution(raw["vmap"], raw["emap"])
    assert _outcome(ag.hyperelliptic.check_involution, g, inv) == (
        _outcome(_oracles.check_involution, g, inv, True)
    )
    validated = _outcome(ag.validate_hyperelliptic, g, inv)
    expected = _outcome(_oracles.hyperelliptic_fields, g, inv)
    if validated[0] == "raised":
        assert validated == expected
        return validated
    h = validated[1]
    assert h.graph is g and h.involution is inv
    assert expected == ("ok", _library_fields(h))
    return validated


def _base(index):
    named = sorted(named_corpus().items())
    if index < len(named):
        return named[index][1]
    return ag.double_cover(ag.generators.random_cover_spec(index, max_vertices=12))


class TestConstructionOracle:
    """``MetrizedGraph`` and ``validate_hyperelliptic`` check everything the
    check-by-check oracle checks, in the same order, and derive the same
    fields."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=400),
        st.lists(
            st.tuples(st.sampled_from(sorted(MUTATIONS)), st.integers(min_value=0, max_value=60)),
            max_size=2,
        ),
        st.sampled_from(["tuples", "edges", "strings"]),
    )
    def test_mutated_corpus_agrees(self, index, mutations, form):
        raw = _raw(_base(index))
        for name, k in mutations:
            MUTATIONS[name](raw, k)
        assert_agrees_with_oracle(raw, form)

    @pytest.mark.parametrize(
        "name, base, k, message",
        [
            (None, "ladder3", 0, None),
            ("fixed-edge", "SG", 0, "axiom (2): iota fixes edge 'e+'"),
            ("loop", "ladder3", 1, "axiom (1): edge 'loop+' is not a closed interval"),
            ("loop", "ladder3", 3, "edge 'loop+' is a self-loop"),
            ("valence-2", "G3", 0, "axiom (3): non-fixed vertex 'mid+' has fewer than three edges"),
            ("orbit-lengths", "ladder3", 2, "lengths differ within the orbit of 'e1+'"),
            ("not-involution", "G4", 1, "vertex map does not square to identity at 'P2'"),
            ("not-involution", "G2", 4, "edge map does not square to identity at 'e1+'"),
            ("not-permutation", "G2", 0, "edge map is not a permutation of the edge set"),
            ("not-permutation", "G2", 1, "vertex map is not a permutation of the vertex set"),
            ("endpoints", "ladder3", 0, "edge map incompatible with endpoints at 'e0+'"),
            ("disconnected", "SGvG2", 0, "hyperelliptic graphs are connected"),
            ("nonpositive", "G2", 0, "axiom (1): edge lengths must be positive"),
            ("nonpositive", "G2", 3, "axiom (1): edge lengths must be positive"),
            (
                "quotient-cycle",
                "ladder3",
                0,
                "axiom (4): the quotient by iota has a loop (it must be a tree)",
            ),
            ("duplicate-id", "SG", 0, "duplicate edge ids"),
            ("duplicate-id", "SG", 1, "duplicate vertex ids"),
            ("unknown-id", "G2", 0, "edge 'e1+' references an unknown vertex"),
            ("unknown-id", "G2", 1, "edge map is not a permutation of the edge set"),
            ("unknown-id", "G2", 2, "vertex map is not a permutation of the vertex set"),
            ("unknown-id", "G2", 3, "edge map is not a permutation of the edge set"),
            ("unknown-id", "G2", 4, "edge map is not a permutation of the edge set"),
        ],
    )
    def test_each_mutation_reaches_its_check(self, name, base, k, message):
        raw = _raw(named_corpus()[base])
        if name:
            MUTATIONS[name](raw, k)
        outcome = assert_agrees_with_oracle(raw)
        assert (outcome[1][2] if outcome[0] == "raised" else None) == message
