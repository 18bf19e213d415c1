"""Node classification, invariant counts, and the bound formulas.

The fiber corpus below was classified by hand; every expected epsilon was
computed independently through the one-point-sum decomposition (simple
components and bridge edges) before being frozen here.
"""

from fractions import Fraction

import pytest

import admgraph as ag
from admgraph.bogomolov import MAX_GENUS
from admgraph.errors import ECHO_LIMIT
from conftest import shown_id

F = Fraction


def fiber(vertices, genera, edges, vmap, emap):
    g = ag.MetrizedGraph(vertices, edges, allow_loops=True)
    return ag.FiberConfiguration(g, genera, ag.Involution(vmap, emap))


def two_elliptic_pair():
    """g = 3: two fixed genus-1 components joined by a swapped node pair."""
    return fiber(
        ["v1", "v2"],
        {"v1": 1, "v2": 1},
        [("e", ("v1", "v2"), 1), ("f", ("v1", "v2"), 1)],
        {"v1": "v1", "v2": "v2"},
        {"e": "f", "f": "e"},
    )


def irreducible_one_node():
    """g = 3: a genus-2 component with one iota-fixed node (a loop)."""
    return fiber(["v"], {"v": 2}, [("l", ("v", "v"), 1)], {"v": "v"}, {"l": "l"})


def tail_with_positive_node():
    """g = 5: two fixed components with fixed loops, joined by a fixed
    branch-preserving bridge of type 2."""
    return fiber(
        ["Z", "T"],
        {"Z": 1, "T": 2},
        [("l1", ("Z", "Z"), 1), ("n", ("Z", "T"), 1), ("l2", ("T", "T"), 1)],
        {"Z": "Z", "T": "T"},
        {"l1": "l1", "n": "n", "l2": "l2"},
    )


def chain_with_rational_bridges():
    """g = 4: two fixed genus-1 anchors joined through a swapped pair of
    rational chains, plus a fixed loop."""
    return fiber(
        ["Z", "Z2", "R", "R2"],
        {"Z": 1, "Z2": 1, "R": 0, "R2": 0},
        [
            ("l", ("Z", "Z"), 1),
            ("a", ("Z", "R"), 1),
            ("b", ("R", "Z2"), 1),
            ("a2", ("Z", "R2"), 1),
            ("b2", ("R2", "Z2"), 1),
        ],
        {"Z": "Z", "Z2": "Z2", "R": "R2", "R2": "R"},
        {"l": "l", "a": "a2", "a2": "a", "b": "b2", "b2": "b"},
    )


FIBERS = [two_elliptic_pair, irreducible_one_node, tail_with_positive_node, chain_with_rational_bridges]


class TestNodeType:
    def test_bridge_between_genus_one_sides(self):
        cfg = fiber(
            ["A", "B"], {"A": 1, "B": 1}, [("n", ("A", "B"), 1)], {"A": "A", "B": "B"}, {"n": "n"}
        )
        assert cfg.genus == 2
        assert ag.node_type(cfg, "n") == 1

    def test_loop_on_irreducible_curve(self):
        assert ag.node_type(irreducible_one_node(), "l") == 0

    def test_parallel_pair_keeps_connectivity(self):
        cfg = fiber(
            ["A", "B"],
            {"A": 0, "B": 2},
            [("e", ("A", "B"), 1), ("f", ("A", "B"), 1)],
            {"A": "A", "B": "B"},
            {"e": "f", "f": "e"},
        )
        assert cfg.genus == 3
        assert ag.node_type(cfg, "e") == 0
        assert ag.node_type(cfg, "f") == 0

    def test_positive_bridge_minimum_side(self):
        assert ag.node_type(tail_with_positive_node(), "n") == 2

    def test_relabeling_invariance(self):
        cfg = chain_with_rational_bridges()
        renamed = fiber(
            ["x" + v for v in cfg.graph.vertices],
            {"x" + v: g for v, g in cfg.genera.items()},
            [("y" + e.id, ("x" + e.ends[0], "x" + e.ends[1]), e.length) for e in cfg.graph.edges],
            {"x" + v: "x" + w for v, w in cfg.involution.vertex_map.items()},
            {"y" + e: "y" + f for e, f in cfg.involution.edge_map.items()},
        )
        for e in cfg.graph.edges:
            assert ag.node_type(cfg, e.id) == ag.node_type(renamed, "y" + e.id)


class TestNodeSubtype:
    def test_fixed_node_subtype_zero(self):
        assert ag.node_subtype(irreducible_one_node(), "l") == 0

    def test_swapped_pair_subtype_one(self):
        cfg = two_elliptic_pair()
        assert ag.node_subtype(cfg, "e") == 1
        assert ag.node_subtype(cfg, "f") == 1

    def test_missing_involution(self):
        g = ag.MetrizedGraph(["v"], [("l", ("v", "v"), 1)], allow_loops=True)
        cfg = ag.FiberConfiguration(g, {"v": 2})
        with pytest.raises(ag.MissingInvolutionError):
            ag.node_subtype(cfg, "l")

    def test_positive_node_rejected(self):
        with pytest.raises(ValueError) as err:
            ag.node_subtype(tail_with_positive_node(), "n")
        assert isinstance(err.value, ag.AdmGraphError)
        assert err.value.code == "not-type-zero"

    def test_unexpected_component_count(self):
        # swapped pair on a theta-like graph: deleting both edges keeps
        # everything connected through the third node
        cfg = fiber(
            ["A", "B"],
            {"A": 1, "B": 0},
            [("e", ("A", "B"), 1), ("f", ("A", "B"), 1), ("m", ("A", "B"), 1)],
            {"A": "A", "B": "B"},
            {"e": "f", "f": "e", "m": "m"},
        )
        with pytest.raises(ag.UnexpectedComponentCountError):
            ag.node_subtype(cfg, "e")


class TestCounts:
    def test_genus_bookkeeping(self):
        for make in FIBERS:
            cfg = make()
            betti = cfg.graph.first_betti_number()
            assert sum(cfg.genera.values()) + betti == cfg.genus

    def test_expected_counts(self):
        expected = {
            two_elliptic_pair: (3, {1: 1}, {}),
            irreducible_one_node: (3, {0: 1}, {}),
            tail_with_positive_node: (5, {0: 2}, {2: 1}),
            chain_with_rational_bridges: (4, {0: 1, 1: 2}, {}),
        }
        for make, (genus, xi, delta) in expected.items():
            counts = ag.count_invariants(make())
            assert counts == ag.InvariantCounts.from_maps(genus, xi, delta)

    def test_delta0_identity(self):
        for make in FIBERS:
            counts = ag.count_invariants(make())
            assert counts.delta0 == counts.xi_j(0) + 2 * sum(counts.xi[1:])

    def test_smooth_fiber_has_no_nodes(self):
        cfg = fiber(["v"], {"v": 2}, [], {"v": "v"}, {})
        counts = ag.count_invariants(cfg)
        assert not counts.any_positive()

    @pytest.mark.parametrize(
        "genus, xi, delta, delta0",
        [
            (5, (1, 0), (0, 0), None),  # xi needs entries for j = 0 .. 2
            (5, (1, 0, 0), (0,), None),  # delta needs entries for i = 1 .. 2
            (5, (1, -1, 0), (0, 0), None),
            (5, (1, 0, 0), (0, -1), None),
            (5, (1, 1, 0), (0, 0), 1),  # delta0 = 1 + 2 * 1
        ],
    )
    def test_malformed_counts_rejected(self, genus, xi, delta, delta0):
        with pytest.raises(ag.InvalidCountsError) as err:
            ag.InvariantCounts(genus, xi, delta, delta0)
        assert isinstance(err.value, ValueError)
        assert err.value.code == "invalid-counts"

    def test_genus_cap_checked_before_any_vector_is_built(self):
        def never():
            raise AssertionError("vector consumed before the genus check")
            yield

        for genus in (MAX_GENUS + 1, 10**8):
            with pytest.raises(ag.GenusRangeError):
                ag.InvariantCounts(genus, never(), never())
            with pytest.raises(ag.GenusRangeError):
                ag.InvariantCounts.from_maps(genus, {0: 1})
        assert ag.InvariantCounts.from_maps(MAX_GENUS, {0: 1}).xi_j(0) == 1


class TestFormulas:
    def test_omega_values(self):
        assert ag.omega_self_intersection(ag.InvariantCounts.from_maps(3, {0: 1})) == F(2, 7)
        assert ag.omega_self_intersection(ag.InvariantCounts.from_maps(3, {}, {1: 1})) == F(17, 7)
        assert ag.omega_self_intersection(ag.InvariantCounts.from_maps(4, {})) == 0

    def test_epsilon_upper_values(self):
        assert ag.epsilon_fiber_upper(ag.InvariantCounts.from_maps(5, {0: 1})) == F(1, 3)
        assert ag.epsilon_fiber_upper(ag.InvariantCounts.from_maps(3, {1: 1})) == F(4, 3)
        assert ag.epsilon_fiber_upper(ag.InvariantCounts.from_maps(4, {})) == 0

    def test_r0_values(self):
        assert ag.r0_bound(ag.InvariantCounts.from_maps(3, {0: 1})) == F(1, 63)
        assert ag.r0_bound(ag.InvariantCounts.from_maps(5, {1: 1})) == F(64, 165)
        assert ag.r0_bound(ag.InvariantCounts.from_maps(3, {})) == 0

    def test_genus_two_rejected(self):
        counts = ag.InvariantCounts.from_maps(2, {0: 1})
        with pytest.raises(ag.GenusBelowThreeError):
            ag.r0_bound(counts)
        with pytest.raises(ag.GenusBelowThreeError):
            ag.epsilon_fiber_upper(counts)

    def test_r0_positive_whenever_any_count_is(self):
        for g in range(3, 12):
            for j in range(0, (g - 1) // 2 + 1):
                counts = ag.InvariantCounts.from_maps(g, {j: 1})
                assert ag.r0_bound(counts) > 0
            for i in range(1, g // 2 + 1):
                counts = ag.InvariantCounts.from_maps(g, {}, {i: 1})
                assert ag.r0_bound(counts) > 0

    def test_radicand_linear_combination(self):
        counts = ag.InvariantCounts.from_maps(5, {1: 2}, {1: 1})
        radicand, report = ag.pairing_radicand(counts)
        assert radicand == 2 * F(64, 165) + F(16, 55) * 16
        assert radicand == report["r0_theorem"] == ag.r0_bound(counts)
        assert report["warnings"] == []

    def test_radicand_zero_counts_warns(self):
        radicand, report = ag.pairing_radicand(ag.InvariantCounts.from_maps(3, {}))
        assert radicand == 0
        assert any("no singular-fiber data" in w for w in report["warnings"])

    def test_radicand_weaker_than_theorem_for_deep_delta(self):
        counts = ag.InvariantCounts.from_maps(5, {}, {2: 1})
        radicand, report = ag.pairing_radicand(counts)
        assert radicand < report["r0_theorem"]
        assert any("delta_i" in w for w in report["warnings"])


class TestDominance:
    def test_upper_bound_dominates_exact_epsilon(self):
        for make in FIBERS:
            cfg = make()
            counts = ag.count_invariants(cfg)
            graph, omega = ag.fiber_metrized(cfg)
            eps, _ = ag.epsilon_numeric(graph, omega)
            assert ag.epsilon_fiber_upper(counts) >= eps

    def test_exact_epsilons_frozen(self):
        expected = {
            two_elliptic_pair: F(10, 9),
            irreducible_one_node: F(2, 9),
            tail_with_positive_node: F(13, 3),
            chain_with_rational_bridges: F(13, 4),
        }
        for make, value in expected.items():
            graph, omega = ag.fiber_metrized(make())
            eps, _ = ag.epsilon_numeric(graph, omega)
            assert eps == value

    def test_normalized_hyperelliptic_agrees_with_full_graph(self):
        # eps of the full fiber = eps of the normalized type-0 part plus the
        # exact single-edge contributions of the positive-type bridges
        cfg = tail_with_positive_node()
        graph, omega = ag.fiber_metrized(cfg)
        eps_full, _ = ag.epsilon_numeric(graph, omega)
        h, d = ag.normalized_hyperelliptic(cfg)
        eps_zero_part = ag.epsilon_closed_form(h, d)
        g = cfg.genus
        i = 2
        eps_bridge = F(4 * i * (g - i) * (g - 1) - (g - 2 * i) ** 2, g * g)
        assert eps_full == eps_zero_part + eps_bridge

    def test_omega_divisor_degree(self):
        for make in FIBERS:
            cfg = make()
            assert ag.omega_divisor(cfg).degree == 2 * cfg.genus - 2


class TestOverlongNodeIds:
    @pytest.mark.parametrize("length", [ECHO_LIMIT, ECHO_LIMIT + 1, 300])
    def test_positive_node(self, length):
        x = "n" * length
        cfg = fiber(
            ["Z", "T"],
            {"Z": 1, "T": 2},
            [("l1", ("Z", "Z"), 1), (x, ("Z", "T"), 1), ("l2", ("T", "T"), 1)],
            {"Z": "Z", "T": "T"},
            {"l1": "l1", x: x, "l2": "l2"},
        )
        with pytest.raises(ag.NotTypeZeroError) as info:
            ag.node_subtype(cfg, x)
        assert str(info.value) == f"node {shown_id(x)} is not of type 0"

    @pytest.mark.parametrize("length", [ECHO_LIMIT, ECHO_LIMIT + 1, 300])
    def test_pair_that_does_not_split(self, length):
        x = "e" * length
        cfg = fiber(
            ["A", "B"],
            {"A": 1, "B": 0},
            [(x, ("A", "B"), 1), ("f", ("A", "B"), 1), ("m", ("A", "B"), 1)],
            {"A": "A", "B": "B"},
            {x: "f", "f": x, "m": "m"},
        )
        with pytest.raises(ag.UnexpectedComponentCountError) as info:
            ag.node_subtype(cfg, x)
        assert str(info.value) == f"removing {shown_id(x)} and 'f' gave 1 components, expected 2"


class TestConfigurationValidation:
    def test_genus_below_two_rejected(self):
        g = ag.MetrizedGraph(["v"], [("l", ("v", "v"), 1)], allow_loops=True)
        with pytest.raises(ag.InvalidGraphError):
            ag.FiberConfiguration(g, {"v": 0})

    def test_involution_must_respect_genera(self):
        g = ag.MetrizedGraph(["A", "B"], [("e", ("A", "B"), 1), ("f", ("A", "B"), 1)])
        inv = ag.Involution({"A": "B", "B": "A"}, {"e": "f", "f": "e"})
        with pytest.raises(ag.InvalidGraphError):
            ag.FiberConfiguration(g, {"A": 2, "B": 1}, inv)
