"""Document schema, canonical serialization, and the CLI surface."""

import json
from fractions import Fraction

import pytest

import admgraph as ag
from admgraph.bogomolov import MAX_GENUS
from admgraph.cli import run_command
from admgraph.documents import (
    document_from,
    parse_graph_document,
    serialize_document,
    serialize_polynomial,
)

SG_DOC = """{
  "vertices": [{"id": "P"}, {"id": "Q"}],
  "edges": [
    {"id": "e+", "ends": ["P", "Q"], "length": "1"},
    {"id": "e-", "ends": ["P", "Q"], "length": "1"}
  ],
  "involution": {
    "vertices": {"P": "P", "Q": "Q"},
    "edges": {"e+": "e-", "e-": "e+"}
  },
  "divisor": {"P": "1", "Q": "1"}
}"""


class TestParse:
    def test_minimal_sg(self):
        doc = parse_graph_document(SG_DOC)
        assert len(doc.vertices) == 2
        assert len(doc.edges) == 2
        g = doc.to_graph()
        assert ag.effective_resistance(g, "P", "Q") == Fraction(1, 2)

    def test_missing_vertex_reference(self):
        bad = json.loads(SG_DOC)
        bad["edges"][1]["ends"] = ["P", "Z"]
        with pytest.raises(ag.SchemaError) as err:
            parse_graph_document(json.dumps(bad))
        assert any(path == "edges[1].ends" for path, _ in err.value.problems)

    def test_zero_denominator_length(self):
        bad = json.loads(SG_DOC)
        bad["edges"][0]["length"] = "3/0"
        with pytest.raises(ag.SchemaError) as err:
            parse_graph_document(json.dumps(bad))
        assert any("bad rational literal" in msg for _, msg in err.value.problems)

    def test_float_length_rejected(self):
        bad = json.loads(SG_DOC)
        bad["edges"][0]["length"] = 0.5
        with pytest.raises(ag.SchemaError):
            parse_graph_document(json.dumps(bad))

    def test_malformed_json(self):
        with pytest.raises(ag.SchemaError) as err:
            parse_graph_document(b"{not json")
        assert "malformed JSON" in str(err.value)

    def test_bool_genus_rejected(self):
        bad = json.loads(SG_DOC)
        bad["vertices"][1]["genus"] = True
        with pytest.raises(ag.SchemaError) as err:
            parse_graph_document(json.dumps(bad))
        assert [path for path, _ in err.value.problems] == ["vertices[1].genus"]

    def test_all_problems_collected(self):
        bad = json.loads(SG_DOC)
        bad["edges"][0]["length"] = "x"
        bad["divisor"]["Z"] = "1"
        with pytest.raises(ag.SchemaError) as err:
            parse_graph_document(json.dumps(bad))
        assert len(err.value.problems) == 2


class TestSerialize:
    def test_round_trip_byte_identical(self):
        canonical = serialize_document(parse_graph_document(SG_DOC))
        assert serialize_document(parse_graph_document(canonical)) == canonical

    def test_document_from_objects(self):
        h = ag.elementary_graph(2)
        d = ag.Divisor({"Q+": 1, "Q-": 1})
        doc = document_from(h.graph, h.involution, d)
        text = serialize_document(doc)
        back = parse_graph_document(text)
        assert back.to_graph() == h.graph
        assert back.to_divisor() == d
        assert serialize_document(back) == text

    def test_no_floats_in_output(self):
        h = ag.simple_graph(Fraction(1, 3))
        text = serialize_document(document_from(h.graph, h.involution))
        assert "0.3" not in text and "e-0" not in text

    def test_format_rational_past_the_int_string_limit(self):
        # str(int) refuses more than 4300 digits by default
        n = 10**5000 + 7
        assert ag.format_rational(n) == "1" + "0" * 4999 + "7"
        assert ag.format_rational(Fraction(-n, 3)) == "-1" + "0" * 4999 + "7/3"
        assert ag.format_rational(Fraction(3, 5 * 10**4500)) == "3/5" + "0" * 4500
        assert ag.format_rational(Fraction(-123, 7)) == "-123/7"

    def test_polynomial_serialization_order(self):
        h = ag.elementary_graph(2)
        terms = serialize_polynomial(ag.l_polynomial(h))
        assert terms == [
            {"monomial": ["e1+", "e2+"], "coefficient": "1"},
            {"monomial": ["e1+", "e3+"], "coefficient": "1"},
            {"monomial": ["e2+", "e3+"], "coefficient": "1"},
        ]


@pytest.fixture()
def sg_file(tmp_path):
    path = tmp_path / "sg.json"
    path.write_text(serialize_document(parse_graph_document(SG_DOC)))
    return str(path)


@pytest.fixture()
def fiber_file(tmp_path):
    cfg_graph = ag.MetrizedGraph(["v"], [("l", ("v", "v"), 1)], allow_loops=True)
    doc = document_from(cfg_graph, ag.Involution({"v": "v"}, {"l": "l"}), genera={"v": 2})
    path = tmp_path / "fiber.json"
    path.write_text(serialize_document(doc))
    return str(path)


def run(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestCli:
    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["epsilon", "--help"], ["bound", "-h"]])
    def test_help_is_one_json_object(self, capsys, argv):
        code, out = run(capsys, argv)
        assert code == 0
        assert list(out) == ["help"] and out["help"].startswith("usage: admgraph")

    def test_epsilon(self, capsys, sg_file):
        code, out = run(capsys, ["epsilon", sg_file])
        assert code == 0
        assert out == {"epsilon": "7/12", "c": "5/32"}

    def test_epsilon_closed_and_compare(self, capsys, sg_file):
        code, out = run(capsys, ["epsilon-closed", sg_file])
        assert (code, out["epsilon"]) == (0, "7/12")
        code, out = run(capsys, ["compare", sg_file])
        assert code == 0 and out["agree"] is True

    def test_bound(self, capsys):
        code, out = run(capsys, ["bound", "--genus", "3", "--xi0", "1"])
        assert code == 0
        assert out["r0"] == "1/63"

    def test_bound_with_vectors(self, capsys):
        code, out = run(
            capsys, ["bound", "--genus", "5", "--xi", "1=2", "--delta", "1=1"]
        )
        assert code == 0
        assert Fraction(out["r0"]) == 2 * Fraction(64, 165) + Fraction(16, 55) * 16

    def test_missing_file_is_usage_error(self, capsys):
        code = run_command(["epsilon", "no-such-file.json"])
        err = capsys.readouterr().err
        assert code == 2
        assert "file-not-found" in err

    def test_path_with_nul_byte_is_usage_error(self, capsys):
        # open() raises ValueError, not OSError, for such a path
        code = run_command(["validate", "\x00"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "code": "usage",
            "message": "file-not-found: embedded null byte",
        }

    @pytest.mark.parametrize(
        "command, extra",
        [("epsilon", ["--divisor", '{"P": "1"}']), ("measure", []), ("resistance", ["P", "Q"])],
    )
    def test_zero_length_edge_named_like_a_problem_is_invalid_graph(
        self, capsys, tmp_path, command, extra
    ):
        graph = ag.MetrizedGraph(["P", "Q"], [("not connected", ("P", "Q"), 0)])
        path = tmp_path / "g.json"
        path.write_text(serialize_document(document_from(graph)))
        code, out = run(capsys, [command, str(path), *extra])
        assert code == 1
        assert out["error"] == {
            "code": "invalid-graph",
            "message": "edge 'not connected': nonpositive length 0",
        }

    def test_domain_error_exit_one(self, capsys, sg_file):
        code, out = run(
            capsys, ["epsilon", sg_file, "--divisor", '{"P": "-1", "Q": "-1"}']
        )
        assert code == 1
        assert out["error"]["code"] == "degree-minus-two"

    def test_validate(self, capsys, sg_file):
        code, out = run(capsys, ["validate", sg_file])
        assert code == 0
        assert out["valid"] is True
        assert out["hyperelliptic"]["size"] == 1

    # documents derived from SG_DOC, and the exact stdout of ``validate``
    VALIDATE_CASES = {
        "valid": (
            lambda doc: None,
            '{"valid": true, "problems": [], "hyperelliptic": {"valid": true, "size": 1}}',
        ),
        "looped": (
            lambda doc: (
                doc["edges"].append({"id": "l", "ends": ["P", "P"], "length": "1"}),
                doc["involution"]["edges"].update(l="l"),
            ),
            '{"valid": false, "problems": ["edge \'l\': self-loop at \'P\'"], '
            '"hyperelliptic": {"valid": false, "problem": "edge \'l\' is a self-loop"}}',
        ),
        "disconnected": (
            lambda doc: (
                doc["vertices"].append({"id": "R"}),
                doc["involution"]["vertices"].update(R="R"),
            ),
            '{"valid": false, "problems": ["graph is not connected"], '
            '"hyperelliptic": {"valid": false, "problem": "hyperelliptic graphs are connected"}}',
        ),
        "bad-involution": (
            lambda doc: doc["involution"]["vertices"].update(P="Q"),
            '{"valid": false, "problems": [], "hyperelliptic": {"valid": false, '
            '"problem": "vertex map is not a permutation of the vertex set"}}',
        ),
    }

    @pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
    def test_validate_builds_and_walks_the_graph_once(self, capsys, tmp_path, monkeypatch, case):
        edit, expected = self.VALIDATE_CASES[case]
        doc = json.loads(SG_DOC)
        edit(doc)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        builds, walks = [], []
        build, walk = ag.MetrizedGraph.__init__, ag.MetrizedGraph.is_connected

        def counted_build(g, *args, **kwargs):
            builds.append(g)
            build(g, *args, **kwargs)

        def counted_walk(g):
            if g._connected is None:  # not yet walked
                walks.append(g)
            return walk(g)

        monkeypatch.setattr(ag.MetrizedGraph, "__init__", counted_build)
        monkeypatch.setattr(ag.MetrizedGraph, "is_connected", counted_walk)
        assert run_command(["validate", str(path)]) == 0
        assert capsys.readouterr().out == expected + "\n"
        assert len(builds) == 1 and walks == builds

    def test_resistance_and_edge(self, capsys, sg_file):
        code, out = run(capsys, ["resistance", sg_file, "P", "Q"])
        assert out["resistance"] == "1/2"
        code, out = run(capsys, ["resistance", sg_file, "--edge", "e+"])
        assert out["cross_resistance"] == "1"

    def test_measure_and_green(self, capsys, sg_file):
        _, out = run(capsys, ["measure", sg_file])
        assert out["kind"] == "admissible"
        assert out["total_mass"] == "1"
        _, out = run(capsys, ["green", sg_file, "P"])
        assert out["vertex_values"] == {"P": "13/96", "Q": "-11/96"}

    def test_lpoly_mpoly(self, capsys, sg_file):
        _, out = run(capsys, ["lpoly", sg_file])
        assert out == {"size": 1, "polynomial": [{"monomial": ["e+"], "coefficient": "1"}]}
        _, out = run(capsys, ["mpoly", sg_file])
        assert out["polynomial"] == []

    def test_classify_edges(self, capsys, sg_file):
        _, out = run(capsys, ["classify-edges", sg_file])
        assert out["edges"] == {"e+": "two-jointed", "e-": "two-jointed"}

    def test_classify_nodes(self, capsys, fiber_file):
        code, out = run(capsys, ["classify-nodes", fiber_file])
        assert code == 0
        assert out["genus"] == 3
        assert out["nodes"]["l"] == {"type": 0, "subtype": 0}
        assert out["counts"]["xi"]["0"] == 1

    def test_gen_round_trips_through_pipeline(self, capsys, tmp_path):
        code, out = run(capsys, ["gen", "--seed", "11"])
        assert code == 0
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(out))
        code, out = run(capsys, ["compare", str(path)])
        assert code == 0 and out["agree"] is True

    def test_gen_deterministic(self, capsys):
        _, first = run(capsys, ["gen", "--seed", "3"])
        _, second = run(capsys, ["gen", "--seed", "3"])
        assert first == second

    def test_usage_error_unknown_command(self, capsys):
        assert run_command(["frobnicate"]) == 2

    def test_bound_rejects_out_of_range_index(self, capsys):
        # genus 5 allows xi_j only for j <= 2
        code, out = run(capsys, ["bound", "--genus", "5", "--xi", "3=1"])
        assert code == 1 and out["error"]["code"] == "invalid-counts"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--genus", "3", "--xi0", "-1"],
            ["--genus", "5", "--xi", "1=-2"],
            ["--genus", "5", "--delta", "2=-1"],
            ["--genus", "5", "--xi=-1=1"],
            ["--genus", "5", "--delta", "0=1"],
            ["--genus", "5", "--delta", "3=1"],
        ],
    )
    def test_bound_invalid_counts_is_domain_error(self, capsys, argv):
        code = run_command(["bound", *argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert json.loads(captured.out)["error"]["code"] == "invalid-counts"

    @pytest.mark.parametrize("genus", ["10001", "100000000"])
    def test_bound_genus_above_cap_is_domain_error(self, capsys, genus):
        code, out = run(capsys, ["bound", "--genus", genus, "--xi0", "1"])
        assert code == 1 and out["error"]["code"] == "genus-range"

    def test_bound_genus_cap_bounds(self, capsys):
        code, out = run(capsys, ["bound", "--genus", str(MAX_GENUS), "--xi0", "1"])
        assert code == 0 and Fraction(out["r0"]) > 0
        code, out = run(capsys, ["bound", "--genus", "2", "--xi0", "1"])
        assert code == 1 and out["error"]["code"] == "genus-below-three"

    @pytest.mark.parametrize("genus", ["0", "-1"])
    def test_bound_genus_below_two_is_domain_error(self, capsys, genus):
        code = run_command(["bound", "--genus", genus])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert json.loads(captured.out)["error"]["code"] == "genus-range"

    def test_class_cap_applies_only_to_symbolic_commands(self, capsys, tmp_path, monkeypatch):
        h = ag.elementary_graph(2)
        d = ag.random_polarization(h, 0)
        path = tmp_path / "g2.json"
        path.write_text(serialize_document(document_from(h.graph, h.involution, d)))
        monkeypatch.setattr(ag.polynomials, "MAX_TREES", 0)
        code, out = run(capsys, ["epsilon-closed", str(path)])
        assert code == 0 and "epsilon" in out
        code, out = run(capsys, ["compare", str(path)])
        assert code == 0 and out["agree"] is True
        for command in ("lpoly", "mpoly"):
            code, out = run(capsys, [command, str(path)])
            assert code == 1 and out["error"]["code"] == "enumeration-cap"

    def test_strategy_flag_removed_from_value_commands(self, capsys, sg_file):
        for command in ("epsilon-closed", "compare", "lpoly", "mpoly"):
            assert run_command([command, sg_file, "--strategy", "symmetric"]) == 2
        capsys.readouterr()
        code, out = run(capsys, ["lpoly", sg_file])
        assert code == 0 and out["size"] == 1

    def test_missing_divisor_is_domain_error(self, capsys, tmp_path):
        h = ag.elementary_graph(2)
        path = tmp_path / "nodiv.json"
        path.write_text(serialize_document(document_from(h.graph, h.involution)))
        code, out = run(capsys, ["epsilon", str(path)])
        assert code == 1
        assert out["error"]["code"] == "schema-error"

    def test_schema_error_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"vertices\": []}")
        code, out = run(capsys, ["epsilon", str(path)])
        assert code == 1
        assert out["error"]["code"] == "schema-error"

    @pytest.mark.parametrize("value", ["0.5", "true"])
    def test_non_rational_divisor_override_is_schema_error(self, capsys, sg_file, value):
        code = run_command(["epsilon", sg_file, "--divisor", '{"P": %s}' % value])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        out = json.loads(captured.out)
        assert out["error"]["code"] == "schema-error"
        assert [p["path"] for p in out["error"]["problems"]] == ["--divisor.P"]

    @pytest.mark.parametrize(
        "length",
        ["9" * 4301, "1/" + "7" * 4301, "-" + "3" * 5000],
        ids=["numerator", "denominator", "negative"],
    )
    def test_overlong_literal_names_the_limit(self, capsys, tmp_path, length):
        doc = json.loads(SG_DOC)
        doc["edges"][0]["length"] = length
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, ["epsilon", str(path)])
        assert code == 1 and out["error"]["code"] == "schema-error"
        [problem] = out["error"]["problems"]
        assert problem["path"] == "edges[0].length"
        assert "4300 digits" in problem["message"]
        assert "set_int_max_str_digits" not in problem["message"]

    def test_overlong_divisor_literal_names_the_limit(self, capsys, sg_file):
        code, out = run(capsys, ["epsilon", sg_file, "--divisor", '{"P": "%s"}' % ("1" * 4400)])
        assert code == 1 and out["error"]["code"] == "schema-error"
        message = out["error"]["problems"][0]["message"]
        assert "4300 digits" in message and "set_int_max_str_digits" not in message


class TestLongNumbers:
    def test_800_digit_ladder3_matches_the_closed_form(self, capsys, tmp_path):
        # lengths alternate by class between an 800-digit integer and the
        # reciprocal of another; epsilon's denominator has about 5600 digits
        h = ag.ladder_graph(3)
        lengths = {
            c: Fraction(int("9" * 800)) if k % 2 == 0 else Fraction(1, int("7" * 800))
            for k, c in enumerate(h.classes())
        }
        h = ag.with_lengths(h, lengths)
        coeffs = {v: ag.nu_counts(h, v)[2] - 2 for v in h.nonfixed_vertices}
        coeffs.update({v: 1 for v in h.fixed_vertices})
        d = ag.Divisor(coeffs)
        path = tmp_path / "ladder3-long.json"
        path.write_text(serialize_document(document_from(h.graph, h.involution, d)))
        closed = ag.format_rational(ag.epsilon_closed_form(h, d))
        code, out = run(capsys, ["epsilon", str(path)])
        assert code == 0 and out["epsilon"] == closed
        code, out = run(capsys, ["compare", str(path)])
        assert code == 0 and out["agree"] is True
        assert out["epsilon_numeric"] == out["epsilon_closed"] == closed
