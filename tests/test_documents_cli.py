"""Document schema, canonical serialization, and the CLI surface."""

import hashlib
import itertools
import json
import re
import sys
from fractions import Fraction

import pytest

import _oracles
import admgraph as ag
from admgraph import cli, documents
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

    def test_overlong_ids_are_named_by_length(self):
        long = "v" * 300
        shown = "<an id of 300 characters>"
        bad = json.loads(SG_DOC)
        bad["vertices"] += [{"id": long}, {"id": long, long: 1}]
        bad["edges"] += [
            {"id": long, "ends": ["P", "Q"], "length": "1"},
            {"id": long, "ends": ["P", "Q"], "length": "1", long: 1, "x": 1},
        ]
        bad["involution"]["vertices"][long + "w"] = long + "x"
        bad["involution"]["edges"]["e+"] = long + "y"
        bad["divisor"][long + "z"] = "z"
        bad[long] = 1
        with pytest.raises(ag.SchemaError) as err:
            parse_graph_document(json.dumps(bad))
        assert err.value.problems == (
            (shown, "unknown key"),
            ("vertices[3].id", f"duplicate vertex id {shown}"),
            ("vertices[3]", f"unknown keys [{shown}]"),
            ("edges[3].id", f"duplicate edge id {shown}"),
            ("edges[3]", f"unknown keys [{shown}, 'x']"),
            ("involution.vertices.<an id of 301 characters>", "unknown id"),
            (
                "involution.vertices.<an id of 301 characters>",
                "maps to unknown id <an id of 301 characters>",
            ),
            ("involution.edges.e+", "maps to unknown id <an id of 301 characters>"),
            ("divisor.<an id of 301 characters>", "unknown vertex"),
            ("divisor.<an id of 301 characters>", "bad rational literal: 'z'"),
        )
        assert "v" * 100 not in str(err.value)

    def test_ids_up_to_the_limit_are_echoed(self):
        bad = json.loads(SG_DOC)
        bad["vertices"].append({"id": "P", "g": 1})
        bad["involution"]["edges"]["e+"] = "Z"
        bad["divisor"]["Z"] = "1"
        with pytest.raises(ag.SchemaError) as err:
            parse_graph_document(json.dumps(bad))
        assert err.value.problems == (
            ("vertices[2].id", "duplicate vertex id 'P'"),
            ("vertices[2]", "unknown keys ['g']"),
            ("involution.edges.e+", "maps to unknown id 'Z'"),
            ("divisor.Z", "unknown vertex"),
        )

    @pytest.mark.parametrize(
        "part, value, problems",
        [
            ("divisor", {1: "1"}, (("divisor.1", "unknown vertex"),)),
            ("divisor", {None: "1"}, (("divisor.None", "unknown vertex"),)),
            (
                "divisor",
                {10**200: "1"},
                (("divisor.<an integer of 201 digits>", "unknown vertex"),),
            ),
            (
                "involution",
                {"vertices": {1: "P"}, "edges": {}},
                (("involution.vertices.1", "unknown id"),),
            ),
        ],
    )
    def test_non_string_key_of_a_map_is_named_in_the_path(self, part, value, problems):
        # only a Python dict, never JSON text, can hold such a key
        bad = json.loads(SG_DOC)
        bad[part] = value
        with pytest.raises(ag.SchemaError) as err:
            parse_graph_document(bad)
        assert err.value.problems == problems

    def test_unknown_keys_of_mixed_types_are_listed(self):
        bad = json.loads(SG_DOC)
        bad.update({1: 2, "zz": 3, "a": 4})
        bad["vertices"][0].update({2: 3, "zz": 1, None: 0})
        with pytest.raises(ag.SchemaError) as err:
            parse_graph_document(bad)
        assert err.value.problems == (
            ("a", "unknown key"),
            ("zz", "unknown key"),
            ("1", "unknown key"),
            ("vertices[0]", "unknown keys ['zz', 2, None]"),
        )

    @pytest.mark.parametrize("at", ["vertices", "length"])
    def test_nesting_past_the_json_reader_is_a_schema_error(self, at):
        # a whole document nested so deep is a CLI test
        deep = "[" * 100_000 + "]" * 100_000
        text = {
            "vertices": '{"vertices": ' + deep + "}",
            "length": SG_DOC.replace('"length": "1"', '"length": ' + deep, 1),
        }[at]
        with pytest.raises(ag.SchemaError) as err:
            parse_graph_document(text)
        assert err.value.problems == (("$", "malformed JSON: nested too deeply"),)

    def test_each_literal_is_parsed_once(self, monkeypatch):
        # the two edges of a class share one Fraction, so the involution's
        # length check compares them by identity
        literals = []
        parse = documents.parse_rational
        monkeypatch.setattr(documents, "parse_rational", lambda t: literals.append(t) or parse(t))
        doc = parse_graph_document(SG_DOC)
        assert literals == ["1"]
        assert doc.edges[0][2] is doc.edges[1][2] is doc.divisor[0][1] is doc.divisor[1][1]

    def test_overlong_values_are_named_by_kind_and_size(self):
        bad = json.loads(SG_DOC)
        bad["involution"]["vertices"]["P"] = [0] * 100_000
        bad["involution"]["vertices"]["Q"] = {"k": "x" * 200}
        # up to the limit a value is echoed exactly: repr(["x" * 96]) has 100 characters
        bad["involution"]["edges"] = {"e+": ["x" * 96], "e-": ["x" * 97]}
        with pytest.raises(ag.SchemaError) as err:
            parse_graph_document(json.dumps(bad))
        assert err.value.problems == (
            ("involution.vertices.P", "maps to unknown id <a list of 100000 items>"),
            ("involution.vertices.Q", "maps to unknown id <a dict of 1 item>"),
            ("involution.edges.e+", f"maps to unknown id {['x' * 96]!r}"),
            ("involution.edges.e-", "maps to unknown id <a list of 1 item>"),
        )


# one problem each, on the second vertex or edge where an item is named
FAULTS = {
    "duplicate vertex": lambda d: d["vertices"][1].update(id="P"),
    "bad genus": lambda d: d["vertices"][1].update(genus=-1),
    "vertex key": lambda d: d["vertices"][1].update(x=1),
    "vertex not an object": lambda d: d["vertices"].__setitem__(1, "Q"),
    "duplicate edge": lambda d: d["edges"][1].update(id="e+"),
    "unknown end": lambda d: d["edges"][1].update(ends=["P", "Z"]),
    "bad ends": lambda d: d["edges"][1].update(ends="PQ"),
    "bad length": lambda d: d["edges"][1].update(length="x"),
    "edge key": lambda d: d["edges"][1].update(y=1),
    "unknown involution id": lambda d: d["involution"]["vertices"].update(Z="P"),
    "maps to unknown id": lambda d: d["involution"]["edges"].update({"e+": 3}),
    "involution key": lambda d: d["involution"].update(z={}),
    "divisor vertex": lambda d: d["divisor"].update(Z="x"),
    "divisor not an object": lambda d: d.update(divisor=[]),
    "document key": lambda d: d.update(extra=1),
}


def test_problems_in_every_combination_match_the_first_parser():
    # every set of up to three faults gives the first parser's problems,
    # in its order
    for size in (1, 2, 3):
        for faults in itertools.combinations(FAULTS, size):
            doc = json.loads(SG_DOC)
            for fault in faults:
                FAULTS[fault](doc)
            text = json.dumps(doc)
            with pytest.raises(ag.SchemaError) as err:
                parse_graph_document(text)
            with pytest.raises(ag.SchemaError) as reference:
                _oracles.parse_graph_document(text)
            assert err.value.problems == reference.value.problems, faults


@pytest.fixture
def digit_limit_640():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize(
    "literal",
    ["9" * 640, "-" + "9" * 640, " 1/" + "7" * 640 + " ", "9" * 640 + "/" + "7" * 640, " " * 700 + "5"],
    ids=["p", "-p", "1/q", "p/q", "padded"],
)
def test_literals_at_the_smallest_digit_limit_are_accepted(digit_limit_640, literal):
    doc = json.loads(SG_DOC)
    doc["divisor"]["P"] = literal
    parsed = parse_graph_document(json.dumps(doc))
    assert parsed == _oracles.parse_graph_document(json.dumps(doc))
    assert dict(parsed.divisor)["P"] == _oracles.parse_rational(literal)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize(
    "literal",
    ["9" * 641, "-" + "9" * 641, " 1/" + "7" * 641 + " ", "9" * 641 + "/1"],
    ids=["p", "-p", "1/q", "p/1"],
)
def test_literals_past_the_smallest_digit_limit_are_refused(digit_limit_640, literal):
    doc = json.loads(SG_DOC)
    doc["divisor"]["P"] = literal
    with pytest.raises(ag.SchemaError) as err:
        parse_graph_document(json.dumps(doc))
    assert err.value.problems == (
        (
            "divisor.P",
            "rational literal too long: an integer of 641 digits, "
            "more than the 640 digits admgraph reads per integer",
        ),
    )
    with pytest.raises(ag.SchemaError) as reference:
        _oracles.parse_graph_document(json.dumps(doc))
    assert reference.value.problems == err.value.problems


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

    # sha256 of json.dumps(serialize_polynomial(...)) on the ladders: pins the
    # order, spelling and coefficients of every term, not only their count
    LADDER_L = {
        2: "2b600777cb249810fcad71a24392e5efa9d412634a0fbcd61e47086130b43e97",
        3: "72c7979c64b9d8218fedaf387f50f0c89b5f582f28579f7f848a3bb1d532d503",
        4: "40210eea1358c9e14d8c025f40d159b03e127d5639d4447f2fa9c3a8da4541a8",
        5: "c7c932562594ad57842f4545a97aeb077b60aa25a074ad9568172d153ffd1515",
        6: "214efda69123df7860cc4502e3f712163a59d9260818c25d47af903fc85d2e37",
        7: "290775abd029a499e2e4b659286cfaade9b59d1c2c532f46e7f5a3a0072988cd",
        8: "27c465e5173423059bc929f9a2d7701982706bb71e1c00c81107908c5aab2112",
        9: "3c647e7ea014aaf894857905d590f0037bf833053462df9d5ff264b9ff86f689",
        10: "7c7ba6e3b0f8904f3f2964a20b973cb24f58c1a26418ed5d45038d270a0c4048",
    }
    LADDER_M = {
        2: "6268998de2f0e264ecde48708127fda7426b6691181ffab3720b71882efbf5c6",
        3: "333d74693cc362b400e8399a9b3191b7300240d2b2be963bb8578a2600f13e25",
        4: "210adb3f8475fc372b36bebbb5c7d3d1b5434d0b99a707f6297fe2f04ac23db2",
        5: "49225909b132913a57b1c8966345e1563142806563609deafb2eff00c2a96cf5",
        6: "f83ee486a72ad2703db0f503998c631d87f8cd2fcd2fe1d50d74f9215bfb7912",
        7: "749e7f1a66fc51f08c9d397e9b3333d94e8f3fcf2cfe4e8556bc79d84b23ad61",
        8: "9a76c23d65a748b450ec9eeac19db582349a54733a274d8e6a5de5d619111f54",
        9: "01a72245b9e4a66af20416e72417a73a05765b4363414f9f758797b5b099082b",
    }

    @pytest.mark.parametrize(
        "symbolic, n",
        [("l_polynomial", n) for n in LADDER_L] + [("m_polynomial", n) for n in LADDER_M],
    )
    def test_ladder_polynomials_byte_identical(self, symbolic, n):
        poly = getattr(ag, symbolic)(ag.ladder_graph(n))
        text = json.dumps(serialize_polynomial(poly))
        expected = (self.LADDER_L if symbolic == "l_polynomial" else self.LADDER_M)[n]
        assert hashlib.sha256(text.encode()).hexdigest() == expected


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

    # sha256 of the help of the top level and of each command, in the order
    # of the command table.  argparse lays help out differently across
    # Python versions, so the pins hold for the version they were taken on.
    HELP_SHA256 = {
        None: "f7bd58d7accdbff3aa92e555d631a94bc17ba6398d50627271038ac7daa0ea18",
        "validate": "96064c39c2f7939ba05e81ec189e1403f5c4976919ee3e81c0108e74efc1dacb",
        "resistance": "7160cf3922d366899c585c0d8551bc875a768733be1cc5436d18e884467b3554",
        "measure": "e59550bbc1d2d2813b4adfefe811481587dafaf55b940502657aae3f27139c53",
        "green": "62730c84672f7f3abd2d81f0731905638d70706d7b8f9631aee1055b4f3c75b2",
        "epsilon": "28a70a2f4d57e33fd93b229f625b53e2f804b42c622d23da834aa0e6c0d37bbf",
        "epsilon-closed": "9ed9e0ecce08c00abe4ddc736d4c21ae5f802de950190b982dc53a8651967af7",
        "lpoly": "2e0f00ebacb0baab43c4b4b8e850d979877c7560db1001e7f92af1d66b7805a4",
        "mpoly": "143f88bcc48318c88d82fd7108f0025f3a18622b9fa16920805523dde2874288",
        "classify-edges": "136a9fc55b59f284f7c2c4c9dab948aa2ae6ba17d0494153789d4a8bd6efd7c3",
        "classify-nodes": "76bf62d5d83d800d1463248219dd0e92560619f90a40515124abdc23dfd00853",
        "compare": "e59b0d1afa7bb21d756d16cfb5974f93883665572c102e72e93dc5696642e047",
        "bound": "efedc57c4344309cdb40d69932b13dbb017cbaf46526d65a53b47cf21291ba86",
        "gen": "12ac35d4a38325a33c7b94b39cd09820b1579f10ebea9ef3bddc7a8c94d44bde",
    }

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help pinned on Python 3.11")
    @pytest.mark.parametrize("command", list(HELP_SHA256))
    def test_help_texts_are_pinned(self, capsys, command):
        code, out = run(capsys, ([command] if command else []) + ["-h"])
        assert code == 0
        assert hashlib.sha256(out["help"].encode()).hexdigest() == self.HELP_SHA256[command]

    def test_invalid_choice_lists_the_commands_in_table_order(self, capsys):
        assert run_command(["nope"]) == 2
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        listed = re.findall(r"[\w-]+", message.split("choose from", 1)[1])
        assert listed == [c for c in self.HELP_SHA256 if c] == list(cli._COMMANDS)

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

    def test_missing_file_is_reported_before_the_endpoint_count(self, capsys):
        code = run_command(["resistance", "no-such-file.json", "a"])
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert (code, message.split(":")[0]) == (2, "file-not-found")

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

    @pytest.mark.parametrize(
        "command, extra",
        [("measure", []), ("green", ["P"]), ("epsilon", []), ("epsilon-closed", []),
         ("compare", [])],
    )
    def test_empty_divisor_is_malformed_json(self, capsys, sg_file, command, extra):
        # the document's divisor is not taken in place of the empty one
        code, out = run(capsys, [command, sg_file, *extra, "--divisor", ""])
        assert (code, out["error"]["code"]) == (1, "schema-error")
        (problem,) = out["error"]["problems"]
        assert problem["path"] == "--divisor"
        assert problem["message"].startswith("malformed JSON: ")

    def test_resistance_takes_endpoints_or_edge_not_both(self, capsys, sg_file):
        code = run_command(["resistance", sg_file, "P", "Q", "--edge", "e+"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err) == {
            "error": {
                "code": "usage",
                "message": "resistance takes two vertex ids or --edge, not both",
            }
        }
        # an empty edge id is a value too, not a missing --edge
        assert run_command(["resistance", sg_file, "P", "Q", "--edge", ""]) == 2
        capsys.readouterr()
        code, out = run(capsys, ["resistance", sg_file, "--edge", ""])
        assert (code, out["error"]) == (1, {"code": "unknown-id", "message": "unknown edge ''"})

    @pytest.mark.parametrize("digit", ["3", "\u0663", "\uff13"])  # ASCII, Arabic-Indic, fullwidth
    def test_rational_literals_are_ascii(self, capsys, tmp_path, sg_file, digit):
        problem = [] if digit == "3" else [f"bad rational literal: {digit!r}"]
        try:
            assert ag.parse_rational(digit) == 3
            assert not problem
        except ValueError as exc:
            assert [str(exc)] == problem
        edits = {
            "edges[0].length": lambda doc: doc["edges"][0].update(length=digit),
            "divisor.P": lambda doc: doc["divisor"].update(P=digit),
        }
        for place, edit in edits.items():
            doc = json.loads(SG_DOC)
            edit(doc)
            path = tmp_path / "edited.json"
            path.write_text(json.dumps(doc))
            code, out = run(capsys, ["epsilon", str(path)])
            problems = out["error"]["problems"] if code else []
            assert problems == [{"path": place, "message": m} for m in problem]
        override = json.dumps({"P": digit, "Q": "1"})
        code, out = run(capsys, ["epsilon", sg_file, "--divisor", override])
        problems = out["error"]["problems"] if code else []
        assert problems == [{"path": "--divisor.P", "message": m} for m in problem]

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

    @pytest.mark.parametrize("flag", ["--xi", "--delta"])
    @pytest.mark.parametrize("pair", ["1=" + "9" * 5000, "9" * 5000 + "=1"], ids=["value", "index"])
    def test_bound_overlong_integer_names_the_limit(self, capsys, flag, pair):
        code = run_command(["bound", "--genus", "5", flag, pair])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["code"] == "usage"
        assert error["message"] == (
            f"{flag} value too long: an integer of 5000 digits, "
            "more than the 4300 digits admgraph reads per integer"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--genus", "9" * 5000],
            ["bound", "--genus", "3", "--xi0", "-" + "9" * 5000],
            ["gen", "--seed", "9" * 5000],
            ["gen", "--seed", "1", "--min-size", "9" * 5000],
            ["gen", "--seed", "1", "--max-size", "+" + "9" * 5000],
        ],
        ids=["genus", "xi0", "seed", "min-size", "max-size"],
    )
    def test_overlong_integer_option_names_the_limit(self, capsys, argv):
        code = run_command(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["code"] == "usage"
        assert error["message"] == (
            f"argument {argv[-2]}: value too long: an integer of 5000 digits, "
            "more than the 4300 digits admgraph reads per integer"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bound", "--genus", "{}"], "argument --genus: invalid int value: {}"),
            (["gen", "--seed", "{}"], "argument --seed: invalid int value: {}"),
            (["bound", "--genus", "5", "--xi", "1={}"], "--xi expects i=v, got {}"),
            (["bound", "--genus", "5", "--xi", "{}=1"], "--xi expects i=v, got {}"),
            (["bound", "--genus", "5", "--delta", "1={}"], "--delta expects i=v, got {}"),
            (["bound", "--genus", "5", "--delta", "{}=1"], "--delta expects i=v, got {}"),
        ],
        ids=["genus", "seed", "xi-value", "xi-index", "delta-value", "delta-index"],
    )
    @pytest.mark.parametrize("digit", ["٣", "3"], ids=["arabic-indic", "ascii"])
    def test_digit_limit_counts_ascii_digits_only(self, capsys, argv, message, digit):
        # 5000 digits of another script are not an integer of the grammar:
        # the grammar's message, the value named by its length; 5000 ASCII
        # digits are one past the digit limit
        argv = [a.format(digit * 5000) for a in argv]
        code = run_command(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        error = json.loads(captured.err)["error"]
        if digit == "3":
            flag = next(a for a in reversed(argv) if a.startswith("--"))
            prefix = f"{flag} " if flag in ("--xi", "--delta") else f"argument {flag}: "
            assert error["message"] == (
                f"{prefix}value too long: an integer of 5000 digits, "
                "more than the 4300 digits admgraph reads per integer"
            )
        else:
            length = len(argv[-1])
            assert error == {
                "code": "usage",
                "message": message.format(f"<a value of {length} characters>"),
            }

    def test_bad_integer_option_keeps_the_argparse_message(self, capsys):
        code = run_command(["gen", "--seed", "abc"])
        captured = capsys.readouterr()
        assert code == 2
        message = json.loads(captured.err)["error"]["message"]
        assert message == "argument --seed: invalid int value: 'abc'"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bound", "--genus", "{}"], "argument --genus: invalid int value: {!r}"),
            (["bound", "--genus", "3", "--xi0", "{}"], "argument --xi0: invalid int value: {!r}"),
            (["gen", "--seed", "{}"], "argument --seed: invalid int value: {!r}"),
            (["gen", "--seed", "1", "--min-size", "{}"], "argument --min-size: invalid int value: {!r}"),
            (["gen", "--seed", "1", "--max-size", "{}"], "argument --max-size: invalid int value: {!r}"),
            (["bound", "--genus", "7", "--xi", "{}=1"], "--xi expects i=v, got {!r}"),
            (["bound", "--genus", "7", "--xi", "1={}"], "--xi expects i=v, got {!r}"),
            (["bound", "--genus", "7", "--delta", "{}=1"], "--delta expects i=v, got {!r}"),
            (["bound", "--genus", "7", "--delta", "1={}"], "--delta expects i=v, got {!r}"),
        ],
        ids=["genus", "xi0", "seed", "min-size", "max-size", "xi-index", "xi", "delta-index", "delta"],
    )
    @pytest.mark.parametrize(
        "value", ["\u0663", "\uff13", "3_0", "+3", " 3 "], ids=["arabic-indic", "fullwidth", "underscore", "plus", "spaces"]
    )
    def test_integer_options_read_ascii_integers(self, capsys, argv, message, value):
        # the integers of the rational grammar, -?[0-9]+ once whitespace is
        # stripped; Python's int() reads the others too
        argv = [a.format(value) for a in argv]
        code = run_command(argv)
        captured = capsys.readouterr()
        if value == " 3 ":
            assert code == 0 and captured.err == ""
            return
        assert code == 2 and captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error == {"code": "usage", "message": message.format(argv[-1])}

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

    @pytest.mark.parametrize("command", ["epsilon-closed", "compare", "epsilon"])
    def test_divisor_on_unknown_vertex(self, capsys, sg_file, command):
        code, out = run(capsys, [command, sg_file, "--divisor", '{"nope": "1"}'])
        assert code == 1
        assert out["error"] == {"code": "unknown-id", "message": "unknown vertex 'nope'"}

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
