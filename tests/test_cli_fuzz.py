"""The CLI contract under fuzzing.

For any argv and any document, ``run_command`` exits 0, 1 or 2 and prints
exactly one JSON object (on stdout for 0 and 1, on stderr for 2) and nothing
else; no exception escapes.  Every document that parses is a fixed point of
parse -> serialize -> parse.  Documents are ladder documents with mutations:
lengths of every kind (ints, floats, zero, negative, 5000 digits), wrong
types for edges, involution and divisor, duplicate ids and bad edge ends.
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import admgraph as ag
from admgraph.cli import run_command
from admgraph.documents import document_from, parse_graph_document, serialize_document

COMMANDS = (
    "validate",
    "resistance",
    "measure",
    "green",
    "epsilon",
    "epsilon-closed",
    "lpoly",
    "mpoly",
    "classify-edges",
    "classify-nodes",
    "compare",
    "bound",
    "gen",
)


def ladder_document(n):
    h = ag.ladder_graph(n)
    d = ag.random_polarization(h, n)
    return json.loads(serialize_document(document_from(h.graph, h.involution, d)))


BASES = [ladder_document(2), ladder_document(3)]
DIGITS = "9" * 5000
LENGTHS = st.sampled_from(
    [3, 0, -1, 0.5, True, None, "0", "-1", "-2/3", "1/0", "abc", "3/2", DIGITS, "1/" + DIGITS]
) | st.integers(1, 10**4).map(str)
WRONG = st.sampled_from([None, 5, 0.5, "x", True, [], {}, [1, 2], {"a": 1}, [{"id": 3}]]).map(
    copy.deepcopy  # later mutations must not edit the shared samples
)
IDS = ["O", "P1+", "P2-", "Q1", "Z", "", "e0+", "f1-"]


def mutate(doc, kind, draw):
    """Apply one mutation of the given kind in place (skipped when the part
    it targets is already malformed)."""
    edges = doc.get("edges") if isinstance(doc.get("edges"), list) else []
    vertices = doc.get("vertices") if isinstance(doc.get("vertices"), list) else []
    edge = draw(st.sampled_from(edges)) if edges else None
    if not isinstance(edge, dict):
        edge = None
    if kind == "length" and edge is not None:
        edge["length"] = draw(LENGTHS)
    elif kind == "all lengths":
        # one value everywhere keeps the involution an isometry
        value = draw(st.sampled_from(["4/3", "7" * 300, "1/" + "3" * 1500, DIGITS[:2000]]))
        for e in edges:
            if isinstance(e, dict):
                e["length"] = value
    elif kind in ("edges", "involution", "divisor", "vertices"):
        doc[kind] = draw(WRONG)
    elif kind == "involution part" and isinstance(doc.get("involution"), dict):
        doc["involution"][draw(st.sampled_from(["vertices", "edges"]))] = draw(
            WRONG | st.dictionaries(st.sampled_from(IDS), st.sampled_from(IDS + [None, 3]))
        )
    elif kind == "divisor value":
        doc["divisor"] = {draw(st.sampled_from(IDS)): draw(LENGTHS)}
    elif kind == "duplicate" and vertices and edges:
        target = draw(st.sampled_from([vertices, edges]))
        target.append(copy.deepcopy(target[0]))
    elif kind == "ends" and edge is not None:
        edge["ends"] = draw(
            st.sampled_from([["P1+"], ["P1+", "P1+"], ["P1+", "Z"], "OP1", [1, 2], None])
            | st.lists(st.sampled_from(IDS), max_size=3)
        )
    elif kind == "genus" and vertices and isinstance(vertices[0], dict):
        vertices[0]["genus"] = draw(WRONG | st.integers(-2, 3))
    elif kind == "drop":
        doc.pop(draw(st.sampled_from(["vertices", "edges", "involution", "divisor"])), None)
    elif kind == "unknown key":
        doc[draw(st.sampled_from(["extra", "Vertices"]))] = 1


MUTATIONS = st.sampled_from(
    [
        "length",
        "all lengths",
        "edges",
        "involution",
        "divisor",
        "vertices",
        "involution part",
        "divisor value",
        "duplicate",
        "ends",
        "genus",
        "drop",
        "unknown key",
    ]
)
TOKENS = st.sampled_from(
    [
        "--divisor",
        '{"O": "1"}',
        '{"O": 0.5}',
        '{"P1+": "-2"}',
        "[]",
        "{",
        "--edge",
        "nope",
        "--strategy",
        "symmetric",
        "definition",
        "bogus",
        "--genus",
        "--xi0",
        "--xi",
        "--delta",
        "1=2",
        "x=y",
        "--seed",
        "--min-size",
        "--max-size",
        "3",
        "0",
        "-1",
        "10001",
        "-h",
        "--help",
        "--",
    ]
    + IDS
) | st.text(max_size=6)


# arguments that make each command succeed on an intact ladder document
ARGS = {
    "resistance": ["O", "P1+"],
    "green": ["O"],
    "bound": ["--genus", "3"],
    "gen": ["--seed", "1"],
}


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv):
    code, out, err = invoke(argv)
    assert code in (0, 1, 2), (argv, code)
    printed, silent = (err, out) if code == 2 else (out, err)
    assert silent == "", (argv, code)
    assert printed.endswith("\n") and printed.count("\n") == 1, (argv, printed[:200])
    assert isinstance(json.loads(printed), dict), (argv, printed[:200])
    return printed


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


FUZZ = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@FUZZ
@given(data=st.data())
def test_mutated_documents_keep_the_contract(doc_path, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    for kind in data.draw(st.lists(MUTATIONS, max_size=3)):
        mutate(doc, kind, data.draw)
    text = json.dumps(doc)
    doc_path.write_text(text, encoding="utf-8")
    try:
        parsed = parse_graph_document(text)
    except ag.SchemaError:
        pass
    else:
        canonical = serialize_document(parsed)
        assert parse_graph_document(canonical) == parsed
        assert serialize_document(parse_graph_document(canonical)) == canonical
    command = data.draw(st.sampled_from(COMMANDS))
    extra = data.draw(st.just(ARGS.get(command, [])) | st.lists(TOKENS, max_size=3))
    assert_contract([command, str(doc_path)] + extra)


@FUZZ
@given(
    argv=st.lists(st.sampled_from(COMMANDS) | TOKENS, max_size=5),
    with_doc=st.booleans(),
)
def test_random_argv_keeps_the_contract(doc_path, argv, with_doc):
    doc_path.write_text(json.dumps(BASES[0]), encoding="utf-8")
    if with_doc and argv:
        argv = argv[:1] + [str(doc_path)] + argv[1:]
    assert_contract(argv)


INTEGER_OPTIONS = {"bound": ["--genus", "--xi0"], "gen": ["--seed", "--min-size", "--max-size"]}


@FUZZ
@given(data=st.data())
def test_overlong_integer_options_are_not_echoed(data):
    command = data.draw(st.sampled_from(sorted(INTEGER_OPTIONS)))
    flag = data.draw(st.sampled_from(INTEGER_OPTIONS[command]))
    value = data.draw(st.sampled_from([DIGITS, "-" + DIGITS, "+" + DIGITS, " " + DIGITS]))
    # after "--" argparse takes the value for an unrecognized positional and
    # echoes it in that message instead
    before = data.draw(st.lists(TOKENS.filter(lambda t: t != "--"), max_size=2))
    after = data.draw(st.lists(TOKENS, max_size=2))
    argv = [command] + before + [flag, value] + after
    printed = assert_contract(argv)
    assert "9" * 100 not in printed, ([a[:20] for a in argv], printed[:200])


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_on_an_intact_document(doc_path, command):
    doc_path.write_text(json.dumps(BASES[1]), encoding="utf-8")
    argv = [command] + ([] if command in ("bound", "gen") else [str(doc_path)])
    code, out, _ = invoke(argv + ARGS.get(command, []))
    assert code == 0, out
    json.loads(out)


def test_results_longer_than_the_int_string_limit(doc_path):
    # 1500-digit lengths of two sizes give a 4501-digit resistance, past the
    # 4300 digits that str(int) accepts by default
    doc = copy.deepcopy(BASES[0])
    for k, e in enumerate(doc["edges"]):
        e["length"] = "9" * 1500 if k % 2 else "1/" + "7" * 1500
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = invoke(["resistance", str(doc_path), "O", "P1+"])
    assert code == 0, out[:200]
    g = parse_graph_document(json.dumps(doc)).to_graph()
    expected = ag.effective_resistance(g, "O", "P1+")
    assert json.loads(out) == {"resistance": ag.format_rational(expected)}
    assert max(expected.numerator, expected.denominator) > 10**4300


def test_closed_stdout_prints_no_traceback(tmp_path):
    # ladder8's L is 256 KB of JSON, more than a pipe holds, so the CLI is
    # still writing when the reader closes its end after 200 bytes
    h = ag.ladder_graph(8)
    path = tmp_path / "ladder8.json"
    path.write_text(serialize_document(document_from(h.graph, h.involution)), encoding="utf-8")
    src = str(Path(ag.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "admgraph", "lpoly", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(200)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert head.startswith(b'{"size": 9, "polynomial": [')
    assert b"Traceback" not in err, err.decode()[-2000:]
    assert proc.returncode in (0, 1, 2)
