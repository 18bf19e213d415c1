"""The CLI contract under fuzzing.

For any argv and any document, ``run_command`` exits 0, 1 or 2 and prints
exactly one JSON object (on stdout for 0 and 1, on stderr for 2) and nothing
else; no exception escapes.  Every document that parses is a fixed point of
parse -> serialize -> parse, and the parser gives every document the
outcome of the parser as first written (``_oracles.parse_graph_document``).
Documents are ladder documents with mutations: lengths of every kind (ints,
floats, zero, negative, 5000 digits), wrong types for edges, involution and
divisor, duplicate ids, bad edge ends, bytes that are not UTF-8 and arrays
nested past the JSON reader's recursion.
No message repeats an over-long argument or document id, and the parser
built for one call gives every argv the outcome of the parser with all 13
commands' arguments declared (``_oracles.full_parser``).  A fixed corpus,
drawn by ``random.Random`` from lists in this file, pins the outcomes of
390 calls by one sha256.
"""

import argparse
import collections
import contextlib
import copy
import errno
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _oracles
import admgraph as ag
from admgraph import cli
from admgraph.cli import run_command
from admgraph.documents import document_from, parse_graph_document, serialize_document
from admgraph.errors import ECHO_LIMIT
from conftest import shown_id

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
# placeholders that render() replaces in the document's bytes
BAD_BYTES = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"P\xfe"]
DEPTHS = [3, 300, 100_000]
PLACEHOLDER = re.compile(rb'"@(byte|deep)(\d+)@"')


def render(doc) -> bytes:
    """The document's JSON bytes, each "@byteK@" string replaced by the raw
    bytes BAD_BYTES[K] and each "@deepK@" by arrays nested DEPTHS[K] deep."""

    def replace(m):
        k = int(m.group(2))
        if m.group(1) == b"byte":
            return b'"' + BAD_BYTES[k] + b'"'
        return b"[" * DEPTHS[k] + b"]" * DEPTHS[k]

    return PLACEHOLDER.sub(replace, json.dumps(doc).encode())


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
    elif kind in ("raw byte", "deep nesting"):
        name, values = ("byte", BAD_BYTES) if kind == "raw byte" else ("deep", DEPTHS)
        value = f"@{name}{draw(st.integers(0, len(values) - 1))}@"
        target = draw(st.sampled_from(["length", "id", "document part", "involution", "divisor"]))
        if target in ("length", "id") and edge is not None:
            edge[target] = value
        elif target == "involution" and isinstance(doc.get("involution"), dict):
            doc["involution"]["vertices"] = {"O": value}
        elif target == "divisor":
            doc["divisor"] = {"O": value}
        else:
            doc[draw(st.sampled_from(["vertices", "edges", "involution", "divisor"]))] = value


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
        "raw byte",
        "deep nesting",
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


def checked_invoke(argv):
    """The exit code and the one JSON line printed, the contract checked."""
    code, out, err = invoke(argv)
    assert code in (0, 1, 2), (argv, code)
    printed, silent = (err, out) if code == 2 else (out, err)
    assert silent == "", (argv, code)
    assert printed.endswith("\n") and printed.count("\n") == 1, (argv, printed[:200])
    assert isinstance(json.loads(printed), dict), (argv, printed[:200])
    return code, printed


def assert_contract(argv):
    return checked_invoke(argv)[1]


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
    text = render(doc)
    doc_path.write_bytes(text)
    parsed = parse_outcome(parse_graph_document, text)
    try:
        expected = parse_outcome(_oracles.parse_graph_document, text)
    except (UnicodeDecodeError, RecursionError):
        # what the first parser let escape is one problem at the root
        ((path, _),) = parsed
        assert path == "$"
    else:
        assert parsed == expected
    if isinstance(parsed, ag.GraphDocument):
        canonical = serialize_document(parsed)
        assert parse_graph_document(canonical) == parsed
        assert serialize_document(parse_graph_document(canonical)) == canonical
    command = data.draw(st.sampled_from(COMMANDS))
    extra = data.draw(st.just(ARGS.get(command, [])) | st.lists(TOKENS, max_size=3))
    assert_contract([command, str(doc_path)] + extra)


def parse_outcome(parse, text):
    """The parsed document, or the problems of the SchemaError raised."""
    try:
        return parse(text)
    except ag.SchemaError as exc:
        return exc.problems


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


LONG = st.sampled_from([DIGITS, "-" + DIGITS, " " + DIGITS, "x" + DIGITS, DIGITS + "=1"])


@FUZZ
@given(data=st.data())
def test_overlong_arguments_are_not_echoed(doc_path, data):
    # one over-long token as the command, the document, a positional or an
    # option's value; argparse's glued forms (--opt=VALUE, -hVALUE) aside
    doc_path.write_text(json.dumps(BASES[0]), encoding="utf-8")
    command = data.draw(st.sampled_from(COMMANDS))
    rest = [] if command in ("bound", "gen") else [str(doc_path)]
    rest += data.draw(st.just(ARGS.get(command, [])) | st.lists(TOKENS, max_size=3))
    at = data.draw(st.integers(0, len(rest) + 1))
    long = data.draw(LONG)
    argv = [long] + rest if at == 0 else [command] + rest[: at - 1] + [long] + rest[at - 1 :]
    printed = assert_contract(argv)
    assert "9" * 100 not in printed, ([a[:20] for a in argv], printed[:200])


# -- a corpus that the package's own literals do not change -------------
#
# hypothesis also draws string constants that it mines from the package's
# source, so the examples above change whenever src/ gains a literal.  This
# corpus is drawn by random.Random from fixed lists instead, and one sha256
# pins its outcomes: exit code, stream and error code (the messages differ
# between Python releases).  Its tokens leave out "--" and abbreviated or
# glued options, which argparse reads differently between releases.

CORPUS_SEED = 20261020
CORPUS_SIZE = 390  # 30 calls of each command
CORPUS_LENGTHS = [3, 0, -1, 0.5, True, None, "0", "-1", "-2/3", "1/0", "abc", "3/2", "17"]
CORPUS_LENGTHS += [DIGITS, "1/" + DIGITS]
CORPUS_WRONG = [None, 5, 0.5, "x", True, [], {}, [1, 2], {"a": 1}, [{"id": 3}]]
CORPUS_ENDS = [["P1+"], ["P1+", "P1+"], ["P1+", "Z"], "OP1", [1, 2], None, [], ["O", "Q1"]]
CORPUS_KINDS = [
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
    "raw byte",
    "deep nesting",
]
CORPUS_TOKENS = [
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
] + IDS
# sha256 of the repr of the list of CORPUS_SIZE outcomes
CORPUS_OUTCOMES = "c1b92833a6a7dee8079a4f813e1870e82103135ec04e1ce2005aabf1e286341e"


def corpus_mutate(doc, kind, rng):
    """mutate() with its choices drawn from rng and the lists above."""
    edges = doc.get("edges") if isinstance(doc.get("edges"), list) else []
    vertices = doc.get("vertices") if isinstance(doc.get("vertices"), list) else []
    edge = rng.choice(edges) if edges else None
    if not isinstance(edge, dict):
        edge = None
    wrong = copy.deepcopy(rng.choice(CORPUS_WRONG))
    if kind == "length" and edge is not None:
        edge["length"] = rng.choice(CORPUS_LENGTHS)
    elif kind == "all lengths":
        value = rng.choice(["4/3", "7" * 300, "1/" + "3" * 1500, DIGITS[:2000]])
        for e in edges:
            if isinstance(e, dict):
                e["length"] = value
    elif kind in ("edges", "involution", "divisor", "vertices"):
        doc[kind] = wrong
    elif kind == "involution part" and isinstance(doc.get("involution"), dict):
        part = rng.choice(["vertices", "edges"])
        doc["involution"][part] = rng.choice([wrong, {rng.choice(IDS): rng.choice(IDS + [None, 3])}])
    elif kind == "divisor value":
        doc["divisor"] = {rng.choice(IDS): rng.choice(CORPUS_LENGTHS)}
    elif kind == "duplicate" and vertices and edges:
        target = rng.choice([vertices, edges])
        target.append(copy.deepcopy(target[0]))
    elif kind == "ends" and edge is not None:
        edge["ends"] = copy.deepcopy(rng.choice(CORPUS_ENDS))
    elif kind == "genus" and vertices and isinstance(vertices[0], dict):
        vertices[0]["genus"] = rng.choice([wrong, rng.randint(-2, 3)])
    elif kind == "drop":
        doc.pop(rng.choice(["vertices", "edges", "involution", "divisor"]), None)
    elif kind == "unknown key":
        doc[rng.choice(["extra", "Vertices"])] = 1
    elif kind in ("raw byte", "deep nesting"):
        name, values = ("byte", BAD_BYTES) if kind == "raw byte" else ("deep", DEPTHS)
        value = f"@{name}{rng.randrange(len(values))}@"
        target = rng.choice(["length", "id", "document part", "involution", "divisor"])
        if target in ("length", "id") and edge is not None:
            edge[target] = value
        elif target == "involution" and isinstance(doc.get("involution"), dict):
            doc["involution"]["vertices"] = {"O": value}
        elif target == "divisor":
            doc["divisor"] = {"O": value}
        else:
            doc[rng.choice(["vertices", "edges", "involution", "divisor"])] = value


def corpus_cases():
    """(document bytes, argv without the document, whether the document
    goes in) for each call of the corpus, every command in turn."""
    rng = random.Random(CORPUS_SEED)
    for k in range(CORPUS_SIZE):
        doc = copy.deepcopy(rng.choice(BASES))
        for kind in rng.choices(CORPUS_KINDS, k=rng.choice([0, 0, 1, 1, 2, 3])):
            corpus_mutate(doc, kind, rng)
        command = COMMANDS[k % len(COMMANDS)]
        if rng.random() < 0.6:
            extra = ARGS.get(command, [])
        else:
            extra = rng.choices(CORPUS_TOKENS, k=rng.randint(0, 3))
        with_doc = command not in ("bound", "gen") or rng.random() < 0.25
        yield render(doc), [command] + extra, with_doc


def test_fixed_corpus_outcomes_are_pinned(doc_path):
    outcomes = []
    for text, argv, with_doc in corpus_cases():
        doc_path.write_bytes(text)
        if with_doc:
            argv = argv[:1] + [str(doc_path)] + argv[1:]
        code, printed = checked_invoke(argv)
        error = json.loads(printed).get("error")
        outcomes.append((code, "stderr" if code == 2 else "stdout", error and error["code"]))
    assert {code for code, _, _ in outcomes} == {0, 1, 2}
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == CORPUS_OUTCOMES, collections.Counter(outcomes)


NAME_TOO_LONG = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"
ID = "<an id of 5000 characters>"
ARGUMENT = "<an argument of 5000 characters>"
VALUE = "<a value of 5001 characters>"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["green", "DOC", DIGITS], 1, f"unknown vertex {ID}"),
        (["resistance", "DOC", "O", DIGITS], 1, f"unknown vertex {ID}"),
        (["resistance", "DOC", "--edge", DIGITS], 1, f"unknown edge {ID}"),
        (["bound", "--genus", "3", DIGITS], 2, f"unrecognized arguments: {ARGUMENT}"),
        (["gen", "--seed", "1", "x", DIGITS], 2, f"unrecognized arguments: x {ARGUMENT}"),
        (["validate", DIGITS], 2, f"file-not-found: {NAME_TOO_LONG}: <a path of 5000 characters>"),
        (["gen", "--seed", "x" + DIGITS], 2, f"argument --seed: invalid int value: {VALUE}"),
        (["bound", "--genus", "3", "--xi", "x" + DIGITS], 2, f"--xi expects i=v, got {VALUE}"),
        (["epsilon", "DOC", "--divisor", json.dumps({DIGITS: "1"})], 1, f"unknown vertex {ID}"),
        (
            ["epsilon", "DOC", "--divisor", json.dumps({DIGITS: "x"})],
            1,
            f"--divisor.{ID}: bad rational literal: 'x'",
        ),
        (
            ["epsilon", "DOC", "--divisor", json.dumps({"O": "x" + DIGITS})],
            1,
            "--divisor.O: bad rational literal: <a literal of 5001 characters>",
        ),
        # up to the limit an id is echoed exactly
        (["green", "DOC", "Q" * ECHO_LIMIT], 1, f"unknown vertex {'Q' * ECHO_LIMIT!r}"),
        (
            ["green", "DOC", "Q" * (ECHO_LIMIT + 1)],
            1,
            f"unknown vertex <an id of {ECHO_LIMIT + 1} characters>",
        ),
        (["resistance", "DOC", "--edge", "nope"], 1, "unknown edge 'nope'"),
        (["bound", "--genus", "3", "Q"], 2, "unrecognized arguments: Q"),
    ],
)
def test_overlong_ids_and_arguments_are_named_by_length(doc_path, argv, code, message):
    doc_path.write_text(json.dumps(BASES[0]), encoding="utf-8")
    argv = [str(doc_path) if a == "DOC" else a for a in argv]
    printed = assert_contract(argv)
    assert invoke(argv)[0] == code
    assert json.loads(printed)["error"]["message"] == message


# argparse echoes a value glued to an option: bare in "ambiguous option:
# --x=VALUE could match --xi0, --xi", quoted in "argument -h/--help: ignored
# explicit argument 'VALUE'".  Whether -hVALUE is refused (exit 2) or read as
# -h (help, exit 0; Python 3.13.13) is the running argparse's choice.
@pytest.mark.parametrize("flag, quoted", [("--x=", False), ("-h", True), ("--help=", True)])
@pytest.mark.parametrize("length", [1, ECHO_LIMIT, ECHO_LIMIT + 1, 5000])
def test_overlong_glued_option_values_are_named_by_length(monkeypatch, flag, quoted, length):
    value = "9" * length
    argv = ["bound", flag + value]
    printed = assert_contract(argv)
    code = invoke(argv)[0]
    monkeypatch.setattr(cli, "_glued_value_shown", lambda message: message)
    raw = assert_contract(argv)
    assert code == invoke(argv)[0]
    if length > ECHO_LIMIT:
        assert value[:ECHO_LIMIT] not in printed
    if code == 0:
        assert flag == "-h" and printed == raw and "help" in json.loads(printed)
        return
    assert code == 2
    message = json.loads(printed)["error"]["message"]
    raw = json.loads(raw)["error"]["message"]
    if length <= ECHO_LIMIT:
        assert message == raw
    else:
        echoed = repr(value) if quoted else value
        assert message == raw.replace(echoed, f"<a value of {length} characters>")


def test_overlong_command_is_named_by_length():
    # argparse's own message for an unknown command; how it quotes the
    # choices differs between Python releases
    reference = argparse.ArgumentParser(prog="admgraph", exit_on_error=False)
    commands = reference.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        commands.add_parser(command)
    with pytest.raises(argparse.ArgumentError) as info:
        reference.parse_args(["nope"])
    short = json.loads(assert_contract(["nope"]))["error"]["message"]
    long = json.loads(assert_contract([DIGITS]))["error"]["message"]
    assert short == str(info.value)
    assert short.startswith("argument command: invalid choice: 'nope' (choose from ")
    assert long == short.replace("'nope'", "<a name of 5000 characters>")


def edge(eid, u, w, length="1"):
    return {"id": eid, "ends": [u, w], "length": length}


def plain_document(vertices, edges):
    return {"vertices": [{"id": v} for v in vertices], "edges": edges}


def loop_edge_document(x):
    return plain_document(["v", "w"], [edge(x, "v", "v"), edge("b", "v", "w")])


def swap_pair_document(edges, emap, vertices=("O", "Q", "P+", "P-")):
    """A document whose vertices named O or Q are fixed and whose other two
    vertices are swapped, with the given edges and edge map."""
    nonfixed = [v for v in vertices if v not in ("O", "Q")]
    vmap = {v: v for v in vertices if v in ("O", "Q")}
    vmap.update({nonfixed[0]: nonfixed[1], nonfixed[1]: nonfixed[0]})
    doc = plain_document(vertices, edges)
    doc["involution"] = {"vertices": vmap, "edges": emap}
    return doc


def cyclic_vertex_map_document(x):
    doc = plain_document([x, "P", "Q"], [edge("a", x, "P"), edge("b", "P", "Q")])
    doc["involution"] = {"vertices": {x: "P", "P": "Q", "Q": x}, "edges": {"a": "a", "b": "b"}}
    return doc


def ladder_with_vertex(x):
    """ladder_document(2) with non-fixed vertex P1+ renamed to x, and a
    divisor of 0 at x and its image, where the closed form needs nu - 2 = 1."""
    text = json.dumps(BASES[0]).replace('"P1+"', json.dumps(x))
    doc = json.loads(text)
    doc["divisor"].update({x: "0", "P1-": "0"})
    return doc


# (command and arguments, document of an id x, message with the id shown as {})
OVERLONG_ID_MESSAGES = {
    "loop at a vertex": (
        ["validate"],
        lambda x: plain_document([x, "w"], [edge("a", x, x), edge("b", x, "w")]),
        "edge 'a': self-loop at {}",
    ),
    "loop edge": (
        ["validate"],
        loop_edge_document,
        "edge {}: self-loop at 'v'",
    ),
    "loop edge of the loop-free constructor": (
        ["epsilon", "--divisor", "{}"],
        loop_edge_document,
        "edge {} is a self-loop",
    ),
    "nonpositive length": (
        ["validate"],
        lambda x: plain_document(["v", "w"], [edge(x, "v", "w", "0")]),
        "edge {}: nonpositive length 0",
    ),
    "edge map not an involution": (
        ["validate"],
        lambda x: swap_pair_document(
            [edge(x, "O", "P+"), edge("a", "O", "P-"), edge("b", "Q", "P-"), edge("c", "O", "Q")],
            {x: "a", "a": "b", "b": x, "c": "c"},
        ),
        "edge map does not square to identity at {}",
    ),
    "edge map breaks endpoints": (
        ["validate"],
        lambda x: swap_pair_document(
            [edge(x, "O", "P+"), edge("a", "Q", "P-"), edge("c", "O", "Q")],
            {x: "a", "a": x, "c": "c"},
        ),
        "edge map incompatible with endpoints at {}",
    ),
    "orbit lengths differ": (
        ["validate"],
        lambda x: swap_pair_document(
            [edge(x, "O", "P+"), edge("a", "O", "P-", "2")]
            + [edge("b", "Q", "P+"), edge("c", "Q", "P-")],
            {x: "a", "a": x, "b": "c", "c": "b"},
        ),
        "lengths differ within the orbit of {}",
    ),
    "vertex map not an involution": (
        ["validate"],
        cyclic_vertex_map_document,
        "vertex map does not square to identity at {}",
    ),
    "axiom 2": (
        ["validate"],
        lambda x: swap_pair_document(
            [edge("a", "O", "P+"), edge("b", "O", "P-"), edge(x, "P+", "P-")],
            {"a": "b", "b": "a", x: x},
            vertices=("O", "P+", "P-"),
        ),
        "axiom (2): iota fixes edge {}",
    ),
    "axiom 3": (
        ["validate"],
        lambda x: swap_pair_document(
            [edge("a", "O", x), edge("b", "O", "P-")], {"a": "b", "b": "a"}, vertices=("O", x, "P-")
        ),
        "axiom (3): non-fixed vertex {} has fewer than three edges",
    ),
    "closed-form polarization": (
        ["epsilon-closed"],
        ladder_with_vertex,
        "coefficient at non-fixed vertex {} must be nu - 2 = 1",
    ),
}


@pytest.mark.parametrize("case", sorted(OVERLONG_ID_MESSAGES))
@pytest.mark.parametrize("length", [ECHO_LIMIT, ECHO_LIMIT + 1, 300])
def test_overlong_ids_in_graph_messages_are_named_by_length(doc_path, case, length):
    # "A" sorts before every other id, so the checks meet it first
    command, document, message = OVERLONG_ID_MESSAGES[case]
    x = "A" * length
    doc_path.write_text(json.dumps(document(x)), encoding="utf-8")
    argv = [command[0], str(doc_path)] + command[1:]
    payload = json.loads(assert_contract(argv))
    if "error" in payload:
        shown = payload["error"]["message"]
    elif "hyperelliptic" in payload:
        shown = payload["hyperelliptic"]["problem"]
    else:
        (shown,) = payload["problems"]
    assert shown == message.format(shown_id(x))


@pytest.mark.parametrize("argv", [["validate", "BIG"], ["epsilon", "DOC", "--divisor", DIGITS]])
def test_json_integer_past_the_digit_limit_is_a_schema_error(doc_path, argv):
    # json.loads refuses it with a ValueError that is not a JSONDecodeError
    doc_path.write_text(json.dumps(BASES[0]), encoding="utf-8")
    big = doc_path.with_name("big.json")
    big.write_text('{"vertices": ' + DIGITS + "}", encoding="utf-8")
    argv = [{"DOC": str(doc_path), "BIG": str(big)}.get(a, a) for a in argv]
    code, out, _ = invoke(argv)
    (problem,) = json.loads(out)["error"]["problems"]
    assert code == 1
    assert problem["message"] == (
        "integer too long: an integer of 5000 digits, "
        "more than the 4300 digits admgraph reads per integer"
    )


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "argv, path, message",
    [
        (
            ["validate", "LATIN1"],
            "$",
            "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 22: invalid start byte",
        ),
        (["validate", "DEEP"], "$", "malformed JSON: nested too deeply"),
        (["epsilon", "DOC", "--divisor", DEEP], "--divisor", "malformed JSON: nested too deeply"),
        (
            ["epsilon", "DOC", "--divisor", '{"O": ' + DEEP + "}"],
            "--divisor",
            "malformed JSON: nested too deeply",
        ),
    ],
)
def test_hostile_bytes_are_a_schema_error(doc_path, argv, path, message):
    # UnicodeDecodeError and RecursionError escaped as tracebacks before
    files = {"DOC": json.dumps(BASES[0]).encode()}
    files["LATIN1"] = b'{"vertices": [{"id": "\xff"}], "edges": []}'
    files["DEEP"] = DEEP.encode()
    for name, data in files.items():
        doc_path.with_name(name).write_bytes(data)
    argv = [str(doc_path.with_name(a)) if a in files else a for a in argv]
    code, out, err = invoke(argv)
    assert (code, err) == (1, "")
    assert json.loads(out)["error"] == {
        "code": "schema-error",
        "message": f"{path}: {message}",
        "problems": [{"path": path, "message": message}],
    }


def test_overlong_values_are_named_by_kind_and_size(doc_path):
    doc = {"vertices": [{"id": "a"}], "edges": [], "involution": {"vertices": {"a": [0] * 100_000}}}
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = invoke(["validate", str(doc_path)])
    assert code == 1 and len(out) < 400
    assert json.loads(out)["error"]["problems"] == [
        {"path": "involution.vertices.a", "message": "maps to unknown id <a list of 100000 items>"}
    ]


@pytest.mark.parametrize("command", [None] + list(COMMANDS))
def test_help_does_not_depend_on_the_terminal_width(monkeypatch, command):
    argv = ([command] if command else []) + ["-h"]
    printed = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        printed.append(invoke(argv))
    assert printed[0] == printed[1]
    assert printed[0][0] == 0 and "help" in json.loads(printed[0][1])


def test_gen_prints_the_serialized_document():
    # gen builds the document object once; it prints what a parse of the
    # serialized document prints
    for seed in range(51):
        h = ag.random_hyperelliptic(seed, 1, 5)
        doc = document_from(h.graph, h.involution, ag.random_polarization(h, seed))
        expected = json.dumps(json.loads(serialize_document(doc))) + "\n"
        assert invoke(["gen", "--seed", str(seed)]) == (0, expected, ""), seed


PREFIX_TOKENS = st.sampled_from(["-h", "--help", "--he", "--", "-", "-x", "--bogus", "-1", "-x y"])
UNKNOWN_COMMANDS = st.sampled_from(["", "nope", "Compare", "compare ", "bound=1", "gen-"])


@FUZZ
@given(data=st.data())
def test_per_call_parser_matches_the_full_parser(doc_path, data):
    doc_path.write_text(json.dumps(BASES[0]), encoding="utf-8")
    before = data.draw(st.lists(PREFIX_TOKENS | TOKENS, max_size=2))
    command = data.draw(st.sampled_from(COMMANDS) | UNKNOWN_COMMANDS | TOKENS)
    doc = [str(doc_path)] if data.draw(st.booleans()) else []
    after = data.draw(st.just(ARGS.get(command, [])) | st.lists(TOKENS, max_size=3))
    argv = before + [command] + doc + after
    with mock.patch.object(cli, "_build_parser", lambda command: _oracles.full_parser()):
        expected = cli._outcome(argv)
    assert cli._outcome(argv) == expected, argv


@pytest.mark.parametrize(
    "argv, declared",
    [([c, "x"], c) for c in COMMANDS]
    + [
        (["--", "compare", "x"], "compare"),
        (["-h", "bound"], "bound"),
        (["-x", "green", "x", "O"], "green"),
        (["nope", "compare"], None),
        (["-h"], None),
        ([], None),
    ],
)
def test_one_call_declares_the_arguments_of_one_command(monkeypatch, argv, declared):
    built = []

    def spy(command):
        built.append(build(command))
        return built[-1]

    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", spy)
    invoke(argv)
    (parser,) = built
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(COMMANDS)
    with_arguments = [
        name
        for name, p in sub.choices.items()
        if any(not isinstance(a, argparse._HelpAction) for a in p._actions)
    ]
    assert with_arguments == ([declared] if declared else [])
    # a command that is not invoked is a stub with its help line only: no
    # action at all, not even -h
    for name, p in sub.choices.items():
        if name == declared:
            assert any(isinstance(a, argparse._HelpAction) for a in p._actions), name
        else:
            assert p._actions == [], name


HELP_AND_USAGE = (
    [[c, "-h"] for c in COMMANDS]
    + [[c, "--help"] for c in COMMANDS]
    + [["-h", c] for c in COMMANDS]
    + [[c] for c in COMMANDS]
    + [[], ["-h"], ["nope"]]
)


@pytest.mark.parametrize("argv", HELP_AND_USAGE, ids=lambda argv: " ".join(argv) or "(none)")
def test_help_and_usage_match_the_full_parser(argv):
    with mock.patch.object(cli, "_build_parser", lambda command: _oracles.full_parser()):
        expected = cli._outcome(argv)
    assert cli._outcome(argv) == expected


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
