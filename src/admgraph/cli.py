"""Command-line surface.

One batch tool over JSON graph documents; every number in the output is an
exact rational string.  Exit codes: 0 success, 1 domain error (reported as
{"error": {"code", "message"}} on stdout), 2 usage error (bad arguments,
unreadable file).  Every invocation prints exactly one JSON object; -h and
--help print {"help": text} and exit 0.
"""

from __future__ import annotations

import argparse
import ast
import collections
import json
import os
import sys
from functools import partial
from typing import Dict, List, Optional

from . import bogomolov, documents, generators, polynomials, potential
from .errors import ECHO_LIMIT, AdmGraphError, SchemaError, _path_key, _shown
from .graph import Divisor, _self_loop, validate_graph
from .hyperelliptic import graph_size, nu_counts, validate_hyperelliptic
from .rationals import INFINITY, _digit_limit_excess, _parse_integer, format_rational


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # argparse's help at the width it takes when there is no terminal (80
        # columns less 2), so that help does not depend on COLUMNS
        super().__init__(formatter_class=partial(argparse.HelpFormatter, width=78), **kwargs)

    def error(self, message):
        raise _UsageError(_glued_value_shown(message))

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())

    def parse_args(self, args=None, namespace=None):
        # argparse's own check, with an over-long argument named by its length
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            shown = (a if len(a) <= ECHO_LIMIT else _shown(a, "argument") for a in extras)
            self.error("unrecognized arguments: " + " ".join(shown))
        return args

    def _check_value(self, action, value):
        try:
            super()._check_value(action, value)
        except argparse.ArgumentError as exc:
            if not (isinstance(value, str) and len(value) > ECHO_LIMIT):
                raise
            message = exc.message.replace(repr(value), _shown(value, "name"), 1)
            raise argparse.ArgumentError(action, message) from None


_IGNORED = "ignored explicit argument "


def _glued_value_shown(message: str) -> str:
    """argparse's message with an over-long value D glued to an option named
    by its length: "ambiguous option: --x=D could match ..." and, for -hD or
    --help=D, "argument -h/--help: ignored explicit argument 'D'"."""
    name, sep, rest = message.partition(": ")
    if name == "ambiguous option":
        option, could, matches = rest.rpartition(" could match ")
        flag, _, value = option.partition("=")
        if len(value) > ECHO_LIMIT:
            return f"{name}{sep}{flag}={_shown(value, 'value')}{could}{matches}"
    elif name.startswith("argument ") and rest.startswith(_IGNORED):
        value = ast.literal_eval(rest[len(_IGNORED):])  # argparse writes it with %r
        if len(value) > ECHO_LIMIT:
            return f"{name}{sep}{_IGNORED}{_shown(value, 'value')}"
    return message


def _integer(text: str) -> int:
    """An integer option in the grammar of rational literals, with
    argparse's own message for a bad value; a literal past the digit limit
    is named by its length, not echoed."""
    excess = _digit_limit_excess(text)
    if excess:
        raise argparse.ArgumentTypeError(f"value too long: {excess}")
    try:
        return _parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text, 'value')}") from None


_Command = collections.namedtuple("_Command", "help inputs arguments handler")
_COMMANDS: Dict[str, _Command] = {}  # in the order of the help and the choice check


def _command(name: str, help_text: str, *inputs: str, arguments: Optional[dict] = None):
    """Declare a command: its help line, the inputs it reads from its graph
    document (_READERS), in the order that fixes which fault of a document
    is reported, and its other arguments, flag -> add_argument options.  It
    takes the ``graph`` argument if it has inputs, and ``--divisor`` if it
    reads a divisor.  Its handler maps (args, *inputs) to (payload, exit code)."""

    def register(handler):
        _COMMANDS[name] = _Command(help_text, inputs, arguments or {}, handler)
        return handler

    return register


def _build_parser(command: Optional[str]) -> _Parser:
    """The parser of one call.  Every command is registered as a choice with
    its help line, so the choice check, the invalid-choice message and the
    top-level help list all 13.  Only ``command``, the one argparse will
    dispatch on, gets ``-h`` and its arguments; the other commands are stubs
    that carry only their help line, with no action, and are never parsed.
    Building them in full cost more than the rest of a typical call; a
    parser without the stubs waits for ROADMAP item 1."""
    parser = _Parser(prog="admgraph", description=__doc__)
    sub = parser.add_subparsers(prog="admgraph", dest="command", required=True)
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, help=spec.help, add_help=name == command)
        if name != command:
            continue
        if spec.inputs:
            p.add_argument("graph", help="graph document (JSON file)")
        if "divisor" in spec.inputs or "divisor or none" in spec.inputs:
            p.add_argument("--divisor", help="inline JSON divisor override")
        for flag, options in spec.arguments.items():
            p.add_argument(flag, **options)
    return parser


def _load_document(path: str) -> documents.GraphDocument:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
        detail = str(exc)
        if isinstance(exc, OSError) and len(path) > ECHO_LIMIT:
            detail = f"[Errno {exc.errno}] {exc.strerror}: {_shown(path, 'path')}"
        raise _UsageError(f"file-not-found: {detail}") from exc
    return documents.parse_graph_document(data)


def _hyperelliptic(doc: documents.GraphDocument):
    inv = doc.to_involution()
    if inv is None:
        raise SchemaError([("involution", "this command needs an involution")])
    return validate_hyperelliptic(doc.to_graph(), inv)


def _divisor(doc, args, required: bool = True) -> Optional[Divisor]:
    if args.divisor is not None:  # "" is a value, malformed JSON
        raw = documents._load_json(args.divisor, "--divisor")
        if not isinstance(raw, dict):
            raise SchemaError([("--divisor", "must be an object of rational strings")])
        literals: dict = {}  # as in the document: each distinct literal parsed once
        coefficients = {v: documents._rational(c, literals) for v, c in raw.items()}
        problems = [
            (f"--divisor.{_path_key(v)}", c) for v, c in coefficients.items() if isinstance(c, str)
        ]
        if problems:
            raise SchemaError(problems)
        return Divisor(coefficients)
    d = doc.to_divisor()
    if d is None and required:
        raise SchemaError([("divisor", "no divisor in the document and no --divisor given")])
    return d


# What a command can read from its document, each as read(doc, args).
_READERS = {
    "document": lambda doc, args: doc,
    "graph": lambda doc, args: doc.to_graph(),
    "graph with loops": lambda doc, args: doc.to_graph(allow_loops=True),
    "hyperelliptic": lambda doc, args: _hyperelliptic(doc),
    "fiber": lambda doc, args: doc.to_fiber(),
    "divisor": _divisor,
    "divisor or none": lambda doc, args: _divisor(doc, args, required=False),
}


def _rationals(values: Dict) -> Dict[str, str]:
    return {k: format_rational(x) for k, x in sorted(values.items())}


def _parse_indexed(pairs: List[str], flag: str) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for item in pairs:
        for part in item.split("=", 1):
            excess = _digit_limit_excess(part)
            if excess:
                raise _UsageError(f"{flag} value too long: {excess}")
        try:
            index, value = map(_parse_integer, item.split("=", 1))
            out[index] = out.get(index, 0) + value
        except ValueError as exc:
            raise _UsageError(f"{flag} expects i=v, got {_shown(item, 'value')}") from exc
    return out


@_command("validate", "check graph (and hyperelliptic) invariants", "graph with loops", "document")
def _validate(args, g, doc):
    report = validate_graph(g)
    out = {"valid": report.valid, "problems": list(report.problems)}
    if doc.has_involution():
        try:
            inv = doc.to_involution()
            if g.loops():  # reported as the loop-free constructor reports it
                raise _self_loop(g.loops()[0].id)
            h = validate_hyperelliptic(g, inv)
            out["hyperelliptic"] = {"valid": True, "size": graph_size(h)}
        except AdmGraphError as exc:
            out["valid"] = False
            out["hyperelliptic"] = {"valid": False, "problem": str(exc)}
    return out, 0


@_command(
    "resistance",
    "effective resistance between two vertices or across an edge",
    "graph",
    arguments={
        "endpoints": dict(nargs="*", help="two vertex ids"),
        "--edge": dict(help="edge id for the cross resistance instead"),
    },
)
def _resistance(args, g):
    if args.edge is not None:
        if args.endpoints:
            raise _UsageError("resistance takes two vertex ids or --edge, not both")
        r = potential.cross_resistance(g, args.edge)
        return {"cross_resistance": "INFINITY" if r is INFINITY else format_rational(r)}, 0
    if len(args.endpoints) != 2:
        raise _UsageError("resistance needs two vertex ids (or --edge)")
    p, q = args.endpoints
    return {"resistance": format_rational(potential.effective_resistance(g, p, q))}, 0


@_command("measure", "canonical or admissible measure", "graph", "divisor or none")
def _measure(args, g, d):
    kind = "canonical" if d is None else "admissible"
    mu = potential.canonical_measure(g) if d is None else potential.admissible_measure(g, d)
    return {
        "kind": kind,
        "vertex_masses": _rationals(mu.vertex_masses),
        "edge_densities": _rationals(mu.edge_densities),
        "total_mass": format_rational(mu.total_mass(g)),
    }, 0


@_command(
    "green",
    "Green's function slice from a source vertex",
    "graph",
    "divisor",
    arguments={"source": dict(help="source vertex id")},
)
def _green(args, g, d):
    pot = potential.green_function(g, d, args.source)
    edges = {
        e.id: {
            "second_derivative": format_rational(pot.second_derivatives[e.id]),
            "slope_at_start": format_rational(pot.slopes_at_start[e.id]),
        }
        for e in g.edges
    }
    values = _rationals(pot.vertex_values)
    return {"source": args.source, "vertex_values": values, "edges": edges}, 0


@_command("epsilon", "admissible constant by the exact solver", "graph", "divisor")
def _epsilon(args, g, d):
    eps, c = potential.epsilon_numeric(g, d)
    return {"epsilon": format_rational(eps), "c": format_rational(c)}, 0


@_command("epsilon-closed", "admissible constant by the closed form", "hyperelliptic", "divisor")
def _epsilon_closed(args, h, d):
    return {"epsilon": format_rational(polynomials.epsilon_closed_form(h, d))}, 0


@_command("lpoly", "the L polynomial", "hyperelliptic")
def _polynomial(args, h):
    poly = (polynomials.l_polynomial if args.command == "lpoly" else polynomials.m_polynomial)(h)
    return {"size": graph_size(h), "polynomial": documents.serialize_polynomial(poly)}, 0


_command("mpoly", "the M polynomial", "hyperelliptic")(_polynomial)


@_command("classify-edges", "edge classification and size", "hyperelliptic")
def _classify_edges(args, h):
    nu = {v: dict(zip(("nu0", "nu1", "nu"), nu_counts(h, v))) for v in sorted(h.nonfixed_vertices)}
    return {
        "edges": {e: kind.value for e, kind in sorted(h.edge_kinds.items())},
        "classes": {c: list(h.class_members[c]) for c in h.classes()},
        "size": graph_size(h),
        "nu": nu,
    }, 0


@_command("classify-nodes", "node types and invariant counts of a fiber", "fiber")
def _classify_nodes(args, fiber):
    types, subtypes = bogomolov._classify(fiber)
    nodes = {
        eid: {"type": i, "subtype": subtypes[eid]} if eid in subtypes else {"type": i}
        for eid, i in types.items()
    }
    out = {"genus": fiber.genus, "nodes": nodes}
    if fiber.involution is not None:
        counts = bogomolov._counts(fiber, types, subtypes)
        out["counts"] = {
            "xi": {str(j): counts.xi_j(j) for j in range(len(counts.xi))},
            "delta": {str(i): counts.delta_i(i) for i in range(1, len(counts.delta) + 1)},
            "delta0": counts.delta0,
        }
    return out, 0


@_command("compare", "closed form vs exact solver", "hyperelliptic", "divisor")
def _compare(args, h, d):
    numeric, _ = potential.epsilon_numeric(h.graph, d)
    closed = polynomials.epsilon_closed_form(h, d)
    out = {"epsilon_numeric": format_rational(numeric), "epsilon_closed": format_rational(closed)}
    return {**out, "agree": numeric == closed}, 0 if numeric == closed else 1


@_command(
    "bound",
    "effective lower bound from invariant counts",
    arguments={
        "--genus": dict(type=_integer, required=True),
        "--xi0": dict(type=_integer, default=0, help="count of type-(0,0) nodes"),
        "--xi": dict(action="append", default=[], metavar="j=v", help="pairs of subtype j"),
        "--delta": dict(action="append", default=[], metavar="i=v", help="nodes of type i"),
    },
)
def _bound(args):
    xi = _parse_indexed(args.xi, "--xi")
    if args.xi0:
        xi[0] = xi.get(0, 0) + args.xi0
    delta = _parse_indexed(args.delta, "--delta")
    counts = bogomolov.InvariantCounts.from_maps(args.genus, xi, delta)
    radicand, report = bogomolov.pairing_radicand(counts)
    return {
        "r0": format_rational(report["r0_theorem"]),
        "radicand": format_rational(radicand),
        "omega_self_intersection": format_rational(report["omega_self_intersection"]),
        "epsilon_upper_total": format_rational(report["epsilon_upper_total"]),
        "warnings": report["warnings"],
    }, 0


@_command(
    "gen",
    "emit a seeded random hyperelliptic graph document",
    arguments={
        "--seed": dict(type=_integer, required=True),
        "--min-size": dict(type=_integer, default=1),
        "--max-size": dict(type=_integer, default=5),
    },
)
def _gen(args):
    h = generators.random_hyperelliptic(args.seed, args.min_size, args.max_size)
    d = generators.random_polarization(h, args.seed)
    return documents.document_object(documents.document_from(h.graph, h.involution, d)), 0


def _outcome(argv):
    """Run one invocation without printing: (exit code, JSON text, the
    stream it belongs on)."""
    # The top-level parser has no option that takes a value, so the first
    # token that is not an option is the command argparse dispatches on.
    parser = _build_parser(next((a for a in argv if not a.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
        spec = _COMMANDS[args.command]
        doc = _load_document(args.graph) if spec.inputs else None
        result, code = spec.handler(args, *[_READERS[kind](doc, args) for kind in spec.inputs])
    except _HelpRequested as exc:
        return 0, json.dumps({"help": str(exc)}), sys.stdout
    except _UsageError as exc:
        return 2, json.dumps({"error": {"code": "usage", "message": str(exc)}}), sys.stderr
    except SchemaError as exc:
        problems = [{"path": p, "message": m} for p, m in exc.problems]
        error = {"code": exc.code, "message": str(exc), "problems": problems}
        return 1, json.dumps({"error": error}), sys.stdout
    except AdmGraphError as exc:
        return 1, json.dumps({"error": {"code": exc.code, "message": str(exc)}}), sys.stdout
    return code, json.dumps(result), sys.stdout


def run_command(argv) -> int:
    """Execute one invocation; prints JSON to stdout and returns the exit
    code (0 ok, 1 domain error, 2 usage error)."""
    code, text, stream = _outcome(argv)
    print(text, file=stream)
    return code


def main() -> None:
    code, text, stream = _outcome(sys.argv[1:])
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        # The reader closed the pipe (e.g. `| head`).  Point the stream at
        # the null device so the interpreter's final flush stays silent, as
        # the SIGPIPE note of the Python docs suggests, and keep the code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    main()
