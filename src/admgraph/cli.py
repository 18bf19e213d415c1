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
import json
import os
import sys
from typing import Dict, List, Optional

from . import bogomolov, documents, generators, polynomials, potential
from .errors import ECHO_LIMIT, AdmGraphError, SchemaError, _path_key, _shown
from .graph import Divisor, MetrizedGraph, _self_loop, validate_graph
from .hyperelliptic import graph_size, nu_counts, validate_hyperelliptic
from .rationals import (
    INFINITY,
    _digit_limit_excess,
    _parse_integer,
    as_fraction,
    format_rational,
)


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _Formatter(argparse.HelpFormatter):
    """argparse's formatter at the width it takes when there is no terminal
    (80 columns less 2), so that help does not depend on COLUMNS."""

    def __init__(self, prog):
        super().__init__(prog, width=78)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, **kwargs)

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


_COMMANDS = {
    "validate": "check graph (and hyperelliptic) invariants",
    "resistance": "effective resistance between two vertices or across an edge",
    "measure": "canonical or admissible measure",
    "green": "Green's function slice from a source vertex",
    "epsilon": "admissible constant by the exact solver",
    "epsilon-closed": "admissible constant by the closed form",
    "lpoly": "the L polynomial",
    "mpoly": "the M polynomial",
    "classify-edges": "edge classification and size",
    "classify-nodes": "node types and invariant counts of a fiber",
    "compare": "closed form vs exact solver",
    "bound": "effective lower bound from invariant counts",
    "gen": "emit a seeded random hyperelliptic graph document",
}
_DIVISOR_COMMANDS = ("measure", "green", "epsilon", "epsilon-closed", "compare")


def _build_parser(command: Optional[str]) -> _Parser:
    """The parser of one call.  Every command is registered as a choice with
    its help line, so the choice check, the invalid-choice message and the
    top-level help list all 13.  Only ``command``, the one argparse will
    dispatch on, gets ``-h`` and its arguments; the other commands are stubs
    that carry only their help line, with no action, and are never parsed.
    Building them in full cost more than the rest of a typical call.  A
    parser of the invoked command alone, without the stubs, would be faster
    still; it waits for a benchmark whose memory figure does not grow with
    throughput (ROADMAP item 1)."""
    parser = _Parser(prog="admgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        if name == command:
            _add_arguments(sub.add_parser(name, help=help_text), name)
        else:
            sub.add_parser(name, help=help_text, add_help=False)
    return parser


def _add_arguments(p: _Parser, command: str) -> None:
    if command == "bound":
        p.add_argument("--genus", type=_integer, required=True)
        p.add_argument("--xi0", type=_integer, default=0, help="count of type-(0,0) nodes")
        p.add_argument(
            "--xi", action="append", default=[], metavar="j=v", help="pairs of subtype j"
        )
        p.add_argument(
            "--delta", action="append", default=[], metavar="i=v", help="nodes of type i"
        )
        return
    if command == "gen":
        p.add_argument("--seed", type=_integer, required=True)
        p.add_argument("--min-size", type=_integer, default=1)
        p.add_argument("--max-size", type=_integer, default=5)
        return
    p.add_argument("graph", help="graph document (JSON file)")
    if command in _DIVISOR_COMMANDS:
        p.add_argument("--divisor", help="inline JSON divisor override")
    if command == "resistance":
        p.add_argument("endpoints", nargs="*", help="two vertex ids")
        p.add_argument("--edge", help="edge id for the cross resistance instead")
    elif command == "green":
        p.add_argument("source", help="source vertex id")


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


def _divisor(doc: documents.GraphDocument, override: Optional[str]) -> Divisor:
    if override is not None:  # "" is a value, malformed JSON
        raw = documents._load_json(override, "--divisor")
        if not isinstance(raw, dict):
            raise SchemaError([("--divisor", "must be an object of rational strings")])
        coefficients, problems = {}, []
        for v, c in raw.items():
            try:
                coefficients[v] = as_fraction(c)
            except (TypeError, ValueError) as exc:
                problems.append((f"--divisor.{_path_key(v)}", str(exc)))
        if problems:
            raise SchemaError(problems)
        return Divisor(coefficients)
    d = doc.to_divisor()
    if d is None:
        raise SchemaError([("divisor", "no divisor in the document and no --divisor given")])
    return d


def _hyperelliptic(doc: documents.GraphDocument, g: Optional[MetrizedGraph] = None):
    """``g``, the document's graph built with loops allowed, is reused; its
    first loop is reported as the loop-free constructor reports it."""
    inv = doc.to_involution()
    if inv is None:
        raise SchemaError([("involution", "this command needs an involution")])
    if g is None:
        g = doc.to_graph()
    else:
        loops = g.loops()
        if loops:
            raise _self_loop(loops[0].id)
    return validate_hyperelliptic(g, inv)


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


def _run(args) -> Dict:
    if args.command not in ("bound", "gen"):
        doc = _load_document(args.graph)

    if args.command == "validate":
        g = doc.to_graph(allow_loops=True)
        report = validate_graph(g)
        out = {"valid": report.valid, "problems": list(report.problems)}
        if doc.has_involution():
            try:
                h = _hyperelliptic(doc, g)
                out["hyperelliptic"] = {"valid": True, "size": graph_size(h)}
            except AdmGraphError as exc:
                out["valid"] = False
                out["hyperelliptic"] = {"valid": False, "problem": str(exc)}
        return out

    if args.command == "resistance":
        g = doc.to_graph()
        if args.edge is not None:
            if args.endpoints:
                raise _UsageError("resistance takes two vertex ids or --edge, not both")
            r = potential.cross_resistance(g, args.edge)
            return {"cross_resistance": "INFINITY" if r is INFINITY else format_rational(r)}
        if len(args.endpoints) != 2:
            raise _UsageError("resistance needs two vertex ids (or --edge)")
        p, q = args.endpoints
        return {"resistance": format_rational(potential.effective_resistance(g, p, q))}

    if args.command == "measure":
        g = doc.to_graph()
        d = doc.to_divisor() if args.divisor is None else _divisor(doc, args.divisor)
        if d is None:
            mu, kind = potential.canonical_measure(g), "canonical"
        else:
            mu, kind = potential.admissible_measure(g, d), "admissible"
        return {
            "kind": kind,
            "vertex_masses": {v: format_rational(m) for v, m in sorted(mu.vertex_masses.items())},
            "edge_densities": {
                e: format_rational(x) for e, x in sorted(mu.edge_densities.items())
            },
            "total_mass": format_rational(mu.total_mass(g)),
        }

    if args.command == "green":
        g = doc.to_graph()
        pot = potential.green_function(g, _divisor(doc, args.divisor), args.source)
        return {
            "source": args.source,
            "vertex_values": {
                v: format_rational(x) for v, x in sorted(pot.vertex_values.items())
            },
            "edges": {
                e.id: {
                    "second_derivative": format_rational(pot.second_derivatives[e.id]),
                    "slope_at_start": format_rational(pot.slopes_at_start[e.id]),
                }
                for e in g.edges
            },
        }

    if args.command == "epsilon":
        eps, c = potential.epsilon_numeric(doc.to_graph(), _divisor(doc, args.divisor))
        return {"epsilon": format_rational(eps), "c": format_rational(c)}

    if args.command == "epsilon-closed":
        h = _hyperelliptic(doc)
        eps = polynomials.epsilon_closed_form(h, _divisor(doc, args.divisor))
        return {"epsilon": format_rational(eps)}

    if args.command in ("lpoly", "mpoly"):
        h = _hyperelliptic(doc)
        fn = polynomials.l_polynomial if args.command == "lpoly" else polynomials.m_polynomial
        poly = fn(h)
        return {"size": graph_size(h), "polynomial": documents.serialize_polynomial(poly)}

    if args.command == "classify-edges":
        h = _hyperelliptic(doc)
        nus = {
            v: dict(zip(("nu0", "nu1", "nu"), nu_counts(h, v)))
            for v in sorted(h.nonfixed_vertices)
        }
        return {
            "edges": {e: kind.value for e, kind in sorted(h.edge_kinds.items())},
            "classes": {c: list(h.class_members[c]) for c in h.classes()},
            "size": graph_size(h),
            "nu": nus,
        }

    if args.command == "classify-nodes":
        fiber = doc.to_fiber()
        types, subtypes = bogomolov._classify(fiber)
        nodes = {}
        for eid, i in types.items():
            entry: Dict[str, int] = {"type": i}
            if eid in subtypes:
                entry["subtype"] = subtypes[eid]
            nodes[eid] = entry
        out = {"genus": fiber.genus, "nodes": nodes}
        if fiber.involution is not None:
            counts = bogomolov._counts(fiber, types, subtypes)
            out["counts"] = {
                "xi": {str(j): counts.xi_j(j) for j in range(len(counts.xi))},
                "delta": {str(i): counts.delta_i(i) for i in range(1, len(counts.delta) + 1)},
                "delta0": counts.delta0,
            }
        return out

    if args.command == "compare":
        h = _hyperelliptic(doc)
        d = _divisor(doc, args.divisor)
        eps_num, _ = potential.epsilon_numeric(h.graph, d)
        eps_closed = polynomials.epsilon_closed_form(h, d)
        return {
            "epsilon_numeric": format_rational(eps_num),
            "epsilon_closed": format_rational(eps_closed),
            "agree": eps_num == eps_closed,
        }

    if args.command == "bound":
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
        }

    # gen, the one command left
    h = generators.random_hyperelliptic(args.seed, args.min_size, args.max_size)
    d = generators.random_polarization(h, args.seed)
    return documents.document_object(documents.document_from(h.graph, h.involution, d))


def _outcome(argv):
    """Run one invocation without printing: (exit code, JSON text, the
    stream it belongs on)."""
    # The top-level parser has no option that takes a value, so the first
    # token that is not an option is the command argparse dispatches on.
    parser = _build_parser(next((a for a in argv if not a.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
        result = _run(args)
    except _HelpRequested as exc:
        return 0, json.dumps({"help": str(exc)}), sys.stdout
    except _UsageError as exc:
        return 2, json.dumps({"error": {"code": "usage", "message": str(exc)}}), sys.stderr
    except SchemaError as exc:
        payload = {
            "error": {
                "code": exc.code,
                "message": str(exc),
                "problems": [{"path": p, "message": m} for p, m in exc.problems],
            }
        }
        return 1, json.dumps(payload), sys.stdout
    except AdmGraphError as exc:
        return 1, json.dumps({"error": {"code": exc.code, "message": str(exc)}}), sys.stdout
    code = 1 if args.command == "compare" and not result.get("agree", True) else 0
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
