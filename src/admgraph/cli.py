"""Command-line surface.

One batch tool over JSON graph documents; every number in the output is an
exact rational string.  Exit codes: 0 success, 1 domain error (reported as
{"error": {"code", "message"}} on stdout), 2 usage error (bad arguments,
unreadable file).  Every invocation prints exactly one JSON object; -h and
--help print {"help": text} and exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from . import bogomolov, documents, generators, polynomials, potential
from .errors import AdmGraphError, SchemaError
from .graph import Divisor, MetrizedGraph, _self_loop, validate_graph
from .hyperelliptic import graph_size, nu_counts, validate_hyperelliptic
from .rationals import INFINITY, as_fraction, format_rational


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def _build_parser() -> _Parser:
    parser = _Parser(prog="admgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_command(name, help_text, divisor=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", help="graph document (JSON file)")
        if divisor:
            p.add_argument("--divisor", help="inline JSON divisor override")
        return p

    graph_command("validate", "check graph (and hyperelliptic) invariants")
    p = graph_command("resistance", "effective resistance between two vertices or across an edge")
    p.add_argument("endpoints", nargs="*", help="two vertex ids")
    p.add_argument("--edge", help="edge id for the cross resistance instead")
    graph_command("measure", "canonical or admissible measure", divisor=True)
    p = graph_command("green", "Green's function slice from a source vertex", divisor=True)
    p.add_argument("source", help="source vertex id")
    graph_command("epsilon", "admissible constant by the exact solver", divisor=True)
    graph_command("epsilon-closed", "admissible constant by the closed form", divisor=True)
    graph_command("lpoly", "the L polynomial")
    graph_command("mpoly", "the M polynomial")
    graph_command("classify-edges", "edge classification and size")
    graph_command("classify-nodes", "node types and invariant counts of a fiber")
    graph_command("compare", "closed form vs exact solver", divisor=True)

    p = sub.add_parser("bound", help="effective lower bound from invariant counts")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--xi0", type=int, default=0, help="count of type-(0,0) nodes")
    p.add_argument("--xi", action="append", default=[], metavar="j=v", help="pairs of subtype j")
    p.add_argument("--delta", action="append", default=[], metavar="i=v", help="nodes of type i")

    p = sub.add_parser("gen", help="emit a seeded random hyperelliptic graph document")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--min-size", type=int, default=1)
    p.add_argument("--max-size", type=int, default=5)
    return parser


def _load_document(path: str) -> documents.GraphDocument:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
        raise _UsageError(f"file-not-found: {exc}") from exc
    return documents.parse_graph_document(data)


def _divisor(doc: documents.GraphDocument, override: Optional[str]) -> Divisor:
    if override:
        try:
            raw = json.loads(override)
        except json.JSONDecodeError as exc:
            raise SchemaError([("--divisor", f"malformed JSON: {exc}")]) from exc
        if not isinstance(raw, dict):
            raise SchemaError([("--divisor", "must be an object of rational strings")])
        coefficients, problems = {}, []
        for v, c in raw.items():
            try:
                coefficients[v] = as_fraction(c)
            except (TypeError, ValueError) as exc:
                problems.append((f"--divisor.{v}", str(exc)))
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
        try:
            index, value = item.split("=", 1)
            out[int(index)] = out.get(int(index), 0) + int(value)
        except ValueError as exc:
            raise _UsageError(f"{flag} expects i=v, got {item!r}") from exc
    return out


def _run(args) -> Dict:
    if args.command == "validate":
        doc = _load_document(args.graph)
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
        doc = _load_document(args.graph)
        g = doc.to_graph()
        if args.edge:
            r = potential.cross_resistance(g, args.edge)
            return {"cross_resistance": "INFINITY" if r is INFINITY else format_rational(r)}
        if len(args.endpoints) != 2:
            raise _UsageError("resistance needs two vertex ids (or --edge)")
        p, q = args.endpoints
        return {"resistance": format_rational(potential.effective_resistance(g, p, q))}

    if args.command == "measure":
        doc = _load_document(args.graph)
        g = doc.to_graph()
        d = doc.to_divisor()
        if args.divisor:
            d = _divisor(doc, args.divisor)
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
        doc = _load_document(args.graph)
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
        doc = _load_document(args.graph)
        eps, c = potential.epsilon_numeric(doc.to_graph(), _divisor(doc, args.divisor))
        return {"epsilon": format_rational(eps), "c": format_rational(c)}

    if args.command == "epsilon-closed":
        doc = _load_document(args.graph)
        h = _hyperelliptic(doc)
        eps = polynomials.epsilon_closed_form(h, _divisor(doc, args.divisor))
        return {"epsilon": format_rational(eps)}

    if args.command in ("lpoly", "mpoly"):
        doc = _load_document(args.graph)
        h = _hyperelliptic(doc)
        fn = polynomials.l_polynomial if args.command == "lpoly" else polynomials.m_polynomial
        poly = fn(h)
        return {"size": graph_size(h), "polynomial": documents.serialize_polynomial(poly)}

    if args.command == "classify-edges":
        doc = _load_document(args.graph)
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
        doc = _load_document(args.graph)
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
        doc = _load_document(args.graph)
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
            "r0": format_rational(bogomolov.r0_bound(counts)),
            "radicand": format_rational(radicand),
            "omega_self_intersection": format_rational(report["omega_self_intersection"]),
            "epsilon_upper_total": format_rational(report["epsilon_upper_total"]),
            "warnings": report["warnings"],
        }

    if args.command == "gen":
        h = generators.random_hyperelliptic(args.seed, args.min_size, args.max_size)
        d = generators.random_polarization(h, args.seed)
        doc = documents.document_from(h.graph, h.involution, d)
        return json.loads(documents.serialize_document(doc))

    raise _UsageError(f"unknown command {args.command!r}")


def _outcome(argv):
    """Run one invocation without printing: (exit code, JSON text, the
    stream it belongs on)."""
    parser = _build_parser()
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
