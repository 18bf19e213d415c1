"""Graph documents: the single JSON interchange format.

A document lists vertices (optionally with a component genus), edges with
rational-string lengths, and optionally an involution and a divisor:

    {
      "vertices": [{"id": "P"}, {"id": "Q", "genus": 1}],
      "edges": [{"id": "a", "ends": ["P", "Q"], "length": "1/2"}],
      "involution": {"vertices": {"P": "P", ...}, "edges": {"a": "b", ...}},
      "divisor": {"P": "1", "Q": "1"}
    }

Parsing validates referential integrity and rational literals, collecting
all problems with their JSON paths, in one pass over the items: a path is
written only for a problem, and each distinct literal is parsed once per
document, so the two edges of a class share one Fraction.  Bytes that are
not UTF-8 and nesting past the JSON reader's recursion are problems at
``$`` like malformed JSON.  Serialization is canonical (sorted
ids, fixed key order, two-space indent, trailing newline) so that
serialize(parse(doc)) is byte-identical for canonically formatted input.
All numbers travel as exact rational strings; no floats anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from .bogomolov import FiberConfiguration
from .errors import SchemaError, _path_key, _shown
from .graph import Divisor, MetrizedGraph
from .hyperelliptic import Involution
from .polynomials import MultiPoly
from .rationals import _digit_limit_excess, format_rational, parse_rational


@dataclass(frozen=True)
class GraphDocument:
    vertices: Tuple[Tuple[str, Optional[int]], ...]
    edges: Tuple[Tuple[str, Tuple[str, str], Fraction], ...]
    involution_vertices: Optional[Tuple[Tuple[str, str], ...]] = None
    involution_edges: Optional[Tuple[Tuple[str, str], ...]] = None
    divisor: Optional[Tuple[Tuple[str, Fraction], ...]] = None

    def has_involution(self) -> bool:
        return self.involution_vertices is not None

    def to_graph(self, *, allow_loops: bool = False) -> MetrizedGraph:
        return MetrizedGraph([v for v, _ in self.vertices], self.edges, allow_loops=allow_loops)

    def to_involution(self) -> Optional[Involution]:
        if not self.has_involution():
            return None
        return Involution(dict(self.involution_vertices), dict(self.involution_edges))

    def to_divisor(self) -> Optional[Divisor]:
        if self.divisor is None:
            return None
        return Divisor(dict(self.divisor))

    def genera(self) -> Dict[str, int]:
        return {v: g for v, g in self.vertices if g is not None}

    def to_fiber(self) -> FiberConfiguration:
        return FiberConfiguration(
            self.to_graph(allow_loops=True), self.genera(), self.to_involution()
        )


_DOCUMENT_KEYS = frozenset({"vertices", "edges", "involution", "divisor"})
_VERTEX_KEYS = frozenset({"id", "genus"})
_EDGE_KEYS = frozenset({"id", "ends", "length"})
_INVOLUTION_KEYS = frozenset({"vertices", "edges"})
_NOT_A_STRING = "rational values must be strings like \"3/2\""


def _rational(value, literals: Dict[str, Fraction]):
    """The Fraction of a rational literal, parsed once per document through
    ``literals``; the problem's message (a str) if value is not one."""
    if not isinstance(value, str):
        return _NOT_A_STRING
    fraction = literals.get(value)
    if fraction is None:
        try:
            fraction = literals[value] = parse_rational(value)
        except ValueError as exc:
            return str(exc)
    return fraction


def _sorted_keys(keys) -> list:
    """The keys in sorted order, strings first; keys of other types, which
    only a Python dict can hold, follow in the order of their ``_shown``."""
    return sorted(keys, key=lambda k: (0, k) if isinstance(k, str) else (1, _shown(k)))


def _unknown_keys(item, known, path, problems) -> None:
    extra = _sorted_keys(item.keys() - known)
    problems.append((path, f"unknown keys [{', '.join(_shown(k) for k in extra)}]"))


def _load_json(text, path: str):
    """json.loads(text) of a str, or of bytes read as UTF-8.  Bytes that are
    not UTF-8, malformed text, nesting deeper than the JSON reader's
    recursion allows, or an integer literal past the digit limit that
    CPython would refuse is a SchemaError at ``path``."""

    def integer(literal: str) -> int:
        excess = _digit_limit_excess(literal)
        if excess:
            raise SchemaError([(path, f"integer too long: {excess}")])
        return int(literal)

    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text, parse_int=integer)
    except UnicodeDecodeError as exc:
        raise SchemaError([(path, f"not UTF-8: {exc}")]) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError([(path, f"malformed JSON: {exc}")]) from exc
    except RecursionError as exc:
        raise SchemaError([(path, "malformed JSON: nested too deeply")]) from exc


def parse_graph_document(data) -> GraphDocument:
    """Parse and validate a document; raises SchemaError listing every
    problem with its JSON path."""
    raw = _load_json(data, "$") if isinstance(data, (str, bytes)) else data
    if not isinstance(raw, dict):
        raise SchemaError([("$", "document must be a JSON object")])

    problems: List[Tuple[str, str]] = []
    literals: Dict[str, Fraction] = {}

    if not raw.keys() <= _DOCUMENT_KEYS:
        for key in _sorted_keys(raw.keys() - _DOCUMENT_KEYS):
            problems.append((_path_key(key), "unknown key"))

    vertices: List[Tuple[str, Optional[int]]] = []
    vertex_ids = set()
    items = raw.get("vertices")
    if not isinstance(items, list) or not items:
        problems.append(("vertices", "must be a non-empty list"))
        items = []
    for k, item in enumerate(items):
        vid = item.get("id") if isinstance(item, dict) else None
        if not isinstance(vid, str):
            problems.append((f"vertices[{k}]", "must be an object with a string id"))
            continue
        if vid in vertex_ids:
            problems.append((f"vertices[{k}].id", f"duplicate vertex id {_shown(vid)}"))
        vertex_ids.add(vid)
        genus = item.get("genus")
        if genus is not None and (type(genus) is not int or genus < 0):
            problems.append((f"vertices[{k}].genus", "genus must be a nonnegative integer"))
            genus = None
        if not item.keys() <= _VERTEX_KEYS:
            _unknown_keys(item, _VERTEX_KEYS, f"vertices[{k}]", problems)
        vertices.append((vid, genus))

    edges: List[Tuple[str, Tuple[str, str], Fraction]] = []
    edge_ids = set()
    items = raw.get("edges")
    if not isinstance(items, list):
        problems.append(("edges", "must be a list"))
        items = []
    for k, item in enumerate(items):
        eid = item.get("id") if isinstance(item, dict) else None
        if not isinstance(eid, str):
            problems.append((f"edges[{k}]", "must be an object with a string id"))
            continue
        if eid in edge_ids:
            problems.append((f"edges[{k}].id", f"duplicate edge id {_shown(eid)}"))
        edge_ids.add(eid)
        ends = item.get("ends")
        if not (
            isinstance(ends, list)
            and len(ends) == 2
            and isinstance(ends[0], str)
            and isinstance(ends[1], str)
        ):
            problems.append((f"edges[{k}].ends", "must be a pair of vertex ids"))
            continue
        u, w = ends
        for x in ends:
            if x not in vertex_ids:
                problems.append((f"edges[{k}].ends", f"unknown vertex {_shown(x)}"))
        length = _rational(item.get("length"), literals)
        if isinstance(length, str):
            problems.append((f"edges[{k}].length", length))
        if not item.keys() <= _EDGE_KEYS:
            _unknown_keys(item, _EDGE_KEYS, f"edges[{k}]", problems)
        edges.append((eid, (u, w), length))

    inv = raw.get("involution")
    if inv is not None:
        if not isinstance(inv, dict) or not inv.keys() <= _INVOLUTION_KEYS:
            problems.append(("involution", "must be {vertices: {...}, edges: {...}}"))
        else:
            for name, ids in (("vertices", vertex_ids), ("edges", edge_ids)):
                mapping = inv.get(name, {})
                if not isinstance(mapping, dict):
                    problems.append((f"involution.{name}", "must be an object"))
                    continue
                for a, b in mapping.items():
                    if a not in ids:
                        problems.append((f"involution.{name}.{_path_key(a)}", "unknown id"))
                    if not isinstance(b, str) or b not in ids:
                        problems.append(
                            (f"involution.{name}.{_path_key(a)}", f"maps to unknown id {_shown(b)}")
                        )

    div = raw.get("divisor")
    if div is not None:
        if not isinstance(div, dict):
            problems.append(("divisor", "must be an object of rational strings"))
        else:
            for v, c in div.items():
                if v not in vertex_ids:
                    problems.append((f"divisor.{_path_key(v)}", "unknown vertex"))
                value = _rational(c, literals)
                if isinstance(value, str):
                    problems.append((f"divisor.{_path_key(v)}", value))

    if problems:
        raise SchemaError(problems)
    # no problems: the maps are objects of strings, the divisor's values literals
    return GraphDocument(
        vertices=tuple(vertices),
        edges=tuple(edges),
        involution_vertices=None if inv is None else tuple(sorted(inv.get("vertices", {}).items())),
        involution_edges=None if inv is None else tuple(sorted(inv.get("edges", {}).items())),
        divisor=None if div is None else tuple(sorted((v, literals[c]) for v, c in div.items())),
    )


def document_from(
    graph: MetrizedGraph,
    involution: Optional[Involution] = None,
    divisor: Optional[Divisor] = None,
    genera: Optional[Mapping[str, int]] = None,
) -> GraphDocument:
    genera = genera or {}
    return GraphDocument(
        vertices=tuple((v, genera.get(v)) for v in sorted(graph.vertices)),
        edges=tuple(
            (e.id, e.ends, e.length) for e in sorted(graph.edges, key=lambda e: e.id)
        ),
        involution_vertices=(
            tuple(sorted(involution.vertex_map.items())) if involution else None
        ),
        involution_edges=tuple(sorted(involution.edge_map.items())) if involution else None,
        divisor=(
            tuple(sorted(divisor.coefficients.items())) if divisor is not None else None
        ),
    )


def serialize_document(doc: GraphDocument) -> str:
    """Canonical text form: sorted ids, fixed key order, trailing newline."""
    return json.dumps(document_object(doc), indent=2) + "\n"


def document_object(doc: GraphDocument) -> Dict[str, object]:
    """The JSON object that ``serialize_document`` writes."""
    obj: Dict[str, object] = {}
    vlist = []
    for vid, genus in sorted(doc.vertices):
        entry: Dict[str, object] = {"id": vid}
        if genus is not None:
            entry["genus"] = genus
        vlist.append(entry)
    obj["vertices"] = vlist
    obj["edges"] = [
        {"id": eid, "ends": list(ends), "length": format_rational(length)}
        for eid, ends, length in sorted(doc.edges)
    ]
    if doc.has_involution():
        obj["involution"] = {
            "vertices": {a: b for a, b in sorted(doc.involution_vertices)},
            "edges": {a: b for a, b in sorted(doc.involution_edges)},
        }
    if doc.divisor is not None:
        obj["divisor"] = {v: format_rational(c) for v, c in sorted(doc.divisor)}
    return obj


def serialize_polynomial(p: MultiPoly) -> List[Dict[str, object]]:
    """Sorted term list: {"monomial": [class ids], "coefficient": "p/q"};
    monomials in graded-lexicographic order, powers written by repetition."""
    return [
        {"monomial": list(mono), "coefficient": format_rational(coeff)}
        for mono, coeff in p.sorted_terms()
    ]
