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
all problems with their JSON paths.  Serialization is canonical (sorted
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


def _parse_rational_at(value, path, problems) -> Fraction:
    if not isinstance(value, str):
        problems.append((path, "rational values must be strings like \"3/2\""))
        return Fraction(0)
    try:
        return parse_rational(value)
    except ValueError as exc:
        problems.append((path, str(exc)))
        return Fraction(0)


def _check_keys(item, known, path, problems) -> None:
    extra = set(item) - known
    if extra:
        problems.append((path, f"unknown keys [{', '.join(_shown(k) for k in sorted(extra))}]"))


def _load_json(text: str, path: str):
    """json.loads(text); malformed text, or an integer literal past the
    digit limit that CPython would refuse, is a SchemaError at ``path``."""

    def integer(literal: str) -> int:
        excess = _digit_limit_excess(literal)
        if excess:
            raise SchemaError([(path, f"integer too long: {excess}")])
        return int(literal)

    try:
        return json.loads(text, parse_int=integer)
    except json.JSONDecodeError as exc:
        raise SchemaError([(path, f"malformed JSON: {exc}")]) from exc


def parse_graph_document(data) -> GraphDocument:
    """Parse and validate a document; raises SchemaError listing every
    problem with its JSON path."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if isinstance(data, str):
        raw = _load_json(data, "$")
    else:
        raw = data

    problems: List[Tuple[str, str]] = []
    if not isinstance(raw, dict):
        raise SchemaError([("$", "document must be a JSON object")])

    known = {"vertices", "edges", "involution", "divisor"}
    for key in sorted(set(raw) - known):
        problems.append((_path_key(key), "unknown key"))

    vertices: List[Tuple[str, Optional[int]]] = []
    vertex_ids = set()
    items = raw.get("vertices")
    if not isinstance(items, list) or not items:
        problems.append(("vertices", "must be a non-empty list"))
        items = []
    for k, item in enumerate(items):
        path = f"vertices[{k}]"
        if not isinstance(item, dict) or "id" not in item or not isinstance(item["id"], str):
            problems.append((path, "must be an object with a string id"))
            continue
        vid = item["id"]
        if vid in vertex_ids:
            problems.append((f"{path}.id", f"duplicate vertex id {_shown(vid)}"))
        vertex_ids.add(vid)
        genus = item.get("genus")
        if genus is not None and (type(genus) is not int or genus < 0):
            problems.append((f"{path}.genus", "genus must be a nonnegative integer"))
            genus = None
        _check_keys(item, {"id", "genus"}, path, problems)
        vertices.append((vid, genus))

    edges: List[Tuple[str, Tuple[str, str], Fraction]] = []
    edge_ids = set()
    items = raw.get("edges")
    if not isinstance(items, list):
        problems.append(("edges", "must be a list"))
        items = []
    for k, item in enumerate(items):
        path = f"edges[{k}]"
        if not isinstance(item, dict) or "id" not in item or not isinstance(item["id"], str):
            problems.append((path, "must be an object with a string id"))
            continue
        eid = item["id"]
        if eid in edge_ids:
            problems.append((f"{path}.id", f"duplicate edge id {_shown(eid)}"))
        edge_ids.add(eid)
        ends = item.get("ends")
        if (
            not isinstance(ends, list)
            or len(ends) != 2
            or not all(isinstance(x, str) for x in ends)
        ):
            problems.append((f"{path}.ends", "must be a pair of vertex ids"))
            continue
        for x in ends:
            if x not in vertex_ids:
                problems.append((f"{path}.ends", f"unknown vertex {_shown(x)}"))
        length = _parse_rational_at(item.get("length"), f"{path}.length", problems)
        _check_keys(item, {"id", "ends", "length"}, path, problems)
        edges.append((eid, (ends[0], ends[1]), length))

    inv_vertices = inv_edges = None
    inv = raw.get("involution")
    if inv is not None:
        if not isinstance(inv, dict) or set(inv) - {"vertices", "edges"}:
            problems.append(("involution", "must be {vertices: {...}, edges: {...}}"))
        else:
            vmap = inv.get("vertices", {})
            emap = inv.get("edges", {})
            for name, mapping, ids in (("vertices", vmap, vertex_ids), ("edges", emap, edge_ids)):
                if not isinstance(mapping, dict):
                    problems.append((f"involution.{name}", "must be an object"))
                    continue
                for a, b in mapping.items():
                    path = f"involution.{name}.{_path_key(a)}"
                    if a not in ids:
                        problems.append((path, "unknown id"))
                    if not isinstance(b, str) or b not in ids:
                        problems.append((path, f"maps to unknown id {_shown(b)}"))
            if isinstance(vmap, dict) and isinstance(emap, dict):
                inv_vertices = tuple(sorted((str(a), str(b)) for a, b in vmap.items()))
                inv_edges = tuple(sorted((str(a), str(b)) for a, b in emap.items()))

    divisor = None
    div = raw.get("divisor")
    if div is not None:
        if not isinstance(div, dict):
            problems.append(("divisor", "must be an object of rational strings"))
        else:
            coeffs = []
            for v, c in div.items():
                path = f"divisor.{_path_key(v)}"
                if v not in vertex_ids:
                    problems.append((path, "unknown vertex"))
                coeffs.append((v, _parse_rational_at(c, path, problems)))
            divisor = tuple(sorted(coeffs))

    if problems:
        raise SchemaError(problems)
    return GraphDocument(
        vertices=tuple(vertices),
        edges=tuple(edges),
        involution_vertices=inv_vertices,
        involution_edges=inv_edges,
        divisor=divisor,
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
