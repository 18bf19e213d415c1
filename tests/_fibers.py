"""Seeded semistable fibers for the fiber-pipeline tests.

A fiber starts from ``random_hyperelliptic(sub, max_size=4)`` with every
node (edge) of unit length.  Each fixed vertex is then left alone or
decorated, by a seeded choice, with one of: a genus-1 or genus-2 tail on an
iota-fixed bridge (a positive-type node), a rational tail with a fixed loop
(a nodal tail of arithmetic genus 1) on such a bridge, an iota-fixed loop,
or genus 1 on the vertex itself.  On top of that:

* some swapped vertex pairs get an iota-fixed edge between the two
  vertices (split at its midpoint by the normalization);
* some swapped edge pairs become iota-symmetric chains of 1-3 genus-0
  components, which the normalization merges back into one edge each.
  Chain edge ids carry random labels, so the chain's smallest id is often
  not the image of the partner chain's smallest id.

``fiber_parts`` returns the raw parts, so tests can mutate them before
building the configuration; fibers of arithmetic genus below 3 (where the
bound formulas do not apply) are skipped by ``corpus``.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import admgraph as ag

_DECORATIONS = ("none", "tail1", "tail2", "nodal-tail", "loop", "genus1")


@dataclass
class FiberParts:
    vertices: List[str]
    edges: List[Tuple[str, Tuple[str, str], int]]
    genera: Dict[str, int]
    vmap: Dict[str, str]
    emap: Dict[str, str]
    # each chain as (chain vertices, their iota-images), from one end to the other
    chains: List[Tuple[List[str], List[str]]] = field(default_factory=list)

    def genus(self) -> int:
        return sum(self.genera.values()) + len(self.edges) - len(self.vertices) + 1

    def configuration(self) -> ag.FiberConfiguration:
        graph = ag.MetrizedGraph(self.vertices, self.edges, allow_loops=True)
        return ag.FiberConfiguration(graph, self.genera, ag.Involution(self.vmap, self.emap))


def fiber_parts(sub: int) -> FiberParts:
    """The decorated fiber for sub-seed ``sub``, as raw parts."""
    h = ag.random_hyperelliptic(sub, max_size=4)
    g = ag.with_lengths(h, {c: 1 for c in h.classes()}).graph
    rng = random.Random(f"fiber-corpus-{sub}")
    labels = iter(rng.sample(range(1000), 400))
    parts = FiberParts(
        list(g.vertices),
        [(e.id, e.ends, 1) for e in g.edges],
        {},
        dict(h.involution.vertex_map),
        dict(h.involution.edge_map),
    )
    vmap, emap = parts.vmap, parts.emap

    for v in sorted(h.fixed_vertices):
        decoration = rng.choice(_DECORATIONS)
        if decoration in ("tail1", "tail2", "nodal-tail"):
            tail, bridge = f"T{v}", f"b{v}"
            parts.vertices.append(tail)
            vmap[tail] = tail
            parts.edges.append((bridge, (v, tail), 1))
            emap[bridge] = bridge
            if decoration == "nodal-tail":
                parts.edges.append((f"l{tail}", (tail, tail), 1))
                emap[f"l{tail}"] = f"l{tail}"
            else:
                parts.genera[tail] = int(decoration[-1])
        elif decoration == "loop":
            parts.edges.append((f"l{v}", (v, v), 1))
            emap[f"l{v}"] = f"l{v}"
        elif decoration == "genus1":
            parts.genera[v] = 1

    for v in sorted(h.nonfixed_vertices):
        if v < vmap[v] and rng.random() < 0.3:
            fixed = f"x{v}"
            parts.edges.append((fixed, (v, vmap[v]), 1))
            emap[fixed] = fixed

    for cname in h.classes():
        first, second = h.class_members[cname]
        if rng.random() < 0.35:
            _chain(parts, first, second, rng.randint(1, 3), labels)
    return parts


def _chain(parts: FiberParts, first: str, second: str, k: int, labels) -> None:
    """Replace the swapped pair (first, second) by chains of k genus-0
    components each, iota mapping the first chain onto the second."""
    u, w = next(ends for eid, ends, _ in parts.edges if eid == first)
    path = [u] + [f"R{next(labels):03d}" for _ in range(k)] + [w]
    image_path = [parts.vmap[u]] + [f"R{next(labels):03d}" for _ in range(k)] + [parts.vmap[w]]
    parts.edges = [item for item in parts.edges if item[0] not in (first, second)]
    del parts.emap[first], parts.emap[second]
    for c, c_image in zip(path[1:-1], image_path[1:-1]):
        parts.vertices += [c, c_image]
        parts.vmap[c], parts.vmap[c_image] = c_image, c
    for i in range(k + 1):
        a = f"{first}/{next(labels):03d}"
        b = f"{second}/{next(labels):03d}"
        parts.edges.append((a, (path[i], path[i + 1]), 1))
        parts.edges.append((b, (image_path[i], image_path[i + 1]), 1))
        parts.emap[a], parts.emap[b] = b, a
    parts.chains.append((path[1:-1], image_path[1:-1]))


def corpus(count: int, start: int = 0) -> List[Tuple[int, FiberParts]]:
    """The first ``count`` fibers of arithmetic genus >= 3 over sub-seeds
    start, start + 1, ... as (sub-seed, parts) pairs."""
    out = []
    sub = start
    while len(out) < count:
        parts = fiber_parts(sub)
        if parts.genus() >= 3:
            out.append((sub, parts))
        sub += 1
    return out
