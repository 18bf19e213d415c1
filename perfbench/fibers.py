"""Seeded semistable-fiber generator for the ``classify-nodes`` operations.

A fiber starts from ``random_hyperelliptic(s, max_size=4)`` with every node
(edge) of unit length.  Each fixed vertex is then left alone or decorated,
by a seeded choice, with one of: a genus-1 or genus-2 tail attached by an
iota-fixed bridge (a positive-type node), an iota-fixed loop, or genus 1 on
the vertex itself.  Fibers of genus below 3 are skipped.
"""

from __future__ import annotations

import random

_DECORATIONS = ("none", "tail1", "tail2", "loop", "genus1")


def random_fiber(ag, sub: int):
    """The fiber for sub-seed ``sub``, or None when its genus is below 3."""
    h = ag.random_hyperelliptic(sub, max_size=4)
    g = ag.with_lengths(h, {c: 1 for c in h.classes()}).graph
    rng = random.Random(f"fiber-{sub}")
    vertices = list(g.vertices)
    edges = [(e.id, e.ends, e.length) for e in g.edges]
    vmap = dict(h.involution.vertex_map)
    emap = dict(h.involution.edge_map)
    genera = {}
    for v in sorted(h.fixed_vertices):
        decoration = rng.choice(_DECORATIONS)
        if decoration.startswith("tail"):
            tail, bridge = f"T{v}", f"b{v}"
            vertices.append(tail)
            vmap[tail] = tail
            genera[tail] = int(decoration[-1])
            edges.append((bridge, (v, tail), 1))
            emap[bridge] = bridge
        elif decoration == "loop":
            edges.append((f"l{v}", (v, v), 1))
            emap[f"l{v}"] = f"l{v}"
        elif decoration == "genus1":
            genera[v] = 1
    if sum(genera.values()) + len(edges) - len(vertices) + 1 < 3:
        return None  # arithmetic genus: component genera plus first Betti number
    graph = ag.MetrizedGraph(vertices, edges, allow_loops=True)
    return ag.FiberConfiguration(graph, genera, ag.Involution(vmap, emap))


def random_fibers(ag, base: int, count: int):
    """The first ``count`` fibers of genus >= 3 over sub-seeds base, base+1, ...
    as (sub_seed, FiberConfiguration) pairs."""
    out = []
    sub = base
    while len(out) < count:
        cfg = random_fiber(ag, sub)
        if cfg is not None:
            out.append((sub, cfg))
        sub += 1
    return out


def check_fiber(ag, cfg, counts):
    """The fiber pipeline's invariants; returns a problem or None.

    delta0 = xi0 + 2 sum xi_j; r0 > 0; the per-fiber upper bound dominates
    the exact epsilon of the fiber's metrized graph; and the normalized
    hyperelliptic graph exists."""
    if counts.delta0 != counts.xi_j(0) + 2 * sum(counts.xi[1:]):
        return f"delta0 identity fails: {counts}"
    if ag.r0_bound(counts) <= 0:
        return f"r0 <= 0 for {counts}"
    graph, omega = ag.fiber_metrized(cfg)
    eps, _ = ag.epsilon_numeric(graph, omega)
    if ag.epsilon_fiber_upper(counts) < eps:
        return f"per-fiber bound {ag.epsilon_fiber_upper(counts)} < epsilon {eps}"
    ag.normalized_hyperelliptic(cfg)
    return None
