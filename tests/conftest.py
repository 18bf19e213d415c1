"""Shared corpus: named graphs plus a seeded random family.

The named part pins down the standard small graphs (the simple graph, the
elementary graphs, a ladder, one-point sums); the random part comes from
the double-cover generator with sizes 1-5.  Fixtures return fresh objects
cheaply; anything expensive is module-scoped in the tests that need it.
"""

from fractions import Fraction

import pytest

import admgraph as ag
from admgraph.errors import ECHO_LIMIT


def shown_id(x):
    """An id as messages show it: quoted up to ECHO_LIMIT characters, else
    named by its length."""
    return repr(x) if len(x) <= ECHO_LIMIT else f"<an id of {len(x)} characters>"


def rename(h, prefix):
    """Copy a hyperelliptic graph with prefixed ids (for one-point sums)."""
    g = h.graph
    graph = ag.MetrizedGraph(
        [f"{prefix}{v}" for v in g.vertices],
        [(f"{prefix}{e.id}", (f"{prefix}{e.ends[0]}", f"{prefix}{e.ends[1]}"), e.length) for e in g.edges],
    )
    inv = ag.Involution(
        {f"{prefix}{v}": f"{prefix}{w}" for v, w in h.involution.vertex_map.items()},
        {f"{prefix}{e}": f"{prefix}{f}" for e, f in h.involution.edge_map.items()},
    )
    return ag.validate_hyperelliptic(graph, inv)


def join(h1, v1, h2, v2):
    """One-point sum of two hyperelliptic graphs at fixed vertices."""
    graph = ag.one_point_sum(h1.graph, v1, h2.graph, v2)
    vmap = dict(h1.involution.vertex_map)
    for v, w in h2.involution.vertex_map.items():
        if v != v2:
            vmap[v] = v1 if w == v2 else w
    emap = dict(h1.involution.edge_map)
    emap.update(h2.involution.edge_map)
    return ag.validate_hyperelliptic(graph, ag.Involution(vmap, emap))


def named_corpus():
    sg = ag.simple_graph()
    out = {
        "SG": sg,
        "SG-3/2": ag.simple_graph(Fraction(3, 2)),
        "G2": ag.elementary_graph(2),
        "G3": ag.elementary_graph(3),
        "G4": ag.elementary_graph(4, lengths=[1, 2, Fraction(1, 2), 3, 1]),
        "ladder2": ag.ladder_graph(2),
        "ladder3": ag.ladder_graph(3),
        "SGvSG": join(sg, "P", rename(ag.simple_graph(2), "B."), "B.P"),
        "SGvG2": join(sg, "Q", rename(ag.elementary_graph(2), "C."), "C.P1"),
    }
    return out


def random_corpus(count, start=0):
    return [ag.random_hyperelliptic(seed) for seed in range(start, start + count)]


@pytest.fixture(scope="session")
def corpus():
    graphs = list(named_corpus().values())
    graphs += random_corpus(25)
    return graphs


@pytest.fixture(scope="session")
def named():
    return named_corpus()
