"""Hyperelliptic graphs, the L and M polynomials, and the closed form.

A hyperelliptic graph is a graph with an involution: no fixed edges, every
non-fixed vertex of valence >= 3, tree quotient.  Its admissible constant
is a rational function of the edge-class lengths with an explicit closed
form; here we build one, inspect its combinatorics, and confirm that the
closed form matches the exact potential-theory solver.
"""

from fractions import Fraction
from itertools import combinations

import admgraph as ag

# The second elementary graph: a swapped hub pair Q+, Q- over three fixed
# leaves, six edges, all one-jointed, size 2.
h = ag.elementary_graph(2)
print("vertices:", h.graph.vertices)
print("edge classes:", h.classes())
print("kinds:", {e: k.value for e, k in sorted(h.edge_kinds.items())})
print("size:", ag.graph_size(h))
print("nu at the hub:", ag.nu_counts(h, "Q+"))

# L and M from the spanning trees of the graph: each monomial is the set of
# classes outside one tree.  On G_2 they are the elementary symmetric
# polynomials sigma_2 and sigma_3 of the three classes.
L = ag.l_polynomial(h)
M = ag.m_polynomial(h)
print("L =", L)
print("M =", M)
sigma_2 = sum(ag.MultiPoly.monomial(pair) for pair in combinations(h.classes(), 2))
assert L == sigma_2
assert M == ag.MultiPoly.monomial(h.classes())

# Setting a class to zero in L is the same as contracting it.
cname = h.classes()[0]
contracted, inv, vmap = ag.contract_classes(h, [cname])
h_contracted = ag.validate_hyperelliptic(contracted, inv)
assert L.substitute_zero(cname) == ag.l_polynomial(h_contracted)
print("L(X=0) == L of contraction: ok")

# The hyperelliptic polarization: nu - 2 at non-fixed vertices, anything
# iota-symmetric at fixed ones.  Closed form vs exact solver, both exact.
d = ag.Divisor({"Q+": 1, "Q-": 1, "P1": 2, "P2": 2})
closed = ag.epsilon_closed_form(h, d)
numeric, _ = ag.epsilon_numeric(h.graph, d)
print("epsilon closed form:", closed, " solver:", numeric)
assert closed == numeric

# The same comparison with random rational lengths.
lengths = {c: Fraction(k + 1, 3) for k, c in enumerate(h.classes())}
h2 = ag.with_lengths(h, lengths)
print("lengths:", lengths)
print("epsilon:", ag.epsilon_closed_form(h2, d), "==", ag.epsilon_numeric(h2.graph, d)[0])

# The w weights behind the closed form: restrict to one class (a simple
# graph) and take the smaller pushed coefficient.
for cname in h.classes():
    print("w(", cname, ") =", ag.w_weight(h, d, cname))

# The symbolic epsilon as a rational function of the class lengths.
fn = ag.epsilon_rational_fn(h, d)
print("epsilon numerator:", fn.numerator)
print("epsilon denominator:", fn.denominator)
