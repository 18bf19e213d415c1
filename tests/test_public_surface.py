"""The package's public names, listed: adding or removing one changes this
list on purpose.  And the package's objects outlive a re-import of it."""

import os
import subprocess
import sys
from pathlib import Path

import admgraph as ag

PUBLIC = [
    "AdmGraphError",
    "ArcLengthRangeError",
    "AxiomViolationError",
    "ConstancyViolationError",
    "CoverSpec",
    "DegreeMinusTwoError",
    "DisconnectedGraphError",
    "Divisor",
    "Edge",
    "EdgeKind",
    "EnumerationCapError",
    "FiberConfiguration",
    "FixedVertexError",
    "GenusBelowThreeError",
    "GenusRangeError",
    "GraphDocument",
    "HyperellipticGraph",
    "INFINITY",
    "InvalidCountsError",
    "InvalidGraphError",
    "InvariantCounts",
    "Involution",
    "InvolutionMalformedError",
    "Measure",
    "MetrizedGraph",
    "MissingInvolutionError",
    "MultiPoly",
    "NotHyperellipticConfigurationError",
    "NotTypeZeroError",
    "PiecewisePotential",
    "PolarizationShapeError",
    "RationalFn",
    "SchemaError",
    "SolverFaultError",
    "UnexpectedComponentCountError",
    "UnknownIdError",
    "ValidationReport",
    "admissible_measure",
    "as_fraction",
    "bogomolov",
    "canonical_measure",
    "contract",
    "contract_classes",
    "count_invariants",
    "cross_resistance",
    "divisor_is_invariant",
    "document_from",
    "documents",
    "double_cover",
    "effective_resistance",
    "elementary_graph",
    "epsilon_closed_form",
    "epsilon_fiber_upper",
    "epsilon_numeric",
    "epsilon_rational_fn",
    "errors",
    "fiber_metrized",
    "format_rational",
    "generators",
    "graph",
    "graph_size",
    "green_function",
    "green_matrix",
    "green_pairing",
    "hyperelliptic",
    "l_polynomial",
    "ladder_graph",
    "m_polynomial",
    "node_subtype",
    "node_type",
    "normalize_fiber",
    "normalized_hyperelliptic",
    "nu_counts",
    "omega_divisor",
    "omega_self_intersection",
    "pairing_radicand",
    "parse_graph_document",
    "parse_rational",
    "polynomials",
    "potential",
    "push_divisor",
    "r0_bound",
    "random_hyperelliptic",
    "random_lengths",
    "random_polarization",
    "rationals",
    "serialize_document",
    "serialize_polynomial",
    "simple_graph",
    "subdivide_edge",
    "validate_graph",
    "validate_hyperelliptic",
    "w_weight",
    "with_lengths",
]


def test_public_names_are_listed():
    assert sorted(ag.__all__) == PUBLIC


# Run in a fresh interpreter: objects built with one import of admgraph
# must give the same results through that import once admgraph has been
# purged from sys.modules and imported again, as a benchmark set-up that
# re-imports the package per run does.  A lazily loading package breaks
# this: a name first looked up after a re-import comes from another module
# generation than the objects it is given.
REIMPORT = """
import contextlib, importlib, io, sys

def fresh():
    for name in [m for m in sys.modules if m == "admgraph" or m.startswith("admgraph.")]:
        del sys.modules[name]
    ag = importlib.import_module("admgraph")
    importlib.import_module("admgraph.cli")
    return ag

def build(ag):
    h = ag.ladder_graph(3)
    d = ag.Divisor(
        {v: ag.nu_counts(h, v)[2] - 2 if v in h.nonfixed_vertices else 1 for v in h.graph.vertices}
    )
    return h, d

def outcome(ag, h, d, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        codes = [ag.cli.run_command([c, path]) for c in ("epsilon", "epsilon-closed", "compare")]
    values = ag.epsilon_closed_form(h, d), ag.epsilon_numeric(h.graph, d)
    return values, codes, out.getvalue(), err.getvalue()

first = fresh()
h, d = build(first)
path = sys.argv[1]
with open(path, "w", encoding="utf-8") as handle:
    handle.write(first.serialize_document(first.document_from(h.graph, h.involution, d)))
for _ in range(6):
    last = fresh()
assert last is not first and last.ladder_graph is not first.ladder_graph
got = outcome(first, h, d, path)
want = outcome(last, *build(last), path)
print(repr(got))
sys.exit(0 if got == want else 1)
"""


def test_objects_survive_a_reimport(tmp_path):
    src = str(Path(ag.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    path = tmp_path / "ladder3.json"
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", REIMPORT, str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "10462/819" in result.stdout
