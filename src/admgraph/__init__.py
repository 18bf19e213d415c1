"""Exact potential theory and admissible constants on metrized graphs.

Green's functions, canonical and admissible measures, hyperelliptic-graph
combinatorics (edge classes, the L and M polynomials, the closed-form
admissible constant), and the effective Bogomolov-type lower bound from
semistable-fiber node counts -- everything over exact rationals, with the
closed forms cross-checked against an independent exact solver.
"""

from .bogomolov import (
    FiberConfiguration,
    InvariantCounts,
    count_invariants,
    epsilon_fiber_upper,
    fiber_metrized,
    node_subtype,
    node_type,
    normalized_hyperelliptic,
    omega_divisor,
    omega_self_intersection,
    pairing_radicand,
    r0_bound,
)
from .documents import (
    GraphDocument,
    document_from,
    parse_graph_document,
    serialize_document,
    serialize_polynomial,
)
from .errors import (
    AdmGraphError,
    ArcLengthRangeError,
    AxiomViolationError,
    ConstancyViolationError,
    DegreeMinusTwoError,
    DisconnectedGraphError,
    EnumerationCapError,
    FixedVertexError,
    GenusBelowThreeError,
    GenusRangeError,
    InvalidCountsError,
    InvalidGraphError,
    InvolutionMalformedError,
    MissingInvolutionError,
    NotHyperellipticConfigurationError,
    NotTypeZeroError,
    PolarizationShapeError,
    SchemaError,
    SolverFaultError,
    UnexpectedComponentCountError,
    UnknownIdError,
)
from .generators import (
    CoverSpec,
    double_cover,
    elementary_graph,
    ladder_graph,
    random_hyperelliptic,
    random_lengths,
    random_polarization,
    simple_graph,
    with_lengths,
)
from .graph import (
    Divisor,
    Edge,
    MetrizedGraph,
    ValidationReport,
    contract,
    push_divisor,
    subdivide_edge,
    validate_graph,
)
from .hyperelliptic import (
    EdgeKind,
    HyperellipticGraph,
    Involution,
    contract_classes,
    divisor_is_invariant,
    graph_size,
    normalize_fiber,
    nu_counts,
    validate_hyperelliptic,
    w_weight,
)
from .polynomials import (
    MultiPoly,
    RationalFn,
    epsilon_closed_form,
    epsilon_rational_fn,
    l_polynomial,
    m_polynomial,
)
from .potential import (
    Measure,
    PiecewisePotential,
    admissible_measure,
    canonical_measure,
    cross_resistance,
    effective_resistance,
    epsilon_numeric,
    green_function,
    green_matrix,
    green_pairing,
)
from .rationals import INFINITY, as_fraction, format_rational, parse_rational

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
