"""Exception hierarchy.

Every domain error carries a stable ``code`` string so the CLI can map
failures to machine-readable output without string matching on messages.
Messages show ids and other inputs through ``_shown``.
"""

# The longest string input a message repeats; a longer one is named by its
# length, as the digit-limit messages name an over-long integer.
ECHO_LIMIT = 100


def _shown(value, noun: str = "id") -> str:
    """repr(value) for a message, or, for a string longer than ECHO_LIMIT
    characters or an integer of more digits, its length: "<an id of 5000
    characters>", "<an integer of 4000 digits>"."""
    if isinstance(value, str) and len(value) > ECHO_LIMIT:
        article = "an" if noun[0] in "aeiou" else "a"
        return f"<{article} {noun} of {len(value)} characters>"
    if isinstance(value, int) and abs(value) >= 10**ECHO_LIMIT:
        return f"<an integer of {_digits(abs(value))} digits>"
    return repr(value)


def _digits(n: int) -> int:
    """The number of decimal digits of n > 0, counted without str(), which
    refuses integers past sys.get_int_max_str_digits()."""
    d = int(n.bit_length() * 0.30102999566398120) - 1  # log10(2); never too many
    while 10**d <= n:
        d += 1
    return d


def _path_key(key: str) -> str:
    """An object key as a step of a JSON path: the key itself, or, past
    ECHO_LIMIT characters, its length as ``_shown`` names it."""
    return key if len(key) <= ECHO_LIMIT else _shown(key)


class AdmGraphError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class UnknownIdError(AdmGraphError, LookupError):
    """A vertex or edge id is not present in the graph."""

    code = "unknown-id"


class InvalidGraphError(AdmGraphError):
    """A graph violates an invariant required by the requested operation."""

    code = "invalid-graph"


class DisconnectedGraphError(InvalidGraphError):
    code = "disconnected-graph"


class ArcLengthRangeError(AdmGraphError, ValueError):
    """An arc length lies outside the edge it is measured along."""

    code = "arc-length-range"


class DegreeMinusTwoError(AdmGraphError):
    """deg(D) = -2: the admissible measure and Green's function do not exist."""

    code = "degree-minus-two"


class SolverFaultError(AdmGraphError):
    """Internal fault: an exact solve produced output violating a defining
    property.  Must not occur on valid input."""

    code = "solver-fault"


class ConstancyViolationError(SolverFaultError):
    """g(D,y) + g(y,y) differed between vertices (signals a solver bug)."""

    code = "constancy-violation"


class InvolutionMalformedError(AdmGraphError):
    code = "involution-malformed"


class AxiomViolationError(AdmGraphError):
    """A hyperelliptic-graph axiom (numbered 1-4) fails."""

    code = "axiom-violation"

    def __init__(self, clause: int, message: str):
        super().__init__(f"axiom ({clause}): {message}")
        self.clause = clause
        self.code = f"axiom-violation-{clause}"


class FixedVertexError(AdmGraphError):
    code = "fixed-vertex"


class NotSimpleRestrictionError(AdmGraphError):
    """Restricting to a single edge class did not yield the simple graph."""

    code = "not-simple-restriction"


class NotHyperellipticConfigurationError(AdmGraphError):
    code = "not-hyperelliptic-configuration"


class PolarizationShapeError(AdmGraphError):
    """The divisor is not of the shape required by the closed form."""

    code = "polarization-shape"


class MissingInvolutionError(AdmGraphError):
    code = "missing-involution"


class NotTypeZeroError(AdmGraphError, ValueError):
    """Node subtypes are defined for type-0 nodes only."""

    code = "not-type-zero"


class UnexpectedComponentCountError(AdmGraphError):
    """Deleting a node pair did not split the fiber into exactly two parts."""

    code = "unexpected-component-count"


class GenusRangeError(AdmGraphError):
    code = "genus-range"


class InvalidCountsError(AdmGraphError, ValueError):
    """Node counts that no fiber has: a negative count, a vector of the
    wrong length, an index out of range or an inconsistent delta_0."""

    code = "invalid-counts"


class GenusBelowThreeError(GenusRangeError):
    """The bounds start at genus 3; genus 2 is covered by prior work and is
    deliberately out of scope here."""

    code = "genus-below-three"


class EnumerationCapError(AdmGraphError):
    """A symbolic L or M would list more terms (cuts of the quotient tree)
    than ``polynomials.MAX_TREES``; the value paths have no such limit."""

    code = "enumeration-cap"


class SchemaError(AdmGraphError):
    """A document failed validation; ``problems`` lists (json_path, message)."""

    code = "schema-error"

    def __init__(self, problems):
        self.problems = tuple(problems)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.problems)
        super().__init__(lines or "invalid document")
