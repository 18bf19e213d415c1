"""Exception hierarchy.

Every domain error carries a stable ``code`` string so the CLI can map
failures to machine-readable output without string matching on messages.
Messages show ids and other inputs through ``_shown``.
"""

# The longest input a message repeats; a longer one is named by its size,
# as the digit-limit messages name an over-long integer.
ECHO_LIMIT = 100


def _shown(value, noun: str = "id") -> str:
    """repr(value) for a message, or, for a string longer than ECHO_LIMIT
    characters, an integer of more digits or a list or dict (a JSON array
    or object) whose repr is longer, its kind and size: "<an id of 5000
    characters>", "<an integer of 4000 digits>", "<a list of 100000
    items>"."""
    if isinstance(value, str) and len(value) > ECHO_LIMIT:
        article = "an" if noun[0] in "aeiou" else "a"
        return f"<{article} {noun} of {len(value)} characters>"
    if isinstance(value, int) and abs(value) >= 10**ECHO_LIMIT:
        return f"<an integer of {_digits(abs(value))} digits>"
    if type(value) in _CONTAINERS:
        pieces: list = []
        if _write_within(value, pieces, ECHO_LIMIT) < 0:
            n = len(value)
            return f"<a {type(value).__name__} of {n} item{'' if n == 1 else 's'}>"
        return "".join(pieces)
    return repr(value)


_CONTAINERS = (list, dict)


def _write_within(value, pieces: list, room: int) -> int:
    """Append repr(value) to pieces while it fits in ``room`` characters;
    returns the room left, negative once it does not fit.  Lists and dicts
    are written item by item, so a long or deeply nested one is neither
    written in full nor walked past the room."""
    kind = type(value)
    if kind not in _CONTAINERS:
        if (isinstance(value, str) and len(value) > room) or (
            isinstance(value, int) and abs(value) >= 10**room
        ):
            return -1
        text = repr(value)
        pieces.append(text)
        return room - len(text)
    pieces.append("[" if kind is list else "{")
    room -= 2  # both brackets
    if room < 0:
        return room
    for k, item in enumerate(value if kind is list else value.items()):
        if k:
            pieces.append(", ")
            room -= 2
        if kind is dict:
            room = _write_within(item[0], pieces, room)
            pieces.append(": ")
            room -= 2
            item = item[1]
        room = _write_within(item, pieces, room)
        if room < 0:
            return room
    pieces.append("]" if kind is list else "}")
    return room


def _digits(n: int) -> int:
    """The number of decimal digits of n > 0, counted without str(), which
    refuses integers past sys.get_int_max_str_digits()."""
    d = int(n.bit_length() * 0.30102999566398120) - 1  # log10(2); never too many
    while 10**d <= n:
        d += 1
    return d


def _path_key(key) -> str:
    """An object key as a step of a JSON path: a string key itself, or as
    ``_shown`` names it past ECHO_LIMIT characters; a key of another type,
    which only a Python dict can hold, as ``_shown`` names it."""
    return key if isinstance(key, str) and len(key) <= ECHO_LIMIT else _shown(key)


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
