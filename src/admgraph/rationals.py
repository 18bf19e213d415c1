"""Exact rational scalars.

All arithmetic in this package is exact: values are ``fractions.Fraction``
throughout, floats are rejected at every boundary.  ``INFINITY`` is the one
extended value, arising only as the cross-edge resistance of a bridge.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import _shown

_RATIONAL_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")
_INTEGER_RE = re.compile(r"-?[0-9]+")


class Infinity:
    """Positive infinity for extended-rational results (bridge resistances)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("admgraph.INFINITY")


INFINITY = Infinity()


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or rational string to Fraction.

    Floats are rejected: they would silently break the exactness contract.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


# No literal of at most this many characters can pass the digit limit:
# sys.set_int_max_str_digits refuses a limit below it (640).  0 where
# CPython has no such threshold: every literal is then checked.
_CHECK_THRESHOLD = getattr(sys.int_info, "str_digits_check_threshold", 0)


def _digit_limit_excess(literal: str) -> str:
    """Why CPython would refuse to convert a decimal integer literal (sign
    and surrounding whitespace allowed) that has more digits than
    sys.get_int_max_str_digits() (4300 by default); "" if it would not,
    without a scan when the literal is no longer than _CHECK_THRESHOLD."""
    if len(literal) <= _CHECK_THRESHOLD:
        return ""
    digits = literal.strip().lstrip("+-")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and len(digits) > limit and digits.isdecimal():
        return (
            f"an integer of {len(digits)} digits, "
            f"more than the {limit} digits admgraph reads per integer"
        )
    return ""


def parse_rational(text: str) -> Fraction:
    """Parse "p", "-p", or "p/q" with q > 0 in ASCII digits; anything else is an error.

    p and q may have at most as many digits as CPython converts from a
    string (sys.get_int_max_str_digits(), 4300 by default); longer literals
    are rejected with a message naming that limit.  Results may be longer
    than that, since format_rational writes any length.
    """
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad rational literal: {_shown(text, 'literal')}")
    p, q = m.groups()
    excess = _digit_limit_excess(max(p.lstrip("-"), q or "", key=len))
    if excess:
        raise ValueError(f"rational literal too long: {excess}")
    if q is None:
        return Fraction(int(p))
    den = int(q)
    if den == 0:
        raise ValueError(f"bad rational literal (zero denominator): {_shown(text, 'literal')}")
    return Fraction(int(p), den)


def _parse_integer(text: str) -> int:
    """The integers of parse_rational's grammar: "p" or "-p" in ASCII digits,
    surrounding whitespace allowed.  Anything else (other digits, "_", "+")
    is a ValueError; the caller checks the digit limit first."""
    stripped = text.strip()
    if not _INTEGER_RE.fullmatch(stripped):
        raise ValueError(f"bad integer literal: {_shown(text, 'literal')}")
    return int(stripped)


_CHUNK_DIGITS = 1000
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n: int) -> str:
    """str(n) for an int of any size.  CPython refuses str() of ints longer
    than sys.get_int_max_str_digits() (4300 by default), so long ones are
    written in chunks of _CHUNK_DIGITS digits."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    rest, chunks = abs(n), []
    while rest >= _CHUNK:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    return ("-" if n < 0 else "") + str(rest) + "".join(reversed(chunks))


def format_rational(value: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise; exact at
    any size."""
    value = Fraction(value)
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
