"""Exact rational arithmetic helpers.

Every number in this package (edge weight, LP coefficient, profit) is a
`fractions.Fraction`; nothing on the analysis path ever touches floating
point.  Core membership, duality gaps and tightness of constraints are
all decided by equality tests, which are meaningless under rounding.
`Fraction` already stores values in lowest terms with a positive
denominator, so equality is structural and values can key dicts.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rational = Fraction

_LITERAL = re.compile(r"(-?[0-9]+)(?:\.([0-9]+)|/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse a decimal or p/q literal into an exact Fraction.

    Accepts ``"7"``, ``"-2.5"``, ``"11/10"``.  Decimal expansion is exact:
    ``parse_rational("1.1") == Fraction(11, 10)``.  Scientific notation,
    whitespace and a signed or zero denominator are rejected so that the
    set of accepted strings round-trips through :func:`format_rational`.
    """
    m = _LITERAL.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    whole, digits, den = m.groups()
    if digits is not None:
        return Fraction(int(whole + digits), 10 ** len(digits))
    if den is None:
        return Fraction(int(whole))
    if int(den) == 0:
        raise ValueError(f"zero denominator in rational literal {text!r}")
    return Fraction(int(whole), int(den))


def format_rational(value: Fraction) -> str:
    """Canonical text form: ``p/q`` in lowest terms, ``p`` for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"

