"""Shared plumbing for the plain-text file formats and the exact API boundary.

Every number in the formats is an exact rational written as ``p`` or
``p/q``; nothing is routed through floating point.  All formats allow
``#`` comments and blank lines.  Values handed to the constructors go
through :func:`exact_rational`, which refuses ``float`` and ``bool``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator

_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


class ParseError(ValueError):
    """Malformed token or wrong shape in a text input."""


def parse_rational(token: str) -> Fraction:
    """Parse ``p`` or ``p/q`` exactly; reject anything else."""
    if not _RATIONAL.match(token):
        raise ParseError(f"not a rational token: {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {token!r}") from None


def exact_rational(value) -> Fraction:
    """``Fraction(value)`` for an exact value: int, Fraction or ``'p/q'``.

    ``float`` is refused because it carries binary rounding (``0.1``
    would become ``3602879701896397/36028797018963968``), and ``bool``
    because it is not a number.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise ValueError(
            f"{value!r} is a {type(value).__name__}; "
            "expected an exact rational (int, Fraction or 'p/q' string)"
        )
    return Fraction(value)


def format_rational(value: Fraction | int) -> str:
    """Render lowest-terms ``p/q``, or plain ``p`` when the value is integral."""
    return str(Fraction(value))


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line_number, content)`` with comments and blanks stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line
