"""The exact data model: its API boundary, sparse vectors and text formats.

Every number in the formats is an exact rational written as ``p`` or
``p/q``; nothing is routed through floating point.  All formats allow
``#`` comments and blank lines.  Values handed to the constructors go
through :func:`exact_rational`, which refuses ``float`` and ``bool``,
and point indices through :func:`check_index`, which refuses anything
but a plain ``int``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import replace
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Mapping

_ZERO = Fraction(0)

_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z")


class ParseError(ValueError):
    """Malformed token or wrong shape in a text input."""


def parse_rational(token: str) -> Fraction:
    """Parse ``p`` or ``p/q`` exactly; reject anything else."""
    if not (match := _RATIONAL.match(token)):
        raise ParseError(f"not a rational token: {token!r}")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
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


def check_index(p, n: int | None = None, what: str = "point index") -> int:
    """``p`` as a point index of an ``n``-point space (any size if ``n`` is None).

    A non-``int`` or ``bool`` index, or a negative one when ``n`` is
    None, raises ``ValueError``; an index outside ``0 <= p < n`` raises
    ``IndexError``.
    """
    if type(p) is not int or (n is None and p < 0):
        raise ValueError(f"{what} must be a nonnegative int, got {p!r}")
    if n is not None and not 0 <= p < n:
        raise IndexError(f"{what} {p} out of range for n={n}")
    return p


class SparseVector:
    """Finitely supported exact rational values on sortable keys.

    Subclasses are frozen dataclasses with an ``entries`` field of
    ``(key, value)`` pairs and a ``check_key`` that refuses bad keys.
    Entries are normalized on construction: values go through
    :func:`exact_rational`, repeated keys are summed, zero values are
    dropped and the keys are kept sorted, so equality is support-and-value
    equality.  Results of the algebra keep the type and every other field
    of ``self``; sums need those other fields to agree.
    """

    entries: tuple

    def __post_init__(self):
        check = self.check_key
        merged: dict = {}
        for k, a in self.entries:
            check(k)
            a = exact_rational(a)
            merged[k] = merged[k] + a if k in merged else a
        cleaned = tuple(sorted(item for item in merged.items() if item[1]))
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def from_values(cls, *fields_and_values):
        """``cls(*fields, entries)`` from a mapping or ``(key, value)`` pairs."""
        *fields, values = fields_and_values
        items = values.items() if isinstance(values, Mapping) else values
        return cls(*fields, tuple(items))

    def value(self, key) -> Fraction:
        self.check_key(key)
        at = bisect_left(self.entries, key, key=itemgetter(0))
        if at < len(self.entries) and self.entries[at][0] == key:
            return self.entries[at][1]
        return _ZERO

    @property
    def support(self) -> tuple:
        return tuple(k for k, _ in self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def scaled(self, factor):
        q = exact_rational(factor)
        return replace(self, entries=tuple((k, q * a) for k, a in self.entries))

    def __add__(self, other):
        if replace(other, entries=()) != replace(self, entries=()):
            raise ValueError("vectors live on different point counts")
        return replace(self, entries=self.entries + other.entries)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return replace(self, entries=tuple((k, -a) for k, a in self.entries))


def format_rational(value: Fraction | int) -> str:
    """Lowest-terms ``p/q``, or plain ``p`` when integral; no float or bool."""
    return str(exact_rational(value))


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line_number, content)`` with comments and blanks stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# arity -> (line shape, what a bad index token is called)
_LINE_SHAPES = {1: ("index value", "bad point index"), 2: ("i j value", "bad edge indices")}


def indexed_lines(
    text: str, arity: int, n: int | None = None
) -> Iterator[tuple[int, tuple[int, ...], Fraction]]:
    """Yield ``(line_number, indices, value)`` from ``index ... value`` lines.

    Each data line holds ``arity`` decimal indices and one rational.
    With ``n`` given, every index must also be below ``n``.
    """
    shape, bad = _LINE_SHAPES[arity]
    for lineno, line in data_lines(text):
        parts = line.split()
        if len(parts) != arity + 1:
            raise ParseError(f"line {lineno}: expected '{shape}'")
        *tokens, value = parts
        if not all(t.isdecimal() for t in tokens):
            raise ParseError(f"line {lineno}: {bad} " + " ".join(map(repr, tokens)))
        indices = tuple(map(int, tokens))
        if n is not None:
            try:
                for v in indices:
                    check_index(v, n, "index")
            except IndexError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        yield lineno, indices, parse_rational(value)
