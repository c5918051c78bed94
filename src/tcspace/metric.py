"""Finite metric spaces with exact rational distances.

Spaces are validated on construction: zero diagonal, symmetry, strict
positivity off the diagonal, and every triangle inequality, all checked
exactly.  Each space also carries one integer core, computed once at
construction: ``scale``, the lcm of all denominators, and the ``int``
matrix ``int_dist`` with ``dist[u][v] == int_dist[u][v] / scale``.
Scaling by a positive constant keeps every sum, ``<`` and ``==``, so
validation, ``extremes``, the matcher and the quadruple sweep
compare integers and divide by ``scale`` only when they report a
distance.  The module also generates the five one-parameter point
families (tags ``a`` .. ``e``) whose truncations exercise the
nested-matching and sign-pattern machinery elsewhere in the package.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .rationals import (
    ParseError,
    check_index,
    data_lines,
    exact_rational,
    format_rational,
    parse_rational,
)

FAMILY_TAGS = ("a", "b", "c", "d", "e")
# validation checks n(n - 1)(n - 2)/2 triangle inequalities
FAMILY_POINT_LIMIT = 64


class NotAMetricError(ValueError):
    """A metric axiom fails; carries the axiom name and witness indices."""

    def __init__(self, axiom: str, witness: tuple[int, ...], detail: str = ""):
        message = f"{axiom} violated at {witness}"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


@dataclass(frozen=True)
class FiniteMetricSpace:
    """n points with a symmetric, fully validated rational distance matrix.

    Entries are converted to ``Fraction`` on construction; ``float`` and
    ``bool`` entries are refused.  ``scale`` and ``int_dist`` are the
    integer core, ``dist[u][v] == int_dist[u][v] / scale``; they are
    derived from ``dist``, so equality, hashing and ``repr`` ignore them.
    """

    dist: tuple[tuple[Fraction, ...], ...]
    labels: tuple[str, ...] | None = None
    scale: int = field(init=False, repr=False, compare=False)
    int_dist: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        d = tuple(tuple(exact_rational(x) for x in row) for row in self.dist)
        object.__setattr__(self, "dist", d)
        n = len(d)
        for row in d:
            if len(row) != n:
                raise ValueError("distance matrix must be square")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels length must match the point count")
        scale = math.lcm(*{q.denominator for row in d for q in row})
        m = tuple(
            tuple(q.numerator * (scale // q.denominator) for q in row) for row in d
        )
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "int_dist", m)
        for u in range(n):
            if m[u][u] != 0:
                raise NotAMetricError("zero diagonal", (u,), f"d={d[u][u]}")
        for u in range(n):
            mu = m[u]
            for v in range(u + 1, n):
                if mu[v] != m[v][u]:
                    raise NotAMetricError("symmetry", (u, v))
                if mu[v] <= 0:
                    raise NotAMetricError("positivity", (u, v), f"d={d[u][v]}")
        # With symmetry, row u plus row w holds d(u,v) + d(v,w) at every v;
        # at v = u and v = w it equals d(u,w), so only a violation is below.
        # Only then are the v scanned in order to name the first witness.
        add = operator.add
        for u in range(n):
            mu, du = m[u], d[u]
            for w in range(u + 1, n):
                if min(map(add, mu, m[w])) >= mu[w]:
                    continue
                duw = du[w]
                for v in range(n):
                    if v != u and v != w and duw > du[v] + d[v][w]:
                        raise NotAMetricError(
                            "triangle",
                            (u, v, w),
                            f"{duw} > {du[v]} + {d[v][w]}",
                        )

    @classmethod
    def from_matrix(
        cls, rows: Iterable[Iterable], labels: Iterable[str] | None = None
    ) -> "FiniteMetricSpace":
        dist = tuple(tuple(row) for row in rows)
        return cls(dist, None if labels is None else tuple(labels))

    @property
    def n(self) -> int:
        return len(self.dist)

    def d(self, u: int, v: int) -> Fraction:
        return self.dist[check_index(u, self.n)][check_index(v, self.n)]

    def label(self, v: int) -> str:
        check_index(v, self.n)
        return self.labels[v] if self.labels is not None else f"p{v}"


def parse_metric(text: str) -> FiniteMetricSpace:
    """Read the plain metric format: point count, then the strict upper triangle.

    Tokens may be split across lines arbitrarily; ``#`` starts a comment.
    Raises ``ParseError`` for shape/token problems and ``NotAMetricError``
    when the numbers fail an axiom.
    """
    tokens: list[str] = []
    for _, line in data_lines(text):
        tokens.extend(line.split())
    if not tokens:
        raise ParseError("empty metric description")
    head = tokens[0]
    if not head.isdecimal() or int(head) < 1:
        raise ParseError(f"point count must be a positive integer, got {head!r}")
    n = int(head)
    body = tokens[1:]
    need = n * (n - 1) // 2
    if len(body) != need:
        raise ParseError(f"expected {need} distances for n={n}, got {len(body)}")
    d = [[Fraction(0)] * n for _ in range(n)]
    it = iter(body)
    for u in range(n):
        for v in range(u + 1, n):
            q = parse_rational(next(it))
            d[u][v] = d[v][u] = q
    return FiniteMetricSpace(tuple(tuple(row) for row in d))


def serialize_metric(space: FiniteMetricSpace) -> str:
    """Write the format read by :func:`parse_metric` (labels are not stored)."""
    lines = [str(space.n)]
    for u in range(space.n - 1):
        lines.append(
            " ".join(format_rational(space.dist[u][v]) for v in range(u + 1, space.n))
        )
    return "\n".join(lines) + "\n"


def family_distance(tag: str, k: int, m: int) -> Fraction:
    """Distance between points v_k and v_m (1-based, k != m) of family ``tag``."""
    if tag not in FAMILY_TAGS:
        raise ValueError(f"unknown family {tag!r}, expected one of {FAMILY_TAGS}")
    check_index(k, None, "family index")
    check_index(m, None, "family index")
    if k < 1 or m < 1 or k == m:
        raise ValueError("family indices must be distinct and >= 1")
    if k > m:
        k, m = m, k
    if tag == "a":
        return Fraction(k + m) - Fraction(1, k)
    if tag == "b":
        return 2 - Fraction(1, k) + Fraction(1, m)
    if tag == "c":
        return 2 - Fraction(1, k) - Fraction(1, 2 * m)
    if tag == "d":
        return 1 + Fraction(1, m)
    return 1 + Fraction(1, 2 * k) + Fraction(1, m)


def family_metric(tag: str, n: int) -> FiniteMetricSpace:
    """The first ``n`` points of family ``tag``, labelled ``v1`` .. ``vn``.

    ``n`` is capped at ``FAMILY_POINT_LIMIT``.
    """
    # a bool is an int below the minimum, so the range check refuses it
    if not isinstance(n, int):
        check_index(n, None, "point count")
    if n < 2:
        raise ValueError("family truncations need n >= 2")
    if n > FAMILY_POINT_LIMIT:
        raise ValueError(f"family truncation too large (limit {FAMILY_POINT_LIMIT})")
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = family_distance(tag, i + 1, j + 1)
            d[i][j] = d[j][i] = q
    labels = tuple(f"v{i + 1}" for i in range(n))
    return FiniteMetricSpace(tuple(tuple(row) for row in d), labels)


def extremes(space: FiniteMetricSpace) -> tuple[Fraction, Fraction]:
    """``(smallest distance, diameter)`` over distinct point pairs."""
    n = space.n
    if n < 2:
        raise ValueError("extremes need at least two points")
    m = space.int_dist
    values = [m[u][v] for u in range(n) for v in range(u + 1, n)]
    return Fraction(min(values), space.scale), Fraction(max(values), space.scale)
