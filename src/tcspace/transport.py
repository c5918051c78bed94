"""Transportation problems and the transportation cost norm.

A transportation problem is a finitely supported rational function on
the points of a metric space whose values sum to zero.  Its norm is the
cheapest total ``amount * distance`` cost of moving the positive part
onto the negative part.  The production route is an exact min-cost
flow; an independent simplex formulation is kept alongside it as an
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .metric import FiniteMetricSpace
from .rationals import (
    ParseError,
    data_lines,
    exact_rational,
    format_rational,
    parse_rational,
)
from .solvers import EQ, FlowNetwork, LinearProgram, min_cost_flow, simplex_solve

_ZERO = Fraction(0)

BRUTE_FORCE_SUPPORT_LIMIT = 12


class NotZeroSumError(ValueError):
    """Values of a would-be transportation problem do not sum to zero."""


@dataclass(frozen=True)
class TransportationProblem:
    """Finitely supported zero-sum rational function on point indices.

    Entries are normalized on construction: repeated indices are merged,
    zero values are dropped, and the support is kept sorted.  Equality is
    support-and-value equality.
    """

    entries: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self):
        merged: dict[int, Fraction] = {}
        for v, a in self.entries:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"point index must be a nonnegative int, got {v!r}")
            merged[v] = merged.get(v, _ZERO) + exact_rational(a)
        cleaned = tuple(sorted((v, a) for v, a in merged.items() if a != 0))
        if sum((a for _, a in cleaned), _ZERO) != 0:
            raise NotZeroSumError("values must sum to zero")
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def from_values(
        cls, values: Mapping[int, Fraction] | Iterable[tuple[int, Fraction]]
    ) -> "TransportationProblem":
        items = values.items() if isinstance(values, Mapping) else values
        return cls(tuple((v, a) for v, a in items))

    def value(self, v: int) -> Fraction:
        for p, a in self.entries:
            if p == v:
                return a
        return _ZERO

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def scaled(self, factor) -> "TransportationProblem":
        q = Fraction(factor)
        return TransportationProblem(tuple((v, q * a) for v, a in self.entries))

    def __add__(self, other: "TransportationProblem") -> "TransportationProblem":
        return TransportationProblem(self.entries + other.entries)

    def __sub__(self, other: "TransportationProblem") -> "TransportationProblem":
        return self + (-other)

    def __neg__(self) -> "TransportationProblem":
        return TransportationProblem(tuple((v, -a) for v, a in self.entries))


@dataclass(frozen=True)
class TransportPlan:
    """Moves ``(source, sink, amount)`` with positive amounts, plus total cost.

    Applying the moves to the zero function reproduces the owning
    problem; ``cost`` is the amount-weighted distance total in the space
    the plan was computed for.
    """

    moves: tuple[tuple[int, int, Fraction], ...]
    cost: Fraction

    def __post_init__(self):
        cleaned = []
        for x, y, a in self.moves:
            a = Fraction(a)
            if a <= 0:
                raise ValueError("move amounts must be strictly positive")
            if x == y:
                raise ValueError("moves must join distinct points")
            cleaned.append((x, y, a))
        object.__setattr__(self, "moves", tuple(cleaned))
        object.__setattr__(self, "cost", Fraction(self.cost))

    def problem(self) -> TransportationProblem:
        """The transportation problem these moves resolve."""
        acc: dict[int, Fraction] = {}
        for x, y, a in self.moves:
            acc[x] = acc.get(x, _ZERO) + a
            acc[y] = acc.get(y, _ZERO) - a
        return TransportationProblem.from_values(acc)

    def cost_in(self, space: FiniteMetricSpace) -> Fraction:
        """Recompute the amount-weighted distance total in ``space``."""
        return sum((a * space.dist[x][y] for x, y, a in self.moves), _ZERO)


def _check_support(space: FiniteMetricSpace, f: TransportationProblem) -> None:
    for v, _ in f.entries:
        if v >= space.n:
            raise IndexError(f"support point {v} out of range for n={space.n}")


def l1_norm(f: TransportationProblem) -> Fraction:
    """Plain absolute-value sum of the function values."""
    return sum((abs(a) for _, a in f.entries), _ZERO)


def tc_norm(
    space: FiniteMetricSpace, f: TransportationProblem
) -> tuple[Fraction, TransportPlan]:
    """Transportation cost norm of ``f`` plus one optimal plan.

    Solved as a bipartite min-cost flow from the positive part to the
    negative part.  The plan's moves go from points with f > 0 to points
    with f < 0 only; optimal plans need not be unique.
    """
    _check_support(space, f)
    pos = [(v, a) for v, a in f.entries if a > 0]
    neg = [(v, -a) for v, a in f.entries if a < 0]
    if not pos:
        return _ZERO, TransportPlan((), _ZERO)
    supplies = [a for _, a in pos] + [-a for _, a in neg]
    arcs = []
    for i, (x, _) in enumerate(pos):
        for j, (y, _) in enumerate(neg):
            arcs.append((i, len(pos) + j, space.dist[x][y], None))
    cost, flows = min_cost_flow(FlowNetwork(supplies, arcs))
    moves = []
    k = 0
    for i, (x, _) in enumerate(pos):
        for j, (y, _) in enumerate(neg):
            if flows[k] > 0:
                moves.append((x, y, flows[k]))
            k += 1
    return cost, TransportPlan(tuple(moves), cost)


def tc_brute_force(space: FiniteMetricSpace, f: TransportationProblem) -> Fraction:
    """Independent oracle for :func:`tc_norm`: the full transportation LP.

    Builds the complete bipartite constraint matrix and hands it to the
    simplex solver; no flow machinery is involved.  Support is capped at
    ``BRUTE_FORCE_SUPPORT_LIMIT`` points.
    """
    _check_support(space, f)
    if len(f.entries) > BRUTE_FORCE_SUPPORT_LIMIT:
        raise ValueError(
            f"support too large for the brute-force route "
            f"(limit {BRUTE_FORCE_SUPPORT_LIMIT})"
        )
    pos = [(v, a) for v, a in f.entries if a > 0]
    neg = [(v, -a) for v, a in f.entries if a < 0]
    if not pos:
        return _ZERO
    np_, nn_ = len(pos), len(neg)
    nvars = np_ * nn_
    objective = [
        space.dist[x][y] for x, _ in pos for y, _ in neg
    ]
    constraints = []
    for i, (_, a) in enumerate(pos):
        row = [_ZERO] * nvars
        for j in range(nn_):
            row[i * nn_ + j] = Fraction(1)
        constraints.append((row, EQ, a))
    for j, (_, b) in enumerate(neg):
        row = [_ZERO] * nvars
        for i in range(np_):
            row[i * nn_ + j] = Fraction(1)
        constraints.append((row, EQ, b))
    bounds = [(Fraction(0), None)] * nvars
    value, _ = simplex_solve(LinearProgram(objective, constraints, bounds))
    return value


def point_embedding(
    space: FiniteMetricSpace, v: int, base: int
) -> TransportationProblem:
    """The unit problem ``1_v - 1_base`` (the zero problem when v == base)."""
    for p in (v, base):
        if not 0 <= p < space.n:
            raise IndexError(f"point index {p} out of range for n={space.n}")
    if v == base:
        return TransportationProblem()
    return TransportationProblem.from_values({v: Fraction(1), base: Fraction(-1)})


def parse_problem(text: str) -> TransportationProblem:
    """Read the ``index value`` line format; repeated indices are summed."""
    acc: dict[int, Fraction] = {}
    for lineno, line in data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'index value'")
        idx, val = parts
        if not idx.isdigit():
            raise ParseError(f"line {lineno}: bad point index {idx!r}")
        v = int(idx)
        acc[v] = acc.get(v, _ZERO) + parse_rational(val)
    return TransportationProblem.from_values(acc)


def format_problem(f: TransportationProblem) -> str:
    """Write the format read by :func:`parse_problem`."""
    return "".join(f"{v} {format_rational(a)}\n" for v, a in f.entries)
