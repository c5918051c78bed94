"""Transportation problems and the transportation cost norm.

A transportation problem is a finitely supported rational function on
the points of a metric space whose values sum to zero.  Its norm is the
cheapest total ``amount * distance`` cost of moving the positive part
onto the negative part.  The production route is an exact min-cost
flow; an independent simplex formulation is kept alongside it as an
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .metric import FiniteMetricSpace
from .rationals import (
    SparseVector,
    check_index,
    exact_rational,
    format_rational,
    indexed_lines,
)
from .solvers import EQ, LinearProgram, min_cost_flow, simplex_solve

_ZERO = Fraction(0)

BRUTE_FORCE_SUPPORT_LIMIT = 12


class NotZeroSumError(ValueError):
    """Values of a would-be transportation problem do not sum to zero."""


@dataclass(frozen=True)
class TransportationProblem(SparseVector):
    """Finitely supported zero-sum rational function on point indices.

    Entries are normalized on construction: repeated indices are merged,
    zero values are dropped, and the support is kept sorted.  Equality is
    support-and-value equality.
    """

    entries: tuple[tuple[int, Fraction], ...] = ()

    check_key = staticmethod(check_index)

    def __post_init__(self):
        super().__post_init__()
        if sum((a for _, a in self.entries), _ZERO) != 0:
            raise NotZeroSumError("values must sum to zero")


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
            check_index(x, None, "move endpoint")
            check_index(y, None, "move endpoint")
            a = exact_rational(a)
            if a <= 0:
                raise ValueError("move amounts must be strictly positive")
            if x == y:
                raise ValueError("moves must join distinct points")
            cleaned.append((x, y, a))
        object.__setattr__(self, "moves", tuple(cleaned))
        object.__setattr__(self, "cost", exact_rational(self.cost))

    def problem(self) -> TransportationProblem:
        """The transportation problem these moves resolve."""
        return TransportationProblem.from_values(
            e for x, y, a in self.moves for e in ((x, a), (y, -a))
        )

    def cost_in(self, space: FiniteMetricSpace) -> Fraction:
        """Recompute the amount-weighted distance total in ``space``."""
        for x, y, _ in self.moves:
            check_index(x, space.n, "move endpoint")
            check_index(y, space.n, "move endpoint")
        return sum((a * space.dist[x][y] for x, y, a in self.moves), _ZERO)


def _signed_parts(
    space: FiniteMetricSpace, f: TransportationProblem
) -> tuple[list[tuple[int, Fraction]], list[tuple[int, Fraction]]]:
    """The ``(point, amount)`` pairs where ``f > 0`` and where ``f < 0``,
    amounts positive in both, once the support is checked against ``space``."""
    for v, _ in f.entries:
        check_index(v, space.n, "support point")
    pos = [(v, a) for v, a in f.entries if a > 0]
    neg = [(v, -a) for v, a in f.entries if a < 0]
    return pos, neg


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

    The flow runs on ``int``: amounts are scaled by the lcm ``S`` of
    their denominators and the distances between the two parts by the
    lcm ``D`` of theirs.  Scaling by positive constants keeps every
    comparison, so the plan is the one the rational flow would find;
    moves come back as ``t / S`` and the norm as ``total / (S*D)``.
    ``D`` is taken over the support's own distances, not the space's
    ``scale``: on a space with many coprime denominators ``scale`` has
    thousands of bits, and every flow step would pay for them.
    """
    pos, neg = _signed_parts(space, f)
    if not pos:
        return _ZERO, TransportPlan((), _ZERO)
    scale = math.lcm(*(a.denominator for _, a in f.entries))
    supplies = [a.numerator * (scale // a.denominator) for _, a in pos]
    supplies += [-a.numerator * (scale // a.denominator) for _, a in neg]
    dist = [[space.dist[x][y] for y, _ in neg] for x, _ in pos]
    cost_scale = math.lcm(*(d.denominator for row in dist for d in row))
    k = len(pos)
    arcs = [
        (i, k + j, d.numerator * (cost_scale // d.denominator))
        for i, row in enumerate(dist)
        for j, d in enumerate(row)
    ]
    total, flows = min_cost_flow(supplies, arcs)
    points = [v for v, _ in pos] + [v for v, _ in neg]
    moves = tuple(
        (points[i], points[j], Fraction(t, scale))
        for (i, j, _), t in zip(arcs, flows)
        if t > 0
    )
    cost = Fraction(total, scale * cost_scale)
    return cost, TransportPlan(moves, cost)


def tc_brute_force(space: FiniteMetricSpace, f: TransportationProblem) -> Fraction:
    """Independent oracle for :func:`tc_norm`: the full transportation LP.

    Builds the complete bipartite constraint matrix and hands it to the
    simplex solver; no flow machinery is involved.  Support is capped at
    ``BRUTE_FORCE_SUPPORT_LIMIT`` points.
    """
    pos, neg = _signed_parts(space, f)
    if len(f.entries) > BRUTE_FORCE_SUPPORT_LIMIT:
        raise ValueError(
            f"support too large for the brute-force route "
            f"(limit {BRUTE_FORCE_SUPPORT_LIMIT})"
        )
    if not pos:
        return _ZERO
    np_, nn_ = len(pos), len(neg)
    objective = [
        space.dist[x][y] for x, _ in pos for y, _ in neg
    ]
    constraints = []
    for i, (_, a) in enumerate(pos):
        constraints.append(({i * nn_ + j: 1 for j in range(nn_)}, EQ, a))
    for j, (_, b) in enumerate(neg):
        constraints.append(({i * nn_ + j: 1 for i in range(np_)}, EQ, b))
    value, _ = simplex_solve(LinearProgram(objective, constraints))
    return value


def point_embedding(
    space: FiniteMetricSpace, v: int, base: int
) -> TransportationProblem:
    """The unit problem ``1_v - 1_base`` (the zero problem when v == base)."""
    check_index(v, space.n)
    check_index(base, space.n)
    if v == base:
        return TransportationProblem()
    return TransportationProblem.from_values({v: Fraction(1), base: Fraction(-1)})


def parse_problem(text: str) -> TransportationProblem:
    """Read the ``index value`` line format; repeated indices are summed."""
    return TransportationProblem.from_values(
        (v, a) for _, (v,), a in indexed_lines(text, 1)
    )


def format_problem(f: TransportationProblem) -> str:
    """Write the format read by :func:`parse_problem`."""
    return "".join(f"{v} {format_rational(a)}\n" for v, a in f.entries)
