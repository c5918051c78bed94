"""Lipschitz duality: constants, the pairing, exact dual optima, gradients.

A point function h certifies a lower bound sum(h * f) <= lip(h) * tc(f)
on the transportation cost; an optimal h vanishing at the base point
attains equality.  The dual optimum is computed by its own LP over the
Lipschitz constraints so it stays independent of the flow and quotient
routes to the norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .metric import FiniteMetricSpace
from .quotient import EdgeVector, all_edges
from .rationals import check_index, exact_rational
from .solvers import LE, LinearProgram, simplex_solve
from .transport import TransportationProblem

_ZERO = Fraction(0)
_ONE = Fraction(1)

# n(n - 1) Lipschitz rows over n - 1 variables
DUAL_POINT_LIMIT = 32


@dataclass(frozen=True)
class LipFunction:
    """A rational function on all points, stored as a dense value tuple."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(exact_rational, self.values)))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, v: int) -> Fraction:
        return self.values[v]


def lip_constant(space: FiniteMetricSpace, h: LipFunction) -> Fraction:
    """Smallest L with |h(u) - h(v)| <= L * d(u, v) everywhere."""
    if len(h) != space.n:
        raise ValueError("function and space have different point counts")
    best = _ZERO
    for u in range(space.n):
        for v in range(u + 1, space.n):
            ratio = abs(h[u] - h[v]) / space.dist[u][v]
            if ratio > best:
                best = ratio
    return best


def pairing(h: LipFunction, f: TransportationProblem) -> Fraction:
    """The dual pairing sum over v of h(v) * f(v)."""
    for v, _ in f.entries:
        if v >= len(h):
            raise ValueError(
                f"support point {v} outside the function's {len(h)} points"
            )
    return sum((h[v] * a for v, a in f.entries), _ZERO)


def dual_optimal(
    space: FiniteMetricSpace, f: TransportationProblem, base: int = 0
) -> tuple[LipFunction, Fraction]:
    """A 1-Lipschitz h vanishing at ``base`` maximizing the pairing with f.

    Solved as an exact LP with one variable per non-base point and the
    two-sided Lipschitz constraints on every pair; the optimal value
    equals the transportation cost norm of f.  Capped at
    ``DUAL_POINT_LIMIT`` points.
    """
    n = space.n
    if n > DUAL_POINT_LIMIT:
        raise ValueError(f"space too large for the dual LP (limit {DUAL_POINT_LIMIT})")
    check_index(base, n, "base point")
    for v, _ in f.entries:
        check_index(v, n, "support point")
    if n == 1:
        return LipFunction((_ZERO,)), _ZERO
    var_of = {v: idx for idx, v in enumerate(p for p in range(n) if p != base)}
    supply = dict(f.entries)
    objective = [-supply.get(v, _ZERO) for v in var_of]
    constraints = []
    for u in range(n):
        for w in range(u + 1, n):
            # h(u) - h(w) over the non-base variables
            row = {var_of[v]: s for v, s in ((u, _ONE), (w, -_ONE)) if v != base}
            d = space.dist[u][w]
            constraints.append((row, LE, d))
            constraints.append(({j: -s for j, s in row.items()}, LE, d))
    value, x = simplex_solve(LinearProgram(objective, constraints))
    values = [_ZERO] * n
    for v, idx in var_of.items():
        values[v] = x[idx]
    return LipFunction(tuple(values)), -value


def gradient_field(space: FiniteMetricSpace, h: LipFunction) -> EdgeVector:
    """Edge vector of increments: edge (i, j), i < j, carries h(j) - h(i)."""
    if len(h) != space.n:
        raise ValueError("function and space have different point counts")
    edges = all_edges(space.n)
    return EdgeVector.from_values(space.n, {(i, j): h[j] - h[i] for i, j in edges})


def linf_d_norm(space: FiniteMetricSpace, g: EdgeVector) -> Fraction:
    """Distance-relative sup norm: max of |g_e| / d(e)."""
    if g.n != space.n:
        raise ValueError("edge vector and space have different point counts")
    best = _ZERO
    for (i, j), v in g.entries:
        ratio = abs(v) / space.dist[i][j]
        if ratio > best:
            best = ratio
    return best
