"""Seeded random instances for self-tests, scripts, and sweeps.

All generators take an explicit ``random.Random`` so runs are
reproducible byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .metric import FiniteMetricSpace
from .rationals import check_index
from .transport import TransportationProblem

_ZERO = Fraction(0)


def _check_size(n) -> None:
    # a bool is an int below the minimum, so the range check refuses it
    if not isinstance(n, int):
        check_index(n, None, "point count")
    if n < 2:
        raise ValueError("need n >= 2")


def random_metric_space(rng: random.Random, n: int) -> FiniteMetricSpace:
    """A random metric with all distances in [1, 2].

    Any symmetric table with values in [1, 2] satisfies every triangle
    inequality, so this samples freely in that band.
    """
    _check_size(n)
    d = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = rng.randrange(1, 7)
            num = rng.randrange(den, 2 * den + 1)
            d[i][j] = d[j][i] = Fraction(num, den)
    return FiniteMetricSpace(tuple(tuple(row) for row in d))


def random_line_space(rng: random.Random, n: int) -> FiniteMetricSpace:
    """Distinct rational points on a line with their absolute-value metric."""
    _check_size(n)
    coords = [_ZERO]
    for _ in range(n - 1):
        coords.append(
            coords[-1] + Fraction(rng.randrange(1, 13), rng.randrange(1, 5))
        )
    d = tuple(
        tuple(abs(coords[i] - coords[j]) for j in range(n)) for i in range(n)
    )
    return FiniteMetricSpace(d)


def random_zero_sum_problem(
    rng: random.Random, space: FiniteMetricSpace, max_support: int
) -> TransportationProblem:
    """A random nonzero problem with 2..max_support support points."""
    if not isinstance(max_support, int):
        check_index(max_support, None, "max_support")
    cap = min(max_support, space.n)
    if cap < 2:
        raise ValueError("need room for at least two support points")
    while True:
        size = rng.randrange(2, cap + 1)
        points = sorted(rng.sample(range(space.n), size))
        values = [
            Fraction(rng.randrange(-12, 13), rng.choice((1, 2, 3, 4)))
            for _ in range(size - 1)
        ]
        last = -sum(values, _ZERO)
        if any(v == 0 for v in values) or last == 0:
            continue
        return TransportationProblem.from_values(dict(zip(points, values + [last])))
