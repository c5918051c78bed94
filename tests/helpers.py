"""Shared test machinery: line spaces, alternative plans, exact rank,
hypothesis strategies, and a generator of provably minimal pair sequences."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from tcspace import (
    FiniteMetricSpace,
    PairSequence,
    TransportPlan,
    TransportationProblem,
)

ZERO = Fraction(0)


def line_space(coords) -> FiniteMetricSpace:
    """Metric space of rational points on the real line."""
    pts = [Fraction(c) for c in coords]
    rows = [[abs(a - b) for b in pts] for a in pts]
    return FiniteMetricSpace.from_matrix(rows)


def relay_plan(space: FiniteMetricSpace, f: TransportationProblem, base: int = 0):
    """A valid but usually wasteful plan routing everything through ``base``.

    Positive mass moves to the base point first, then out to the deficits.
    Reconstructing the problem from the moves gives back ``f`` exactly, so
    this is a second, independent source of lifts for the quotient route.
    """
    moves = []
    for v, a in f.entries:
        if v == base:
            continue
        if a > 0:
            moves.append((v, base, a))
        else:
            moves.append((base, v, -a))
    cost = sum((a * space.d(x, y) for x, y, a in moves), ZERO)
    return TransportPlan(tuple(moves), cost)


def exact_rank(rows) -> int:
    """Rank of a rational matrix by straight Gaussian elimination."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return 0
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][col]
        m[rank] = [x / inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def clustered_pair_sequence(rng, count: int):
    """A line space plus a pair sequence that every prefix check must accept.

    Pair i sits alone in a cluster around 100 * (i + 1) with half-width
    at most 8, so the prescribed prefix weight never exceeds 16 * count
    while any other matching of a prefix uses a cross-cluster edge of
    length at least 84.  The prescribed pairing is therefore the strict
    minimum at every prefix.
    """
    coords = []
    pairs = []
    for i in range(count):
        center = Fraction(100 * (i + 1))
        gap = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
        coords.append(center - gap)
        coords.append(center + gap)
        pairs.append((2 * i, 2 * i + 1))
    return line_space(coords), PairSequence(tuple(pairs))


# pairwise coprime, so every common denominator is a product of them
PRIMES = (101, 103, 107, 109, 113, 127, 131, 137)


def over_a_prime(lo: int, hi: int):
    """Rationals p/q in [lo, hi] whose denominator q is drawn from PRIMES."""
    return st.sampled_from(PRIMES).flatmap(
        lambda q: st.integers(lo * q, hi * q).map(lambda p: Fraction(p, q))
    )


@st.composite
def metric_spaces(draw, min_n: int = 3, max_n: int = 6) -> FiniteMetricSpace:
    """Spaces with all distances in [1, 2]: triangles hold automatically."""
    n = draw(st.integers(min_n, max_n))
    side = st.fractions(min_value=1, max_value=2, max_denominator=6)
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(side)
    return FiniteMetricSpace.from_matrix(rows)


@st.composite
def zero_sum_problems(draw, n: int, max_support: int | None = None):
    """Nonzero zero-sum problems supported inside ``range(n)``."""
    cap = min(n, max_support) if max_support else n
    k = draw(st.integers(2, cap))
    points = draw(st.permutations(list(range(n))))[:k]
    value = st.fractions(min_value=-8, max_value=8, max_denominator=4).filter(bool)
    values = [draw(value) for _ in range(k - 1)]
    values.append(-sum(values, ZERO))
    return TransportationProblem.from_values(dict(zip(points, values)))


@st.composite
def spaces_with_problems(draw, min_n: int = 3, max_n: int = 6, max_support=None):
    space = draw(metric_spaces(min_n, max_n))
    f = draw(zero_sum_problems(space.n, max_support))
    return space, f
