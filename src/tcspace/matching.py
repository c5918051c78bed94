"""Minimum-weight perfect matchings and the nested-matching criterion.

The production matcher is a bitmask subset DP; a factorial enumeration
of all matchings is kept alongside it as an oracle.  The nested check
asks, prefix by prefix, whether a prescribed pairing of points is a
minimum-weight perfect matching of the subspace it spans; ties count as
passing; one DP memo over the endpoints in reverse pair order serves
every prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .metric import FiniteMetricSpace
from .rationals import check_index, exact_rational

_ZERO = Fraction(0)

DP_VERTEX_LIMIT = 20
BRUTE_FORCE_VERTEX_LIMIT = 10


@dataclass(frozen=True)
class PairSequence:
    """An ordered list of point pairs with all endpoints distinct."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple((x, y) for x, y in self.pairs)
        flat = [check_index(p, None, "pair endpoint") for pair in pairs for p in pair]
        if len(set(flat)) != len(flat):
            raise ValueError("pair endpoints must all be distinct")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def check_in(self, space: FiniteMetricSpace) -> None:
        """Refuse endpoints that are not points of ``space``."""
        for pair in self.pairs:
            for p in pair:
                check_index(p, space.n, "pair endpoint")


@dataclass(frozen=True)
class Matching:
    """Pairwise disjoint edges ``(u, v)`` with u < v, plus the total weight."""

    edges: tuple[tuple[int, int], ...]
    weight: Fraction

    def __post_init__(self):
        seen: set[int] = set()
        for u, v in self.edges:
            check_index(u, None, "matching endpoint")
            check_index(v, None, "matching endpoint")
            if u >= v:
                raise ValueError(f"edge ({u}, {v}) must be ordered u < v")
            if u in seen or v in seen:
                raise ValueError("matching edges must be pairwise disjoint")
            seen.add(u)
            seen.add(v)
        object.__setattr__(self, "weight", exact_rational(self.weight))


def _checked_vertices(
    space: FiniteMetricSpace, vertices: Iterable[int], limit: int
) -> list[int]:
    vs = [check_index(v, space.n, "vertex") for v in vertices]
    if not vs or len(vs) % 2:
        raise ValueError("vertex set must be nonempty and of even size")
    if len(set(vs)) != len(vs):
        raise ValueError("duplicate vertex in matching input")
    if len(vs) > limit:
        raise ValueError(f"vertex set too large (limit {limit})")
    return sorted(vs)


def _matching_dp(m, order: list[int]):
    """Rows of ``m`` on ``order``, the lowest-first subset DP ``best`` and its memo."""
    rows = [[m[a][b] for b in order] for a in order]
    memo: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        row = rows[low]
        best_w = None
        sub = rest
        while sub:
            j = (sub & -sub).bit_length() - 1
            sub ^= 1 << j
            child = rest ^ (1 << j)
            w = memo.get(child)
            if w is None:
                w = best(child)
            w += row[j]
            if best_w is None or w < best_w:
                best_w = w
        memo[mask] = best_w
        return best_w

    return rows, best, memo


def min_weight_perfect_matching(
    space: FiniteMetricSpace, vertices: Iterable[int]
) -> Matching:
    """Exact minimum-weight perfect matching of ``vertices`` (subset DP).

    The DP runs on the space's integer matrix ``int_dist`` and divides
    the total by ``scale`` once.  Weight ties are resolved to the
    lexicographically smallest edge list, so the result is
    deterministic.  Capped at ``DP_VERTEX_LIMIT`` vertices.
    """
    vs = _checked_vertices(space, vertices, DP_VERTEX_LIMIT)
    rows, best, memo = _matching_dp(space.int_dist, vs)
    mask = (1 << len(vs)) - 1
    total = best(mask)

    edges: list[tuple[int, int]] = []
    while mask:
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        row = rows[low]
        sub = rest
        while sub:
            j = (sub & -sub).bit_length() - 1
            sub ^= 1 << j
            if row[j] + memo[rest ^ (1 << j)] == memo[mask]:
                edges.append((vs[low], vs[j]))
                mask = rest ^ (1 << j)
                break
    return Matching(tuple(edges), Fraction(total, space.scale))


def matching_brute_force(
    space: FiniteMetricSpace, vertices: Iterable[int]
) -> Matching:
    """Oracle matcher: enumerate all (|S|-1)!! perfect matchings."""
    vs = _checked_vertices(space, vertices, BRUTE_FORCE_VERTEX_LIMIT)
    d = space.dist
    best_w: Fraction | None = None
    best_e: tuple[tuple[int, int], ...] = ()

    def rec(pool: tuple[int, ...], acc_w: Fraction, acc_e: list[tuple[int, int]]):
        nonlocal best_w, best_e
        if not pool:
            if best_w is None or acc_w < best_w:
                best_w = acc_w
                best_e = tuple(acc_e)
            return
        x = pool[0]
        for t in range(1, len(pool)):
            y = pool[t]
            acc_e.append((x, y))
            rec(pool[1:t] + pool[t + 1 :], acc_w + d[x][y], acc_e)
            acc_e.pop()

    rec(tuple(vs), _ZERO, [])
    return Matching(best_e, best_w)


@dataclass(frozen=True)
class NestedCheckResult:
    """Outcome of the prefix-by-prefix matching check.

    ``passed`` with ``depth`` = number of prefixes verified, or a failure
    at prefix ``depth`` with the prescribed weight and a strictly lighter
    witness matching.
    """

    passed: bool
    depth: int
    prescribed_weight: Fraction | None = None
    witness: Matching | None = None


def prescribed_prefix_weight(
    space: FiniteMetricSpace, pairs: PairSequence, upto: int
) -> Fraction:
    """Total weight of the first ``upto`` prescribed pairs."""
    pairs.check_in(space)
    check_index(upto, len(pairs) + 1, "prefix length")
    return sum((space.dist[x][y] for x, y in pairs.pairs[:upto]), _ZERO)


def nested_matching_check(
    space: FiniteMetricSpace, pairs: PairSequence
) -> NestedCheckResult:
    """Is every prefix of ``pairs`` a minimum-weight perfect matching?

    Prefixes are scanned in order; equality of weights is accepted.  The
    DP positions are the endpoints in reverse pair order, so prefix k is
    the top 2k and one memo serves every prefix.  On failure the result
    carries the smallest failing prefix together with a strictly lighter
    matching of the same vertex set.
    """
    if not pairs.pairs:
        raise ValueError("need at least one pair")
    pairs.check_in(space)
    if 2 * len(pairs.pairs) > DP_VERTEX_LIMIT:
        raise ValueError(f"pair sequence too long (limit {DP_VERTEX_LIMIT // 2})")
    order = [p for pair in reversed(pairs.pairs) for p in pair]
    rows, best, _ = _matching_dp(space.int_dist, order)
    prescribed = 0
    for k in range(1, len(pairs.pairs) + 1):
        low = len(order) - 2 * k
        prescribed += rows[low][low + 1]
        if best((1 << len(order)) - (1 << low)) < prescribed:
            witness = min_weight_perfect_matching(space, order[low:])
            weight = prescribed_prefix_weight(space, pairs, k)
            return NestedCheckResult(False, k, weight, witness)
    return NestedCheckResult(True, len(pairs.pairs))
