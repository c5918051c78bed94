"""Minimum-weight perfect matchings and the nested-matching criterion.

The production matcher is an exact O(m^3) weighted blossom algorithm on
``int`` weights, perturbed so that weight ties resolve to the
lexicographically smallest edge list; a factorial enumeration of all
matchings is kept alongside it as an oracle.  The nested check asks,
prefix by prefix, whether a prescribed pairing of points is a
minimum-weight perfect matching of the subspace it spans; ties count as
passing, and each prefix is one unperturbed blossom run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .metric import FiniteMetricSpace
from .rationals import check_index, exact_rational

_ZERO = Fraction(0)

# vertex cap of the exact matcher; the public name is kept
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


def _blossom(w: list[list[int]]) -> tuple[list[int], int]:
    """Minimum-weight perfect matching ``(mate, total)`` of the complete
    graph on the symmetric m x m ``int`` matrix ``w``, m even.

    Edmonds' blossom algorithm in the dense O(m^3) form of Galil (1986),
    as a maximum-weight perfect matching of ``-w``.  Vertices are 1..m,
    blossoms take the ids above m, 0 means none.  Weights are doubled,
    so the duals ``lab`` stay ``int``.  ``S`` is -1 unlabelled, 0 outer,
    1 inner; ``g[x][y]`` is the tightest edge ``(u, v, 2 w)`` from x to
    y.  The start is greedy: each free vertex raises its dual until an
    edge is tight, and takes that edge when its other end is free.
    """
    m = len(w)
    size = 2 * m + 1
    verts = range(1, m + 1)
    g: list = [[None] * size for _ in range(m + 1)] + [None] * m
    for u in verts:
        g[u][1 : m + 1] = [(u, v, 2 * x) for v, x in enumerate(w[u - 1], 1)]
        g[u][u] = None
    low = min(min(row[:u] + row[u + 1 :]) for u, row in enumerate(w))
    lab = [0] + [-low] * m + [0] * m
    match = [0] * size
    for u in verts:
        if not match[u]:
            best, _, v = min((lab[u] + lab[v] + e[2], match[v] > 0, v)
                             for v, e in enumerate(g[u][1 : m + 1], 1) if e)
            lab[u] -= best
            if not match[v]:
                match[u], match[v] = v, u
    slack, pa, S = [0] * size, [0] * size, [-1] * size
    st = list(range(m + 1)) + [0] * m
    flower: list = [None] * size
    flower_from: list = [None] * size  # [b][u]: the child of b holding u
    queue: list[int] = []
    top = m

    def slack_of(e) -> int:
        return lab[e[0]] + lab[e[1]] + e[2]

    def set_slack(x: int) -> None:
        slack[x] = 0
        for u in verts:
            if st[u] != x and S[st[u]] == 0:
                if not slack[x] or slack_of(g[u][x]) < slack_of(g[slack[x]][x]):
                    slack[x] = u

    def push(x: int) -> None:
        if x <= m:
            return queue.append(x)
        for y in flower[x]:
            push(y)

    def set_st(x: int, b: int) -> None:
        st[x] = b
        for y in flower[x] if x > m else ():
            set_st(y, b)

    def even_position(b: int, xr: int) -> int:
        fl = flower[b]
        pr = fl.index(xr)
        if pr % 2:
            fl[1:] = fl[:0:-1]
            pr = len(fl) - pr
        return pr

    def set_match(u: int, v: int) -> None:
        e = g[u][v]
        match[u] = e[1]
        if u > m:
            xr = flower_from[u][e[0]]
            pr = even_position(u, xr)
            fl = flower[u]
            for i in range(pr):
                set_match(fl[i], fl[i ^ 1])
            set_match(xr, v)
            flower[u] = fl[pr:] + fl[:pr]

    def augment(u: int, v: int) -> None:
        while True:
            xnv = st[match[u]]
            set_match(u, v)
            if not xnv:
                return
            set_match(xnv, st[pa[xnv]])
            u, v = st[pa[xnv]], xnv

    def get_lca(u: int, v: int) -> int:
        seen = set()
        while u or v:
            if u:
                if u in seen:
                    return u
                seen.add(u)
                u = st[pa[st[match[u]]]]
            u, v = v, u
        return 0

    def add_blossom(u: int, lca: int, v: int) -> None:
        nonlocal top
        b = next(b for b in range(m + 1, size) if not st[b])
        top = max(top, b)
        lab[b] = S[b] = 0
        match[b] = match[lca]
        paths = []
        for x in (u, v):
            paths.append([])
            while x != lca:
                y = st[match[x]]
                paths[-1] += (x, y)
                push(y)
                x = st[pa[y]]
        fl = flower[b] = [lca] + paths[0][::-1] + paths[1]
        set_st(b, b)
        gb = g[b] = [None] * size
        fb = flower_from[b] = [0] * (m + 1)
        for xs in fl:
            for x, e in enumerate(g[xs][: top + 1]):
                if e and (gb[x] is None or slack_of(e) < slack_of(gb[x])):
                    gb[x], g[x][b] = e, g[x][xs]
            inner = flower_from[xs] if xs > m else [x == xs for x in range(m + 1)]
            fb[:] = [xs if i else f for f, i in zip(fb, inner)]
        set_slack(b)

    def expand_blossom(b: int) -> None:
        fl = flower[b]
        for xs in fl:
            set_st(xs, xs)
        xr = flower_from[b][g[b][pa[b]][0]]
        pr = even_position(b, xr)
        for i in range(0, pr, 2):
            xs, xns = fl[i], fl[i + 1]
            pa[xs] = g[xns][xs][0]
            S[xs], S[xns], slack[xs] = 1, 0, 0
            set_slack(xns)
            push(xns)
        S[xr], pa[xr] = 1, pa[b]
        for xs in fl[pr + 1 :]:
            S[xs] = -1
            set_slack(xs)
        st[b] = 0

    def on_found_edge(e) -> bool:
        u, v = st[e[0]], st[e[1]]
        if S[v] == -1:
            pa[v], S[v] = e[0], 1
            nu = st[match[v]]
            slack[v] = slack[nu] = S[nu] = 0
            push(nu)
        elif S[v] == 0:
            lca = get_lca(u, v)
            if not lca:
                augment(u, v)
                augment(v, u)
                return True
            add_blossom(u, lca, v)
        return False

    def phase() -> bool:
        """Grow an alternating forest up to one augmentation; False when perfect."""
        S[1 : top + 1] = [-1] * top
        slack[1 : top + 1] = [0] * top
        queue.clear()
        for x in range(1, top + 1):
            if st[x] == x and not match[x]:
                pa[x] = S[x] = 0
                push(x)
        if not queue:
            return False
        while True:
            while queue:
                u = queue.pop()
                if S[st[u]] == 1:
                    continue
                gu, lu, su = g[u], lab[u], st[u]
                for v in verts:
                    x = st[v]
                    if x == su:
                        continue
                    e = gu[v]
                    delta = lu + lab[v] + e[2]
                    if delta == 0:
                        if on_found_edge(e):
                            return True
                        su = st[u]
                    elif not slack[x] or slack_of(gu[x]) < slack_of(g[slack[x]][x]):
                        slack[x] = u
            live = [x for x in range(1, top + 1) if st[x] == x]
            d = min(
                [lab[x] // 2 for x in live if x > m and S[x] == 1]
                + [slack_of(g[slack[x]][x]) // (2 + S[x]) for x in live if slack[x] and S[x] < 1]
            )
            for u in verts:
                lab[u] += (-d, d, 0)[S[st[u]]]
            for b in live:
                if b > m:
                    lab[b] += (2 * d, -2 * d, 0)[S[b]]
            for x in live:
                s = slack[x]
                if st[x] == x and s and st[s] != x and slack_of(g[s][x]) == 0:
                    if on_found_edge(g[s][x]):
                        return True
            for b in live:
                if b > m and st[b] == b and S[b] == 1 and lab[b] == 0:
                    expand_blossom(b)

    while phase():
        pass
    mate = [match[u] - 1 for u in verts]
    return mate, sum(w[u][v] for u, v in enumerate(mate) if u < v)


def min_weight_perfect_matching(
    space: FiniteMetricSpace, vertices: Iterable[int]
) -> Matching:
    """Exact minimum-weight perfect matching of ``vertices`` (blossom).

    With the sorted vertices ranked 0..m-1, ``B = m^2`` and
    ``K = m B^m``, edge (i, j), i < j, weighs ``int_dist * K +
    j B^(m-1-i)``.  The rank terms total less than K, so the optimum has
    minimum weight: the total // K, over ``scale``.  Two minimum-weight
    matchings first differ at the lowest vertex whose partner differs,
    and its term outweighs all later ones, so the unique optimum is the
    lexicographically smallest minimum-weight edge list.  Capped at
    ``DP_VERTEX_LIMIT`` vertices.
    """
    vs = _checked_vertices(space, vertices, DP_VERTEX_LIMIT)
    m = len(vs)
    big = m * (m * m) ** m
    w = [[0] * m for _ in range(m)]
    for i, u in enumerate(vs):
        row, step = space.int_dist[u], (m * m) ** (m - 1 - i)
        for j in range(i + 1, m):
            w[i][j] = w[j][i] = row[vs[j]] * big + j * step
    mate, total = _blossom(w)
    edges = tuple((vs[i], vs[j]) for i, j in enumerate(mate) if i < j)
    return Matching(edges, Fraction(total // big, space.scale))


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

    Prefixes are scanned in order and equal weights pass.  One pair is
    the only matching of its two points, so prefix 1 always passes; each
    prefix k >= 2 runs the blossom kernel on the ``int_dist`` rows of its
    2k endpoints, so a passing check never calls
    ``min_weight_perfect_matching``.  A failure carries the smallest
    failing prefix and a strictly lighter matching of the same vertex
    set.
    """
    if not pairs.pairs:
        raise ValueError("need at least one pair")
    pairs.check_in(space)
    if 2 * len(pairs.pairs) > DP_VERTEX_LIMIT:
        raise ValueError(f"pair sequence too long (limit {DP_VERTEX_LIMIT // 2})")
    order = [p for pair in pairs.pairs for p in pair]
    rows = [[space.int_dist[a][b] for b in order] for a in order]
    prescribed = rows[0][1]
    for k in range(2, len(pairs.pairs) + 1):
        span = 2 * k
        prescribed += rows[span - 2][span - 1]
        if _blossom([row[:span] for row in rows[:span]])[1] < prescribed:
            witness = min_weight_perfect_matching(space, order[:span])
            weight = Fraction(prescribed, space.scale)
            return NestedCheckResult(False, k, weight, witness)
    return NestedCheckResult(True, len(pairs.pairs))
