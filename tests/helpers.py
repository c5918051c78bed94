"""Shared test machinery: line spaces, alternative plans, exact rank,
hypothesis strategies, a generator of provably minimal pair sequences,
the subset-DP matcher and the one-DP-per-prefix nested check kept as
oracles for the blossom kernel, the ``Fraction``-tableau simplex kept
as an oracle for the pivot path,
an exact least-squares solver kept as an oracle for the cut/cycle
split, and the ``Fraction`` axiom loop kept as an oracle for metric
validation."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from hypothesis import strategies as st

from tcspace import (
    FiniteMetricSpace,
    Matching,
    NestedCheckResult,
    NotAMetricError,
    PairSequence,
    TransportPlan,
    TransportationProblem,
    prescribed_prefix_weight,
)
from tcspace.solvers import (
    EQ,
    GE,
    LE,
    InfeasibleError,
    LinearProgram,
    UnboundedError,
)

ZERO = Fraction(0)
_ZERO = ZERO
_ONE = Fraction(1)


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


def matching_dp(m, order: list[int]):
    """Rows of ``m`` on ``order``, the lowest-first subset DP ``best`` and its memo.

    ``best(mask)`` is the minimum weight of a perfect matching of the
    positions in ``mask``: the lowest position is paired with each
    other one in turn.
    """
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


def reference_matching(space: FiniteMetricSpace, vertices) -> Matching:
    """The oracle for ``min_weight_perfect_matching``: the subset DP.

    The DP runs on ``int_dist`` over the sorted vertices.  The edges are
    read back lowest vertex first, each paired with its smallest optimal
    partner, which gives the lexicographically smallest optimal list.
    """
    vs = sorted(vertices)
    rows, best, memo = matching_dp(space.int_dist, vs)
    mask = (1 << len(vs)) - 1
    total = best(mask)
    edges: list[tuple[int, int]] = []
    while mask:
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        j = next(
            j
            for j in range(low + 1, len(vs))
            if rest >> j & 1 and rows[low][j] + memo[rest ^ (1 << j)] == memo[mask]
        )
        edges.append((vs[low], vs[j]))
        mask = rest ^ (1 << j)
    return Matching(tuple(edges), Fraction(total, space.scale))


def reference_nested_check(
    space: FiniteMetricSpace, pairs: PairSequence
) -> NestedCheckResult:
    """The oracle for ``nested_matching_check``: one fresh DP per prefix.

    Prefixes are scanned in order, each with its own
    ``reference_matching`` call on its vertices; the first strictly
    lighter optimum fails the check and is the witness.
    """
    for k in range(1, len(pairs.pairs) + 1):
        span = [p for pair in pairs.pairs[:k] for p in pair]
        prescribed = prescribed_prefix_weight(space, pairs, k)
        optimum = reference_matching(space, span)
        if optimum.weight < prescribed:
            return NestedCheckResult(False, k, prescribed, optimum)
    return NestedCheckResult(True, len(pairs.pairs))


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


def dense_row(coeffs, nvars: int) -> list[Fraction]:
    """A stored ``LinearProgram`` row (column -> nonzero value) as a
    dense list of ``nvars`` entries."""
    return [coeffs.get(j, ZERO) for j in range(nvars)]


def reference_simplex(lp: LinearProgram) -> tuple[Fraction, list[Fraction]]:
    """Exact optimum of ``lp`` together with one optimal assignment.

    The oracle for ``simplex_solve``: the same two-phase simplex on a
    dense ``Fraction`` tableau, where every row is kept divided by its
    pivot.  ``simplex_solve`` must take the same pivots and return the
    same ``(value, x)``, or raise the same exception.

    Two-phase primal simplex on a standard-form rewrite.  Entering and
    leaving variables follow Bland's rule (lowest eligible index), which
    rules out cycling and makes the run deterministic.

    Raises ``InfeasibleError`` / ``UnboundedError`` accordingly.
    """
    nvars = len(lp.objective)

    # Rewrite each variable onto one or two nonnegative columns.
    # recipe: ("nonneg", col) -> x = y
    #         ("split", cp, cm) -> x = y+ - y-
    recipes: list[tuple] = []
    ncols = 0
    for v in range(nvars):
        if v in lp.free:
            recipes.append(("split", ncols, ncols + 1))
            ncols += 2
        else:
            recipes.append(("nonneg", ncols))
            ncols += 1

    def expand(coeffs: Sequence[Fraction]) -> list[Fraction]:
        row = [_ZERO] * ncols
        for a, recipe in zip(coeffs, recipes):
            if not a:
                continue
            row[recipe[1]] = a
            if recipe[0] == "split":
                row[recipe[2]] = -a
        return row

    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for coeffs, relation, b in lp.constraints:
        row = expand(dense_row(coeffs, nvars))
        if b < 0:
            row = [-a for a in row]
            b = -b
            relation = {LE: GE, GE: LE, EQ: EQ}[relation]
        rows.append((row, relation, b))

    m = len(rows)
    slack_of: dict[int, int] = {}
    for i, (_, relation, _) in enumerate(rows):
        if relation != EQ:
            slack_of[i] = ncols + len(slack_of)
    n_slack = len(slack_of)
    art_of: dict[int, int] = {}
    for i, (_, relation, _) in enumerate(rows):
        if relation != LE:
            art_of[i] = ncols + n_slack + len(art_of)
    n_art = len(art_of)
    width = ncols + n_slack + n_art

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    for i, (row, relation, b) in enumerate(rows):
        full = row + [_ZERO] * (n_slack + n_art) + [b]
        if relation == LE:
            full[slack_of[i]] = _ONE
            basis.append(slack_of[i])
        elif relation == GE:
            full[slack_of[i]] = -_ONE
            full[art_of[i]] = _ONE
            basis.append(art_of[i])
        else:
            full[art_of[i]] = _ONE
            basis.append(art_of[i])
        tableau.append(full)

    def reduce_cost_row(raw: list[Fraction]) -> list[Fraction]:
        cost = list(raw) + [_ZERO]
        for i, bj in enumerate(basis):
            coef = cost[bj]
            if coef:
                trow = tableau[i]
                cost = [a - coef * t if t else a for a, t in zip(cost, trow)]
        return cost

    def pivot(r: int, jc: int) -> list[Fraction]:
        prow = tableau[r]
        piv = prow[jc]
        if piv != 1:
            prow = [v / piv for v in prow]
            tableau[r] = prow
        for i, row in enumerate(tableau):
            if i != r:
                f = row[jc]
                if f:
                    tableau[i] = [a - f * t if t else a for a, t in zip(row, prow)]
        basis[r] = jc
        return prow

    def run(cost: list[Fraction], allowed: int) -> list[Fraction]:
        while True:
            enter = -1
            for j in range(allowed):
                if cost[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return cost
            best_row = -1
            best_ratio = None
            for i, row in enumerate(tableau):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[best_row])
                    ):
                        best_ratio = ratio
                        best_row = i
            if best_row < 0:
                raise UnboundedError("objective unbounded below")
            prow = pivot(best_row, enter)
            f = cost[enter]
            if f:
                cost = [a - f * t if t else a for a, t in zip(cost, prow)]

    if n_art:
        raw = [_ZERO] * width
        for col in art_of.values():
            raw[col] = _ONE
        cost = reduce_cost_row(raw)
        cost = run(cost, width)
        if cost[-1] != 0:
            raise InfeasibleError("no feasible point")
        art_cols = set(art_of.values())
        structural = ncols + n_slack
        redundant: list[int] = []
        for i in range(m):
            if basis[i] in art_cols:
                jc = next((j for j in range(structural) if tableau[i][j]), None)
                if jc is None:
                    redundant.append(i)
                else:
                    pivot(i, jc)
        for i in reversed(redundant):
            del tableau[i]
            del basis[i]
        tableau = [row[:structural] + row[-1:] for row in tableau]
        width = structural

    std_cost = expand(lp.objective) + [_ZERO] * (width - ncols)
    cost = reduce_cost_row(std_cost)
    run(cost, width)

    y = [_ZERO] * width
    for i, bj in enumerate(basis):
        y[bj] = tableau[i][-1]
    x: list[Fraction] = []
    for recipe in recipes:
        if recipe[0] == "nonneg":
            x.append(y[recipe[1]])
        else:
            x.append(y[recipe[1]] - y[recipe[2]])
    value = sum((c * v for c, v in zip(lp.objective, x)), _ZERO)
    return value, x


def reference_least_squares(
    rows: Sequence[Sequence], target: Sequence
) -> list[Fraction]:
    """An exact minimizer of ``||A x - target||_2`` via the normal equations.

    The oracle for ``cut_decomposition``: plain ``Fraction`` Gauss-Jordan
    elimination, sharing no code with the package's kernels.  Rank
    deficiency is fine: free variables are pinned to zero, so some
    minimizer is always returned (the normal equations are consistent).
    """
    m = len(rows)
    if len(target) != m:
        raise ValueError("matrix and target dimensions do not match")
    k = len(rows[0]) if m else 0
    mat: list[list[Fraction]] = []
    for row in rows:
        if len(row) != k:
            raise ValueError("ragged matrix")
        mat.append([Fraction(a) for a in row])
    b = [Fraction(t) for t in target]

    # normal equations G x = g, reduced to RREF with exact pivots
    aug: list[list[Fraction]] = []
    for i in range(k):
        row = [sum((mr[i] * mr[j] for mr in mat), _ZERO) for j in range(k)]
        row.append(sum((mr[i] * t for mr, t in zip(mat, b)), _ZERO))
        aug.append(row)

    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, k) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        prow = aug[r]
        piv = prow[c]
        if piv != 1:
            prow = [v / piv for v in prow]
            aug[r] = prow
        for i in range(k):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * t if t else a for a, t in zip(aug[i], prow)]
        pivots.append((r, c))
        r += 1
        if r == k:
            break

    x = [_ZERO] * k
    for rr, cc in pivots:
        x[cc] = aug[rr][-1]
    return x


def reference_validate(d: Sequence[Sequence[Fraction]]) -> None:
    """Raise the first ``NotAMetricError`` of the square matrix ``d``.

    The oracle for ``FiniteMetricSpace`` validation: the plain
    ``Fraction`` loops over diagonal, symmetry and positivity, then every
    triangle, in the order and with the witnesses the package reports.
    """
    n = len(d)
    for u in range(n):
        if d[u][u] != 0:
            raise NotAMetricError("zero diagonal", (u,), f"d={d[u][u]}")
    for u in range(n):
        for v in range(u + 1, n):
            if d[u][v] != d[v][u]:
                raise NotAMetricError("symmetry", (u, v))
            if d[u][v] <= 0:
                raise NotAMetricError("positivity", (u, v), f"d={d[u][v]}")
    for u in range(n):
        du = d[u]
        for w in range(u + 1, n):
            duw = du[w]
            for v in range(n):
                if v != u and v != w and duw > du[v] + d[v][w]:
                    raise NotAMetricError(
                        "triangle",
                        (u, v, w),
                        f"{duw} > {du[v]} + {d[v][w]}",
                    )
