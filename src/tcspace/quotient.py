"""The edge space of the complete graph, its cycle space, and the quotient norm.

Edge vectors live on the edges ``(i, j)``, ``i < j``, of the complete
graph on ``n`` points; the reference orientation points every edge from
the lower to the higher index.  The cycle space is spanned by the
fundamental triangles through point 0.  The quotient norm of an edge
vector is the cheapest distance-weighted l1 norm over its coset modulo
cycles, computed by an exact LP; by design it matches the
transportation cost of the vector's boundary, and the test-suite leans
on that agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .metric import FiniteMetricSpace
from .rationals import (
    ParseError,
    SparseVector,
    check_index,
    format_rational,
    indexed_lines,
)
from .solvers import GE, LinearProgram, simplex_solve
from .transport import TransportPlan, TransportationProblem

_ZERO = Fraction(0)
_ONE = Fraction(1)

Edge = tuple[int, int]

# n(n - 1) rows over (n - 1)^2 variables
QUOTIENT_POINT_LIMIT = 16


def _check_point_count(n) -> None:
    if type(n) is not int or n < 1:
        raise ValueError(f"ambient point count must be an int >= 1, got {n!r}")


@dataclass(frozen=True)
class EdgeVector(SparseVector):
    """Exact rational values on the edges of the complete graph on ``n`` points.

    Keys are ``(i, j)`` with ``int`` indices (``bool`` is refused) and
    ``0 <= i < j < n``.  Entries are merged,
    zero values dropped, and the support sorted on construction.
    """

    n: int
    entries: tuple[tuple[Edge, Fraction], ...] = ()

    def __post_init__(self):
        _check_point_count(self.n)
        super().__post_init__()

    def check_key(self, edge: Edge) -> None:
        i, j = edge
        ints = type(i) is int and type(j) is int
        if not (ints and 0 <= i < j < self.n):
            raise ValueError(f"bad edge ({i!r}, {j!r}) for n={self.n}")

    def value(self, i: int, j: int) -> Fraction:
        return super().value((i, j))


def all_edges(n: int) -> list[Edge]:
    """Every edge of the complete graph on ``n`` points, lexicographic."""
    _check_point_count(n)
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def cycle_basis(n: int) -> tuple[EdgeVector, ...]:
    """Fundamental triangles of the star at point 0.

    For 1 <= i < j <= n-1 the cycle 0 -> i -> j -> 0 has +1 on (0, i),
    +1 on (i, j) and -1 on (0, j).  Together these (n-1)(n-2)/2 vectors
    are a basis of the kernel of the boundary map.
    """
    _check_point_count(n)
    return tuple(
        EdgeVector.from_values(n, {(0, i): 1, (i, j): 1, (0, j): -1})
        for i, j in all_edges(n)
        if i > 0
    )


def boundary(f: EdgeVector) -> TransportationProblem:
    """Net in-flow at every point: heads (higher index) count positive."""
    return TransportationProblem.from_values(
        e for (i, j), val in f.entries for e in ((j, val), (i, -val))
    )


def lift_plan(plan: TransportPlan, n: int) -> EdgeVector:
    """Edge vector whose boundary is the plan's problem.

    A move ``(x, y, a)`` contributes ``-a`` on edge ``(min, max)`` when
    x < y and ``+a`` when x > y.
    """
    if type(n) is not int:  # an int n keeps the endpoint-range messages
        _check_point_count(n)
    entries = []
    for x, y, a in plan.moves:
        check_index(x, n, "plan endpoint")
        check_index(y, n, "plan endpoint")
        entries.append(((x, y), -a) if x < y else ((y, x), a))
    return EdgeVector.from_values(n, entries)


def l1d_norm(space: FiniteMetricSpace, f: EdgeVector) -> Fraction:
    """Distance-weighted l1 norm: sum of |f_e| * d(e)."""
    if f.n != space.n:
        raise ValueError("edge vector and space have different point counts")
    return sum((abs(v) * space.dist[i][j] for (i, j), v in f.entries), _ZERO)


Orientation = Mapping[Edge, int]


def _reorient(f: EdgeVector, orientation: Orientation | None) -> EdgeVector:
    if orientation is None:
        return f
    for e, s in orientation.items():
        f.check_key(e)
        if type(s) is not int or s not in (1, -1):
            raise ValueError(f"orientation signs must be int +1 or -1, got {s!r}")
    return EdgeVector(
        f.n, tuple((e, v * orientation.get(e, 1)) for e, v in f.entries)
    )


def quotient_norm(
    space: FiniteMetricSpace,
    f: EdgeVector,
    orientation: Orientation | None = None,
) -> tuple[Fraction, EdgeVector]:
    """Cheapest distance-weighted l1 norm over the coset of ``f`` mod cycles.

    Solved as an exact LP: free coefficients on the basis cycles plus
    one auxiliary variable per edge dominating the absolute value there.
    Returns the optimal value and one optimal coset representative.

    Passing an ``orientation`` (a +-1 sign per edge) re-expresses both
    the vector and the cycle basis under that orientation before
    solving; the value must not depend on it.  Capped at
    ``QUOTIENT_POINT_LIMIT`` points.
    """
    if f.n != space.n:
        raise ValueError("edge vector and space have different point counts")
    n = space.n
    if n > QUOTIENT_POINT_LIMIT:
        raise ValueError(
            f"space too large for the quotient LP (limit {QUOTIENT_POINT_LIMIT})"
        )
    g = _reorient(f, orientation)
    if n < 2:
        return _ZERO, g
    basis = cycle_basis(n)
    if orientation is not None:
        basis = tuple(_reorient(chi, orientation) for chi in basis)
    edges = all_edges(n)
    ne = len(edges)
    nc = len(basis)
    # cycles_on[idx]: (column, coefficient) of every basis cycle through
    # edge idx; each cycle is a triangle, so it lands in three lists
    edge_index = {e: idx for idx, e in enumerate(edges)}
    cycles_on: list[list[tuple[int, Fraction]]] = [[] for _ in edges]
    for k, chi in enumerate(basis):
        for e, ce in chi.entries:
            cycles_on[edge_index[e]].append((ne + k, ce))
    objective = [space.dist[i][j] for i, j in edges] + [_ZERO] * nc
    values = dict(g.entries)
    constraints = []
    for idx, e in enumerate(edges):
        fe = values.get(e, _ZERO)
        row_minus = {idx: _ONE}
        row_plus = {idx: _ONE}
        for col, ce in cycles_on[idx]:
            row_minus[col] = -ce
            row_plus[col] = ce
        constraints.append((row_minus, GE, fe))
        constraints.append((row_plus, GE, -fe))
    bounds = [(Fraction(0), None)] * ne + [(None, None)] * nc
    value, x = simplex_solve(LinearProgram(objective, constraints, bounds))
    cycle_terms = tuple(
        (e, x[ne + k] * c)
        for k, chi in enumerate(basis)
        if x[ne + k]
        for e, c in chi.entries
    )
    return value, EdgeVector(n, g.entries + cycle_terms)


def cut_decomposition(f: EdgeVector) -> tuple[EdgeVector, EdgeVector]:
    """Split ``f = z + b`` with ``z`` in the cycle space, ``b`` a gradient field.

    ``b`` is the orthogonal projection of ``f`` onto the span of the
    point-function gradients, taken in the unweighted Euclidean inner
    product on edge space (the split does not depend on any metric).
    It is the gradient ``b_ij = h_j - h_i`` of any solution ``h`` of the
    normal equations ``L h = beta``, where ``beta = boundary(f)`` and
    ``L = nI - J`` is the Laplacian of the complete graph.  The entries
    of ``beta`` sum to zero, so ``J beta = 0`` and ``h = beta / n`` is
    such a solution: ``b_ij = (beta_j - beta_i) / n``.
    """
    n = f.n
    beta = [_ZERO] * n
    for v, a in boundary(f).entries:
        beta[v] = a
    b = EdgeVector.from_values(
        n, {(i, j): (beta[j] - beta[i]) / n for i, j in all_edges(n)}
    )
    return f - b, b


def parse_edge_vector(text: str, n: int) -> EdgeVector:
    """Read the ``i j value`` line format; repeated edges are summed."""
    if type(n) is not int:  # an int n keeps the index-range messages
        _check_point_count(n)
    entries = []
    for lineno, (i, j), val in indexed_lines(text, 2, n):
        if not i < j:
            raise ParseError(f"line {lineno}: edge must satisfy i < j")
        entries.append(((i, j), val))
    return EdgeVector.from_values(n, entries)


def format_edge_vector(f: EdgeVector) -> str:
    """Write the format read by :func:`parse_edge_vector`."""
    return "".join(f"{i} {j} {format_rational(v)}\n" for (i, j), v in f.entries)
