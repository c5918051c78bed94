"""Exact optimization kernels shared by the rest of the package.

Two primitives, both exact: a two-phase simplex solver using Bland's
anti-cycling rule, and a successive-shortest-path minimum-cost flow
solver with node potentials.  The simplex takes and returns
``fractions.Fraction`` but computes in ``int`` below its set-up.  LP
rows are sparse from end to end: a ``LinearProgram`` stores each row as
a dict of its nonzeros, and the simplex keeps each tableau row, the
cost row among them, as a dict of nonzero ``int`` entries plus an index
from each column to the rows that hold it, so a pivot touches only the
rows with an entry in the entering column.  The simplex scales its rows
to ``int`` by the lcm of the denominators and eliminates with
``row*p - f*prow`` and one gcd division per updated row; a row stands
for itself divided by its pivot entry, so the simplex takes exactly the
pivots of a dense ``Fraction`` tableau, and divides back to
``Fraction`` once, at the end.  Each LP variable is one recipe, an
offset plus signed nonnegative columns.  The flow kernel is
uncapacitated and integer from end to end: plain ``int`` supplies and
costs in, ``int`` flows and total out, every residual capacity an
``int``; its caller scales rational data and divides back.  Every tie
is broken by lowest index, so results are deterministic, and no step
ever rounds.
"""

from __future__ import annotations

import heapq
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .rationals import check_index, exact_rational

LE = "<="
EQ = "=="
GE = ">="
_RELATIONS = (LE, EQ, GE)

_ZERO = Fraction(0)
_ONE = Fraction(1)

Bound = Optional[Fraction]


class InfeasibleError(Exception):
    """The constraint system has no feasible point."""


class UnboundedError(Exception):
    """The objective is unbounded below on the feasible region."""


class LinearProgram:
    """A minimization LP: objective, rows ``(coeffs, relation, rhs)``, bounds.

    A row's ``coeffs`` is a mapping ``{column: value}`` or a dense
    sequence as long as the objective; either way it is stored as a dict
    of its nonzero entries.  Bounds are per-variable ``(lower, upper)``
    pairs with ``None`` meaning unbounded on that side; omitting
    ``bounds`` leaves every variable free.  The description is not
    mutated after construction.
    """

    __slots__ = ("objective", "constraints", "bounds")

    def __init__(
        self,
        objective: Iterable,
        constraints: Iterable[tuple],
        bounds: Sequence[tuple[Bound, Bound]] | None = None,
    ):
        self.objective: tuple[Fraction, ...] = tuple(
            exact_rational(c) for c in objective
        )
        nvars = len(self.objective)
        rows = []
        for coeffs, relation, rhs in constraints:
            if isinstance(coeffs, Mapping):
                entries = [
                    (check_index(j, nvars, "constraint column"), exact_rational(a))
                    for j, a in coeffs.items()
                ]
            else:
                entries = list(enumerate(map(exact_rational, coeffs)))
                if len(entries) != nvars:
                    raise ValueError(
                        "constraint row length differs from objective length"
                    )
            if relation not in _RELATIONS:
                raise ValueError(f"unknown relation {relation!r}")
            row = {j: a for j, a in entries if a}
            rows.append((row, relation, exact_rational(rhs)))
        self.constraints: tuple = tuple(rows)
        if bounds is None:
            bounds = [(None, None)] * nvars
        if len(bounds) != nvars:
            raise ValueError("bounds length differs from objective length")
        self.bounds: tuple = tuple(
            (
                None if lo is None else exact_rational(lo),
                None if hi is None else exact_rational(hi),
            )
            for lo, hi in bounds
        )


# A tableau row is a dict of its nonzero ``int`` entries with the
# right-hand side under the key ``_RHS``; the cost row is the last one.
_RHS = -1


def _integer_row(entries: dict[int, Fraction]) -> dict[int, int]:
    """The nonzero ``entries`` (column -> value) times the lcm of their
    denominators, in lowest terms."""
    scale = math.lcm(*(v.denominator for v in entries.values()))
    return _lowest_terms(
        {j: v.numerator * (scale // v.denominator) for j, v in entries.items() if v}
    )


def _lowest_terms(row: dict[int, int]) -> dict[int, int]:
    """``row`` divided by the positive gcd of its entries."""
    g = math.gcd(*row.values())
    return {j: a // g for j, a in row.items()} if g > 1 else row


def _eliminate(
    row: dict[int, int],
    f: int,
    p: int,
    pivot_terms: list[tuple[int, int]],
    index: list[set[int]],
    i: int,
) -> dict[int, int]:
    """``row*p - f*prow`` in lowest terms: clears the pivot column of ``row``.

    ``pivot_terms`` lists the nonzero ``(column, prow[column])`` of the
    pivot row, ``p = prow[c]`` is its pivot and ``f = row[c]``.  For
    ``p > 0`` the result is a positive multiple of the rational update
    ``row - (f/p)*prow``, so every sign the caller reads is kept.  ``f``
    and ``p`` are first divided by their gcd, which changes the result
    only by a factor that the final division removes anyway.

    ``row`` is tableau row ``i``, a dict of its nonzeros.  An entry that
    fills in adds ``i`` to its column's set in ``index``, and one that
    cancels is dropped and removes ``i`` from that set.  When ``p``
    reduces to 1, ``row`` itself is updated, so the caller keeps only
    the result.
    """
    g = math.gcd(f, p)
    if g > 1:
        f //= g
        p //= g
    new = row if p == 1 else {j: a * p for j, a in row.items()}
    get = new.get
    for j, t in pivot_terms:
        a = get(j)
        if a is None:
            new[j] = -f * t
            index[j].add(i)
        else:
            a -= f * t
            if a:
                new[j] = a
            else:
                del new[j]
                index[j].discard(i)
    return _lowest_terms(new)


def simplex_solve(lp: LinearProgram) -> tuple[Fraction, list[Fraction]]:
    """Exact optimum of ``lp`` together with one optimal assignment.

    Two-phase primal simplex on a standard-form rewrite.  Entering and
    leaving variables follow Bland's rule (lowest eligible index), which
    rules out cycling and makes the run deterministic.

    The tableau is held as sparse rows of ``int``: each row is a dict of
    its nonzero entries, and an index from each column to the rows that
    hold it is kept up to date as entries fill in and cancel.  A pivot
    visits only the rows in the entering column's set, and the ratio
    test only those with a positive entry there.  The cost row is the
    last tableau row, so a pivot updates it with the others, and Bland's
    rule takes the lowest column among its negative entries.  Each
    standard-form row is scaled by the lcm of its denominators, and a
    row stands for itself divided by its entry in its basic column,
    which is kept positive.  A pivot replaces every other row by
    ``row*p - f*prow`` divided by the gcd of its entries, the ratio test
    compares ``rhs / entry`` by cross-multiplication, and the cost row
    is scaled by positive factors only.  Every decision therefore reads
    the same canonical tableau as a dense ``Fraction`` tableau would, so
    the pivots, ``x`` and the value are the ones that tableau gives; the
    basic values are divided out once, at the end.

    Raises ``InfeasibleError`` / ``UnboundedError`` accordingly.
    """
    # Rewrite each variable onto one or two nonnegative columns.  Its
    # recipe (offset, ((column, sign), ...)) reads x = offset + sum of
    # sign * y_column: x = lo + y, x = hi - y, or a free x = y+ - y-.
    recipes: list[tuple[Fraction, tuple[tuple[int, int], ...]]] = []
    ncols = 0
    box_rows: list[tuple[int, Fraction]] = []  # y_col <= width for doubly bounded
    for lo, hi in lp.bounds:
        if lo is not None:
            recipe = (lo, ((ncols, 1),))
            if hi is not None:
                box_rows.append((ncols, hi - lo))
        elif hi is not None:
            recipe = (hi, ((ncols, -1),))
        else:
            recipe = (_ZERO, ((ncols, 1), (ncols + 1, -1)))
        recipes.append(recipe)
        ncols += len(recipe[1])

    # Standard-form rows are sparse: column -> nonzero coefficient.
    def expand(terms: Iterable) -> tuple[dict[int, Fraction], Fraction]:
        row: dict[int, Fraction] = {}
        shift = _ZERO
        for v, a in terms:
            if a:
                offset, columns = recipes[v]
                if offset:
                    shift += a * offset
                for col, sign in columns:
                    row[col] = a if sign > 0 else -a
        return row, shift

    rows: list[tuple[dict[int, Fraction], str, Fraction]] = []
    for coeffs, relation, rhs in lp.constraints:
        row, shift = expand(coeffs.items())
        b = rhs - shift
        if b < 0:
            row = {j: -a for j, a in row.items()}
            b = -b
            relation = {LE: GE, GE: LE, EQ: EQ}[relation]
        rows.append((row, relation, b))
    for col, width in box_rows:
        if width < 0:
            raise InfeasibleError("contradictory variable bounds")
        rows.append(({col: _ONE}, LE, width))

    # Slack columns follow the structural ones in row order, and the
    # artificial columns are exactly those from ``structural`` on.  A
    # ``<=`` row starts with its slack basic, any other with its artificial.
    m = len(rows)
    structural = ncols + sum(relation != EQ for _, relation, _ in rows)
    slack, width = ncols, structural
    tableau: list[dict[int, int]] = []
    basis: list[int] = []
    for row, relation, b in rows:
        row[_RHS] = b
        if relation != EQ:
            row[slack] = _ONE if relation == LE else -_ONE
            slack += 1
        if relation == LE:
            basis.append(slack - 1)
        else:
            row[width] = _ONE
            basis.append(width)
            width += 1
        tableau.append(_integer_row(row))

    # rows_of[j]: the rows with a nonzero in column j; the right-hand
    # side's set is the last one, so rows_of[_RHS] finds it.
    def column_index() -> list[set[int]]:
        index: list[set[int]] = [set() for _ in range(width + 1)]
        for i, row in enumerate(tableau):
            for j in row:
                index[j].add(i)
        return index

    rows_of = column_index()

    def add_cost_row(raw: dict[int, Fraction]) -> None:
        i = len(tableau)
        cost = _integer_row(raw)
        tableau.append(cost)
        for j in cost:
            rows_of[j].add(i)
        for r, bj in enumerate(basis):
            f = cost.get(bj)
            if f:
                # a basic entry is positive, so the row is its own pivot row
                row = tableau[r]
                cost = tableau[i] = _eliminate(
                    cost, f, row[bj], list(row.items()), rows_of, i
                )

    def pivot(r: int, jc: int) -> None:
        prow = tableau[r]
        if prow[jc] < 0:
            prow = tableau[r] = {j: -a for j, a in prow.items()}
        p = prow[jc]
        terms = list(prow.items())
        for i in rows_of[jc] - {r}:
            row = tableau[i]
            tableau[i] = _eliminate(row, row[jc], p, terms, rows_of, i)
        basis[r] = jc

    def run() -> None:
        while True:
            # the lowest column with a negative cost; the range leaves out
            # the right-hand side's key
            get = tableau[-1].get
            for enter in range(width):
                if get(enter, 0) < 0:
                    break
            else:
                return
            # ratios row[_RHS] / row[enter], compared by cross-multiplication;
            # the cost row's entry is negative, so it is never a candidate,
            # and the basic columns are distinct, so the visiting order of
            # the rows does not change the choice
            best_row = -1
            best_num = best_den = 0
            for i in rows_of[enter]:
                row = tableau[i]
                a = row[enter]
                if a > 0:
                    num = row.get(_RHS, 0)
                    lhs = num * best_den
                    rhs = best_num * a
                    if (
                        best_row < 0
                        or lhs < rhs
                        or (lhs == rhs and basis[i] < basis[best_row])
                    ):
                        best_num, best_den = num, a
                        best_row = i
            if best_row < 0:
                raise UnboundedError("objective unbounded below")
            pivot(best_row, enter)

    if width > structural:
        add_cost_row({col: _ONE for col in range(structural, width)})
        run()
        if tableau[-1].get(_RHS, 0) != 0:
            raise InfeasibleError("no feasible point")
        redundant: list[int] = []
        for i in range(m):
            if basis[i] >= structural:
                jc = min((j for j in tableau[i] if 0 <= j < structural), default=None)
                if jc is None:
                    redundant.append(i)
                else:
                    pivot(i, jc)
        # the phase-1 cost row goes before the deletions shift the indices
        tableau.pop()
        for i in reversed(redundant):
            del tableau[i]
            del basis[i]
        # the right-hand side's key is negative, so it is kept
        tableau = [
            {j: a for j, a in row.items() if j < structural} for row in tableau
        ]
        width = structural
        rows_of = column_index()

    std_cost, _ = expand(enumerate(lp.objective))
    add_cost_row(std_cost)
    run()

    y = [_ZERO] * width
    for row, bj in zip(tableau, basis):
        y[bj] = Fraction(row.get(_RHS, 0), row[bj])
    x = [
        offset + sum(y[col] if sign > 0 else -y[col] for col, sign in columns)
        for offset, columns in recipes
    ]
    value = sum((c * v for c, v in zip(lp.objective, x)), _ZERO)
    return value, x


def min_cost_flow(
    supplies: Sequence[int], arcs: Sequence[tuple[int, int, int]]
) -> tuple[int, list[int]]:
    """Route all supplies at minimum cost; returns ``(total cost, arc flows)``.

    An integer, uncapacitated instance: ``supplies`` are plain ``int``s
    that sum to zero, and each arc is a ``(tail, head, cost)`` triple of
    plain ``int``s with a nonnegative cost.  Anything else, ``bool``,
    ``float`` and ``Fraction`` included, raises ``ValueError``.  The
    flows and the total ``sum(flow * cost)`` are ``int``s; callers with
    rational data scale it to ``int`` first, which keeps every
    comparison, and divide back once.

    Successive shortest augmenting paths from a super-source to a
    super-sink.  Node potentials keep every residual reduced cost
    nonnegative, so Dijkstra remains valid after each augmentation.
    Raises ``InfeasibleError`` when the supplies cannot be routed.

    Every arc's residual capacity starts at the total positive supply
    ``required``.  That never binds: each augmentation sends its
    bottleneck along a simple path, so no arc carries more than has been
    delivered, which stays below ``required`` until the loop ends.
    """
    n = len(supplies)
    for s in supplies:
        if type(s) is not int:
            raise ValueError(f"supplies must be plain ints, got {s!r}")
    if sum(supplies) != 0:
        raise ValueError("supplies must sum to zero")
    required = sum(s for s in supplies if s > 0)
    source, sink = n, n + 1
    nn = n + 2

    to: list[int] = []
    rcost: list[int] = []
    remain: list[int] = []
    adj: list[list[int]] = [[] for _ in range(nn)]

    def add_arc(u: int, v: int, cost: int, cap: int) -> None:
        adj[u].append(len(to))
        to.append(v)
        rcost.append(cost)
        remain.append(cap)
        adj[v].append(len(to))
        to.append(u)
        rcost.append(-cost)
        remain.append(0)

    for tail, head, cost in arcs:
        check_index(tail, None, "arc endpoint")
        check_index(head, None, "arc endpoint")
        if not (tail < n and head < n):
            raise ValueError(f"arc ({tail}, {head}) out of node range")
        if tail == head:
            raise ValueError(f"arc ({tail}, {head}) is a self-loop")
        if type(cost) is not int:
            raise ValueError(f"arc costs must be plain ints, got {cost!r}")
        if cost < 0:
            raise ValueError("arc costs must be nonnegative")
        add_arc(tail, head, cost, required)
    m = len(to) // 2
    for v, s in enumerate(supplies):
        if s > 0:
            add_arc(source, v, 0, s)
        elif s < 0:
            add_arc(v, sink, 0, -s)

    potential = [0] * nn
    delivered = 0
    while delivered < required:
        dist: list[int | None] = [None] * nn
        parent = [-1] * nn
        dist[source] = 0
        heap: list[tuple[int, int]] = [(0, source)]
        while heap:
            d_u, u = heapq.heappop(heap)
            if d_u > dist[u]:
                continue
            for k in adj[u]:
                if not remain[k]:
                    continue
                v = to[k]
                nd = d_u + rcost[k] + potential[u] - potential[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    parent[v] = k
                    heapq.heappush(heap, (nd, v))
        if dist[sink] is None:
            raise InfeasibleError("supplies cannot be routed")
        # the path's first arc leaves the source with at most the
        # undelivered supply left, so that is where the minimum starts
        bottleneck = required - delivered
        v = sink
        while v != source:
            k = parent[v]
            if remain[k] < bottleneck:
                bottleneck = remain[k]
            v = to[k ^ 1]
        v = sink
        while v != source:
            k = parent[v]
            remain[k] -= bottleneck
            remain[k ^ 1] += bottleneck
            v = to[k ^ 1]
        for v in range(nn):
            if dist[v] is not None:
                potential[v] += dist[v]
        delivered += bottleneck

    flows = remain[1 : 2 * m : 2]
    return sum(map(operator.mul, flows, rcost[0 : 2 * m : 2])), flows
