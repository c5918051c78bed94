"""Exact simplex and min-cost flow kernels, and the least-squares oracle."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcspace import (
    InfeasibleError,
    LinearProgram,
    ParseError,
    UnboundedError,
    format_rational,
    min_cost_flow,
    parse_rational,
    simplex_solve,
)
from tcspace import duality, quotient, solvers, transport
from tcspace.rationals import data_lines
from tcspace.sampling import random_metric_space, random_zero_sum_problem
from tcspace.solvers import EQ, GE, LE

from helpers import (
    dense_row,
    over_a_prime,
    reference_least_squares,
    reference_simplex,
)

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


class TestRationals:
    @pytest.mark.parametrize(
        "token,value",
        [("3", F(3)), ("-4/6", F(-2, 3)), ("+7/2", F(7, 2)), ("007", F(7)), ("0", F(0))],
    )
    def test_accepts(self, token, value):
        assert parse_rational(token) == value

    @pytest.mark.parametrize(
        "token", ["1.5", "", "1/0", "2 /3", "1e3", "/3", "--2", "0x1f", "1/-2", "nan"]
    )
    def test_rejects(self, token):
        with pytest.raises(ParseError):
            parse_rational(token)

    def test_format(self):
        assert format_rational(F(-2, 4)) == "-1/2"
        assert format_rational(F(6, 3)) == "2"
        assert format_rational(5) == "5"

    # ASCII, Arabic-Indic and fullwidth decimal digits: int() reads all three
    @given(
        st.sampled_from(("", "+", "-")),
        st.text("0123456789\u0660\u0661\u0667\uff10\uff13", min_size=1, max_size=8),
        st.none() | st.text("0123\u0660\u0662\uff10\uff19", min_size=1, max_size=8),
    )
    def test_agrees_with_fraction(self, sign, p, q):
        token = sign + p + ("" if q is None else "/" + q)
        try:
            expected = F(token)
        except ZeroDivisionError:
            with pytest.raises(ParseError, match="zero denominator in"):
                parse_rational(token)
        else:
            assert parse_rational(token) == expected
            assert type(parse_rational(token)) is F

    @given(st.fractions(max_denominator=10**6))
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_data_lines_strip_comments_and_blanks(self):
        text = "a b\n# whole line\n\n  c # tail\n"
        assert list(data_lines(text)) == [(1, "a b"), (4, "c")]


class TestSimplexFrozen:
    def test_two_inequalities(self):
        # min x + y  s.t.  x + 2y >= 4,  3x + y >= 6,  x, y >= 0
        lp = LinearProgram(
            [F(1), F(1)],
            [([F(1), F(2)], GE, F(4)), ([F(3), F(1)], GE, F(6))],
            [(F(0), None), (F(0), None)],
        )
        value, x = simplex_solve(lp)
        assert value == F(14, 5)
        assert x == [F(8, 5), F(6, 5)]

    def test_equality_with_free_variable(self):
        # min 2x - y  s.t.  x + y == 3,  x - y <= 1,  x >= 0, y free
        lp = LinearProgram(
            [F(2), F(-1)],
            [([F(1), F(1)], EQ, F(3)), ([F(1), F(-1)], LE, F(1))],
            [(F(0), None), (None, None)],
        )
        value, x = simplex_solve(lp)
        assert value == F(-3)
        assert x == [F(0), F(3)]

    def test_box_bounds(self):
        # min -x - 2y  s.t.  x + y <= 6,  x in [0, 5], y in [1, 3]
        lp = LinearProgram(
            [F(-1), F(-2)],
            [([F(1), F(1)], LE, F(6))],
            [(F(0), F(5)), (F(1), F(3))],
        )
        value, x = simplex_solve(lp)
        assert value == F(-9)
        assert x == [F(3), F(3)]

    def test_upper_bound_only(self):
        # min -x with x <= -2: pushed to the bound from below
        lp = LinearProgram([F(-1)], [], [(None, F(-2))])
        value, x = simplex_solve(lp)
        assert value == F(2)
        assert x == [F(-2)]

    def test_upper_bound_with_floor_row(self):
        lp = LinearProgram([F(1)], [([F(1)], GE, F(-10))], [(None, F(-2))])
        value, x = simplex_solve(lp)
        assert value == F(-10)
        assert x == [F(-10)]

    def test_redundant_equalities(self):
        lp = LinearProgram(
            [F(1), F(0)],
            [([F(1), F(1)], EQ, F(2)), ([F(2), F(2)], EQ, F(4))],
            [(F(0), None), (F(0), None)],
        )
        value, x = simplex_solve(lp)
        assert value == F(0)
        assert x == [F(0), F(2)]

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            simplex_solve(LinearProgram([F(-1)], [], [(F(0), None)]))

    def test_infeasible_row(self):
        lp = LinearProgram([F(1)], [([F(1)], LE, F(-1))], [(F(0), None)])
        with pytest.raises(InfeasibleError):
            simplex_solve(lp)

    def test_contradictory_bounds(self):
        lp = LinearProgram([F(1)], [], [(F(2), F(1))])
        with pytest.raises(InfeasibleError):
            simplex_solve(lp)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearProgram([F(1)], [([F(1), F(2)], LE, F(0))], [(F(0), None)])
        with pytest.raises(ValueError):
            LinearProgram([F(1)], [([F(1)], "<", F(0))], [(F(0), None)])

    def test_mapping_row_validation(self):
        for key, error in ((True, ValueError), (-1, IndexError), (2, IndexError)):
            with pytest.raises(error, match="constraint column"):
                LinearProgram([F(1), F(1)], [({key: F(1)}, LE, F(0))])
        for value in (0.5, True):
            with pytest.raises(ValueError, match=type(value).__name__):
                LinearProgram([F(1), F(1)], [({0: value}, LE, F(0))])


def _solve_square(rows, rhs):
    """Gaussian elimination; None when the system is singular."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


@st.composite
def box_lps(draw):
    """Bounded, feasible LPs: box bounds plus <= rows that keep 0 feasible."""
    nvars = draw(st.integers(2, 3))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    objective = [draw(coeff) for _ in range(nvars)]
    uppers = [F(draw(st.integers(1, 4))) for _ in range(nvars)]
    nrows = draw(st.integers(0, 3))
    constraints = []
    for _ in range(nrows):
        row = [draw(coeff) for _ in range(nvars)]
        rhs = F(draw(st.integers(0, 6)))
        constraints.append((row, LE, rhs))
    bounds = [(F(0), u) for u in uppers]
    return LinearProgram(objective, constraints, bounds)


class TestSimplexAgainstVertexEnumeration:
    @given(box_lps())
    def test_optimum_matches_best_vertex(self, lp):
        nvars = len(lp.objective)
        value, x = simplex_solve(lp)
        rows = [(dense_row(row, nvars), rhs) for row, _, rhs in lp.constraints]

        # returned point must be feasible and price out to the value
        for row, rhs in rows:
            assert sum(a * b for a, b in zip(row, x)) <= rhs
        for xi, (lo, hi) in zip(x, lp.bounds):
            assert lo <= xi <= hi
        assert sum(a * b for a, b in zip(lp.objective, x)) == value

        # enumerate all basic points: nvars active constraints at a time
        equations = list(rows)
        for i in range(nvars):
            unit = [F(0)] * nvars
            unit[i] = F(1)
            equations.append((list(unit), lp.bounds[i][0]))
            equations.append((list(unit), lp.bounds[i][1]))
        best = None
        for combo in itertools.combinations(equations, nvars):
            point = _solve_square([r for r, _ in combo], [b for _, b in combo])
            if point is None:
                continue
            ok = all(
                sum(a * b for a, b in zip(row, point)) <= rhs for row, rhs in rows
            ) and all(
                lo <= pi <= hi for pi, (lo, hi) in zip(point, lp.bounds)
            )
            if ok:
                cand = sum(a * b for a, b in zip(lp.objective, point))
                if best is None or cand < best:
                    best = cand
        assert best is not None
        assert value == best


def same_as_reference(lp):
    """``simplex_solve`` agrees with the ``Fraction`` tableau on ``lp``:
    the same ``(value, x)``, or the same exception."""
    try:
        expected = reference_simplex(lp)
    except (InfeasibleError, UnboundedError) as exc:
        with pytest.raises(type(exc)):
            simplex_solve(lp)
        return
    value, x = simplex_solve(lp)
    assert (value, x) == expected
    assert type(value) is F and all(type(v) is F for v in x)


BOUND_KINDS = ("lo", "hi", "box", "free")


@st.composite
def mixed_lps(draw, coeff=small, kinds=BOUND_KINDS):
    """Any relation, any bound kind; may be infeasible or unbounded."""
    nvars = draw(st.integers(1, 4))
    objective = [draw(coeff) for _ in range(nvars)]
    relation = st.sampled_from((LE, EQ, GE))
    constraints = [
        ([draw(coeff) for _ in range(nvars)], draw(relation), draw(coeff))
        for _ in range(draw(st.integers(0, 4)))
    ]
    bounds = []
    for _ in range(nvars):
        kind = draw(st.sampled_from(kinds))
        lo, hi = draw(coeff), draw(coeff)
        if kind == "box":
            lo, hi = min(lo, hi), max(lo, hi)
        bounds.append(
            (
                lo if kind in ("lo", "box") else None,
                hi if kind in ("hi", "box") else None,
            )
        )
    return LinearProgram(objective, constraints, bounds)


@st.composite
def degenerate_lps(draw):
    """0/1/2 rows sharing the right-hand side 1, with alternative optima.

    Ratio ties are frequent, and a tie broken the other way can end at
    another optimal vertex, so a changed tie-break shows in ``x``.
    """
    nvars = draw(st.integers(4, 8))
    relation, costs = draw(
        st.sampled_from(((LE, (F(-1), F(0))), (GE, (F(1), F(1), F(2)))))
    )
    entry = st.sampled_from((F(0), F(1), F(1), F(2)))
    constraints = [
        ([draw(entry) for _ in range(nvars)], relation, F(1)) for _ in range(nvars)
    ]
    objective = [draw(st.sampled_from(costs)) for _ in range(nvars)]
    return LinearProgram(objective, constraints, [(F(0), None)] * nvars)


@st.composite
def redundant_equality_lps(draw):
    """Feasible equality systems padded with combinations of their rows."""
    nvars = draw(st.integers(2, 4))
    point = [draw(st.integers(0, 3)) for _ in range(nvars)]
    base = [[draw(small) for _ in range(nvars)] for _ in range(draw(st.integers(1, 3)))]
    rows = list(base)
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(small), draw(small)
        i, j = draw(st.integers(0, len(base) - 1)), draw(st.integers(0, len(base) - 1))
        rows.append([a * u + b * v for u, v in zip(base[i], base[j])])
    constraints = [(row, EQ, sum(c * p for c, p in zip(row, point))) for row in rows]
    relation = draw(st.sampled_from((EQ, GE)))
    constraints.append(([F(1)] * nvars, relation, F(sum(point))))
    objective = [draw(small) for _ in range(nvars)]
    return LinearProgram(objective, constraints, [(F(0), F(5))] * nvars)


class TestSimplexAgainstReference:
    """The integer tableau must follow the ``Fraction`` tableau's pivot path."""

    @given(box_lps())
    def test_box_lps(self, lp):
        same_as_reference(lp)

    @given(mixed_lps())
    def test_mixed_relations_and_bounds(self, lp):
        same_as_reference(lp)

    @given(mixed_lps(coeff=over_a_prime(-3, 3)))
    def test_coprime_denominators(self, lp):
        same_as_reference(lp)

    @settings(max_examples=200)
    @given(degenerate_lps())
    def test_degenerate_ties(self, lp):
        same_as_reference(lp)

    @given(redundant_equality_lps())
    def test_redundant_equalities(self, lp):
        same_as_reference(lp)

    @given(mixed_lps(kinds=("hi", "box")))
    def test_upper_and_boxed_bounds(self, lp):
        same_as_reference(lp)

    def test_beale_cycling_example(self):
        # cycles under the largest-coefficient rule; Bland's rule must not
        lp = LinearProgram(
            [F(-3, 4), F(20), F(-1, 2), F(6)],
            [
                ([F(1, 4), F(-8), F(-1), F(9)], LE, F(0)),
                ([F(1, 2), F(-12), F(-1, 2), F(3)], LE, F(0)),
                ([F(0), F(0), F(1), F(0)], LE, F(1)),
            ],
            [(F(0), None)] * 4,
        )
        optimum = (F(-5, 4), [F(1), F(0), F(1), F(0)])
        assert simplex_solve(lp) == reference_simplex(lp) == optimum

    @pytest.mark.parametrize(
        "lp,error",
        [
            (LinearProgram([F(-1)], [], [(F(0), None)]), UnboundedError),
            (
                LinearProgram([F(1), F(-1)], [([F(1), F(-1)], LE, F(1))]),
                UnboundedError,
            ),
            (
                LinearProgram([F(1)], [([F(1)], LE, F(-1))], [(F(0), None)]),
                InfeasibleError,
            ),
            (LinearProgram([F(1)], [], [(F(2), F(1))]), InfeasibleError),
            (
                LinearProgram(
                    [F(0), F(0)],
                    [([F(1), F(1)], EQ, F(1)), ([F(2), F(2)], EQ, F(3))],
                    [(F(0), None)] * 2,
                ),
                InfeasibleError,
            ),
        ],
    )
    def test_same_exception(self, lp, error):
        with pytest.raises(error):
            reference_simplex(lp)
        with pytest.raises(error):
            simplex_solve(lp)


def solved(solve, lp):
    """``solve(lp)``, or the type of the exception it raised."""
    try:
        return solve(lp)
    except (InfeasibleError, UnboundedError) as exc:
        return type(exc)


class TestSparseRows:
    """A row given densely or as a mapping is one row to the simplex."""

    @pytest.mark.parametrize(
        "lps",
        [
            mixed_lps(),
            mixed_lps(coeff=over_a_prime(-3, 3)),
            degenerate_lps(),
            redundant_equality_lps(),
        ],
        ids=["mixed", "coprime", "degenerate", "redundant"],
    )
    @given(data=st.data())
    def test_dense_and_mapping_rows_agree(self, lps, data):
        lp = data.draw(lps)
        nvars = len(lp.objective)
        zeros = data.draw(st.sets(st.integers(0, nvars - 1)))
        dense = LinearProgram(
            lp.objective,
            [(dense_row(row, nvars), rel, rhs) for row, rel, rhs in lp.constraints],
            lp.bounds,
        )
        # keys in reverse column order, with explicit zeros
        keys = range(nvars - 1, -1, -1)
        mapping = LinearProgram(
            lp.objective,
            [
                ({j: row.get(j, 0) for j in keys if j in row or j in zeros}, rel, rhs)
                for row, rel, rhs in lp.constraints
            ],
            lp.bounds,
        )
        assert dense.constraints == mapping.constraints == lp.constraints
        expected = solved(reference_simplex, lp)
        assert solved(simplex_solve, dense) == expected
        assert solved(simplex_solve, mapping) == expected


def seeded_instance(seed: int, n: int):
    rng = random.Random(seed)
    space = random_metric_space(rng, n)
    return space, random_zero_sum_problem(rng, space, n)


class TestCertificatesAgainstReference:
    """Dual certificates and quotient representatives do not move."""

    @pytest.mark.parametrize("seed,n", [(0, 6), (1, 8), (2, 9), (3, 11), (4, 12)])
    def test_dual_and_quotient(self, seed, n, monkeypatch):
        space, f = seeded_instance(seed, n)
        plan = transport.tc_norm(space, f)[1]
        lifted = quotient.lift_plan(plan, n)
        h, value = duality.dual_optimal(space, f)
        q_value, rep = quotient.quotient_norm(space, lifted)
        monkeypatch.setattr(duality, "simplex_solve", reference_simplex)
        monkeypatch.setattr(quotient, "simplex_solve", reference_simplex)
        assert duality.dual_optimal(space, f) == (h, value)
        q_ref, rep_ref = quotient.quotient_norm(space, lifted)
        assert q_ref == q_value
        assert rep_ref.entries == rep.entries


def bit_recording(monkeypatch):
    """Wrap the integer-row helpers; the returned dict maps each helper's
    name to the ``(row index, largest entry bit length)`` of every row
    it hands back.  ``_eliminate`` is told the index of the row it
    updates; ``_integer_row`` is not, so its rows record ``None``."""
    bits = {"_eliminate": [], "_integer_row": []}

    def record(helper, row_index):
        def wrapped(*args):
            row = helper(*args)
            largest = max(map(abs, row.values()), default=0)
            bits[helper.__name__].append((row_index(args), largest.bit_length()))
            return row

        return wrapped

    monkeypatch.setattr(
        solvers, "_eliminate", record(solvers._eliminate, lambda args: args[5])
    )
    monkeypatch.setattr(
        solvers, "_integer_row", record(solvers._integer_row, lambda args: None)
    )
    return bits


def assert_small_bits(bits):
    """One solve's helpers handed back constraint rows, and no entry of
    any row, the cost rows included, needs over 64 bits.

    A solve has at most two cost rows, one per phase, so a helper that
    handed back more than two rows (``_integer_row``) or updated more
    than two distinct rows (``_eliminate``) saw a constraint row."""
    assert len(bits["_integer_row"]) > 2, "_integer_row built no constraint row"
    updated = {i for i, _ in bits["_eliminate"]}
    assert len(updated) > 2, "_eliminate updated no constraint row"
    for rows in bits.values():
        assert max(b for _, b in rows) <= 64
        rows.clear()


class TestCoefficientGrowth:
    def test_bits_stay_small_on_the_largest_lps(self, monkeypatch):
        bits = bit_recording(monkeypatch)
        space, f = seeded_instance(16, quotient.QUOTIENT_POINT_LIMIT)
        lifted = quotient.lift_plan(transport.tc_norm(space, f)[1], space.n)
        quotient.quotient_norm(space, lifted)
        assert_small_bits(bits)
        space, f = seeded_instance(32, duality.DUAL_POINT_LIMIT)
        duality.dual_optimal(space, f)
        assert_small_bits(bits)


class TestCostRow:
    def test_each_phase_has_one_cost_row_last(self, monkeypatch):
        """``2x == 2`` repeats ``x == 1``, so phase 1 ends with one row
        redundant.  The phase-1 cost row (row 2) leaves with it, and the
        phase-2 cost row is row 1, after the one row that is left."""
        bits = bit_recording(monkeypatch)
        lp = LinearProgram([1], [([1], EQ, 1), ([2], EQ, 2)], [(0, None)])
        assert simplex_solve(lp) == (1, [1])
        updated = [i for i, _ in bits["_eliminate"]]
        assert updated[:2] == [2, 2] and updated[-1] == 1


class TestMinCostFlow:
    def test_transshipment(self):
        arcs = [(0, 1, 1), (0, 2, 3), (1, 2, 1)]
        cost, flows = min_cost_flow([2, -1, -1], arcs)
        assert cost == 3
        assert flows == [2, 0, 1]
        assert all(type(x) is int for x in (cost, *flows))

    def test_zero_supplies(self):
        assert min_cost_flow([0, 0], []) == (0, [])

    def test_disconnected_is_infeasible(self):
        with pytest.raises(InfeasibleError):
            min_cost_flow([1, -1], [])

    def test_validation(self):
        with pytest.raises(ValueError, match="sum to zero"):
            min_cost_flow([1], [])
        with pytest.raises(ValueError, match="nonnegative"):
            min_cost_flow([1, -1], [(0, 1, -1)])
        with pytest.raises(ValueError, match="out of node range"):
            min_cost_flow([1, -1], [(0, 2, 1)])
        with pytest.raises(ValueError, match="self-loop"):
            min_cost_flow([1, -1], [(0, 0, 1)])


def as_int_instance(supplies, arcs):
    """A rational instance scaled to ``int``: supplies by the lcm ``S`` of
    their denominators, costs by the lcm ``D`` of theirs; returns
    ``(S, D, int supplies, int arcs)``."""
    scale = math.lcm(*(F(s).denominator for s in supplies))
    cost_scale = math.lcm(*(F(c).denominator for *_, c in arcs))
    return (
        scale,
        cost_scale,
        [int(s * scale) for s in supplies],
        [(u, v, int(c * cost_scale)) for u, v, c in arcs],
    )


@st.composite
def flow_instances(draw):
    """Complete bidirected int networks; every pair of nodes is joined."""
    n = draw(st.integers(3, 4))
    raw = [draw(st.integers(-3, 3)) for _ in range(n - 1)]
    supplies = raw + [-sum(raw)]
    arcs = [
        (u, v, draw(st.integers(0, 3))) for u in range(n) for v in range(n) if u != v
    ]
    return supplies, arcs


@st.composite
def coprime_flow_instances(draw):
    """Like ``flow_instances``, with every amount and cost over a prime > 100."""
    n = draw(st.integers(3, 4))
    raw = [draw(over_a_prime(-3, 3)) for _ in range(n - 1)]
    supplies = raw + [-sum(raw, F(0))]
    arcs = [
        (u, v, draw(over_a_prime(0, 3)))
        for u in range(n)
        for v in range(n)
        if u != v
    ]
    return supplies, arcs


@st.composite
def ring_flow_instances(draw):
    """A directed ring through every node plus random chords, with zero
    costs among the draws, so zero-cost cycles are common."""
    n = draw(st.integers(2, 5))
    raw = [draw(st.integers(-4, 4)) for _ in range(n - 1)]
    supplies = raw + [-sum(raw)]
    ring = [(v, (v + 1) % n) for v in range(n)]
    chord = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    chords = draw(st.lists(chord.filter(lambda a: a[0] != a[1]), max_size=6))
    cost = st.sampled_from([0, 1, 2, 6])
    return supplies, [(u, v, draw(cost)) for u, v in ring + chords]


class TestUncapacitatedArcs:
    """Every residual capacity starts at the total positive supply, and
    that bound never binds: no arc carries more before every unit is
    delivered."""

    @pytest.mark.parametrize("supplies", [[3, 0, 0, -3], [2, 1, 0, -3]])
    def test_one_arc_carries_the_whole_supply(self, supplies):
        # a zero-cost directed cycle 0 -> 1 -> 2 -> 0 whose only exit is
        # the arc 2 -> 3, which therefore carries every unit of supply
        arcs = [(0, 1, 0), (1, 2, 0), (2, 0, 0), (2, 3, 1)]
        cost, flows = min_cost_flow(supplies, arcs)
        assert cost == 3 and flows[3] == 3
        assert max(flows) == 3


class TestFlowAgainstSimplex:
    """The kernel's optimum equals the LP's with every arc in ``(0, None)``."""

    @given(flow_instances())
    def test_routes_agree(self, instance):
        self.check_against_simplex(*instance)

    @given(coprime_flow_instances())
    def test_routes_agree_on_coprime_denominators(self, instance):
        self.check_against_simplex(*instance)

    @given(ring_flow_instances())
    def test_routes_agree_on_rings_with_chords(self, instance):
        self.check_against_simplex(*instance)

    @staticmethod
    def check_against_simplex(supplies, arcs):
        nvars = len(arcs)
        objective = [cost for _, _, cost in arcs]
        constraints = []
        for v, supply in enumerate(supplies):
            row = [F(0)] * nvars
            for k, (tail, head, _) in enumerate(arcs):
                if tail == v:
                    row[k] += F(1)
                if head == v:
                    row[k] -= F(1)
            constraints.append((row, EQ, supply))
        lp = LinearProgram(objective, constraints, [(F(0), None)] * nvars)
        lp_cost, _ = simplex_solve(lp)
        scale, cost_scale, int_supplies, int_arcs = as_int_instance(supplies, arcs)
        total, int_flows = min_cost_flow(int_supplies, int_arcs)
        assert all(type(x) is int for x in (total, *int_flows))
        assert F(total, scale * cost_scale) == lp_cost
        # the flow itself must be conserving, nonnegative and within the
        # total positive supply
        required = sum(s for s in int_supplies if s > 0)
        flows = [F(x, scale) for x in int_flows]
        for v, supply in enumerate(supplies):
            net_out = sum(
                (flows[k] for k, a in enumerate(arcs) if a[0] == v), F(0)
            ) - sum((flows[k] for k, a in enumerate(arcs) if a[1] == v), F(0))
            assert net_out == supply
        assert all(0 <= x <= required for x in int_flows)
        assert sum(x * c for x, (*_, c) in zip(flows, arcs)) == lp_cost


class TestLeastSquares:
    def test_overdetermined(self):
        rows = [[F(1), F(0)], [F(1), F(1)], [F(1), F(2)]]
        target = [F(0), F(1), F(1)]
        x = reference_least_squares(rows, target)
        assert x == [F(1, 6), F(1, 2)]

    def test_square_invertible(self):
        x = reference_least_squares([[F(2), F(1)], [F(1), F(3)]], [F(5), F(10)])
        assert x == [F(1), F(3)]

    def test_underdetermined_pins_free_variables(self):
        assert reference_least_squares([[F(1), F(1)]], [F(2)]) == [F(2), F(0)]

    def test_dimension_errors(self):
        with pytest.raises(ValueError):
            reference_least_squares([[F(1)], [F(1), F(2)]], [F(0), F(0)])
        with pytest.raises(ValueError):
            reference_least_squares([[F(1)]], [F(0), F(0)])

    @given(st.data())
    def test_residual_orthogonal_to_columns(self, data):
        nrows = data.draw(st.integers(1, 4))
        ncols = data.draw(st.integers(1, 3))
        rows = [[data.draw(small) for _ in range(ncols)] for _ in range(nrows)]
        target = [data.draw(small) for _ in range(nrows)]
        x = reference_least_squares(rows, target)
        residual = [
            t - sum(a * b for a, b in zip(row, x)) for row, t in zip(rows, target)
        ]
        for c in range(ncols):
            assert sum(rows[r][c] * residual[r] for r in range(nrows)) == 0
