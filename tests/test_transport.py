"""Transportation problems, optimal plans, and the cost norm."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcspace import (
    FiniteMetricSpace,
    NotZeroSumError,
    ParseError,
    TransportPlan,
    TransportationProblem,
    extremes,
    family_metric,
    format_problem,
    l1_norm,
    parse_problem,
    point_embedding,
    tc_brute_force,
    tc_norm,
)
from tcspace.transport import BRUTE_FORCE_SUPPORT_LIMIT

from helpers import (
    line_space,
    over_a_prime,
    relay_plan,
    spaces_with_problems,
    zero_sum_problems,
)

LINE = line_space([0, 1, 3])


@st.composite
def coprime_spaces_with_problems(draw):
    """Distances in [1, 2] and problem values over primes above 100."""
    n = draw(st.integers(3, 7))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(over_a_prime(1, 2))
    points = draw(st.permutations(range(n)))[: draw(st.integers(2, n))]
    values = [draw(over_a_prime(-3, 3).filter(bool)) for _ in points[1:]]
    values.append(-sum(values, F(0)))
    f = TransportationProblem.from_values(dict(zip(points, values)))
    return FiniteMetricSpace.from_matrix(rows), f


@st.composite
def scaling_cases(draw):
    """A coprime-denominator or tie-heavy ({1, 3/2, 2}) space, a problem
    on it and a positive rational factor."""
    n = draw(st.integers(2, 7))
    side = draw(
        st.sampled_from([over_a_prime(1, 2), st.sampled_from([F(1), F(3, 2), F(2)])])
    )
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(side)
    value = draw(
        st.sampled_from([over_a_prime(-3, 3), st.integers(-3, 3).map(F)])
    ).filter(bool)
    points = draw(st.permutations(range(n)))[: draw(st.integers(2, n))]
    values = [draw(value) for _ in points[1:]]
    values.append(-sum(values, F(0)))
    f = TransportationProblem.from_values(dict(zip(points, values)))
    factor = draw(over_a_prime(0, 4).filter(bool) | st.sampled_from([F(1, 3), F(5)]))
    return FiniteMetricSpace.from_matrix(rows), f, factor


class TestProblemAlgebra:
    def test_normalization(self):
        f = TransportationProblem.from_values([(2, F(1)), (2, F(-1)), (0, F(3)), (1, F(-3))])
        assert f.entries == ((0, F(3)), (1, F(-3)))
        assert f.support == (0, 1)
        assert f.value(0) == F(3)
        assert f.value(7) == F(0)
        assert not f.is_zero

    def test_zero_sum_enforced(self):
        with pytest.raises(NotZeroSumError):
            TransportationProblem.from_values({0: F(1)})

    def test_index_validation(self):
        with pytest.raises(ValueError):
            TransportationProblem.from_values({-1: F(1), 0: F(-1)})
        with pytest.raises(ValueError):
            TransportationProblem.from_values({True: F(1), 0: F(-1)})

    def test_exact_values_only(self):
        with pytest.raises(ValueError, match="float"):
            TransportationProblem.from_values({0: 0.1, 1: -0.1})
        with pytest.raises(ValueError, match="bool"):
            TransportationProblem.from_values({0: True, 1: -1})
        f = TransportationProblem.from_values({0: "1/3", 1: F(-1, 3), 2: 0})
        assert f.entries == ((0, F(1, 3)), (1, F(-1, 3)))

    def test_operators(self):
        f = TransportationProblem.from_values({0: F(1), 1: F(-1)})
        g = TransportationProblem.from_values({1: F(1), 2: F(-1)})
        assert (f + g).entries == ((0, F(1)), (2, F(-1)))
        assert (f - f).is_zero
        assert (-f).value(0) == F(-1)
        assert f.scaled(F(3, 2)).value(0) == F(3, 2)
        assert f.scaled(0).is_zero

    def test_l1(self):
        f = TransportationProblem.from_values({0: F(2), 1: F(-1), 2: F(-1)})
        assert l1_norm(f) == F(4)
        assert l1_norm(TransportationProblem()) == F(0)


class TestPlans:
    def test_positive_amounts_only(self):
        with pytest.raises(ValueError):
            TransportPlan(((0, 1, F(0)),), F(0))
        with pytest.raises(ValueError):
            TransportPlan(((0, 1, F(-1)),), F(0))
        with pytest.raises(ValueError):
            TransportPlan(((1, 1, F(2)),), F(0))

    def test_problem_reconstruction(self):
        plan = TransportPlan(((0, 1, F(1)), (0, 2, F(1))), F(4))
        f = plan.problem()
        assert f.entries == ((0, F(2)), (1, F(-1)), (2, F(-1)))
        assert plan.cost_in(LINE) == F(4)


class TestNorm:
    def test_line_example(self):
        f = TransportationProblem.from_values({0: F(2), 1: F(-1), 2: F(-1)})
        norm, plan = tc_norm(LINE, f)
        assert norm == F(4)
        assert plan.moves == ((0, 1, F(1)), (0, 2, F(1)))
        assert plan.cost == F(4)
        assert tc_brute_force(LINE, f) == F(4)

    def test_single_pair(self):
        f = TransportationProblem.from_values({1: F(1), 2: F(-1)})
        norm, plan = tc_norm(LINE, f)
        assert norm == F(2)
        assert plan.moves == ((1, 2, F(1)),)

    def test_tied_assignment(self):
        space = family_metric("a", 4)
        f = TransportationProblem.from_values(
            {0: F(1), 1: F(1), 2: F(-1), 3: F(-1)}
        )
        norm, plan = tc_norm(space, f)
        assert norm == F(17, 2)
        assert tc_brute_force(space, f) == F(17, 2)
        assert plan.cost_in(space) == norm
        assert plan.problem() == f

    def test_zero_problem(self):
        norm, plan = tc_norm(LINE, TransportationProblem())
        assert norm == F(0)
        assert plan.moves == ()

    def test_support_out_of_range(self):
        f = TransportationProblem.from_values({0: F(1), 9: F(-1)})
        with pytest.raises(IndexError):
            tc_norm(LINE, f)
        with pytest.raises(IndexError):
            tc_brute_force(LINE, f)

    def test_brute_force_support_cap(self):
        n = BRUTE_FORCE_SUPPORT_LIMIT + 1
        space = line_space(range(n))
        values = {v: F(1) for v in range(n - 1)}
        values[n - 1] = F(-(n - 1))
        f = TransportationProblem.from_values(values)
        with pytest.raises(ValueError, match="support too large"):
            tc_brute_force(space, f)

    @given(spaces_with_problems())
    def test_agrees_with_lp_oracle(self, case):
        space, f = case
        norm, plan = tc_norm(space, f)
        assert norm == tc_brute_force(space, f)
        assert plan.problem() == f
        assert plan.cost == norm
        assert plan.cost_in(space) == norm
        positives = {v for v, a in f.entries if a > 0}
        negatives = {v for v, a in f.entries if a < 0}
        for x, y, _ in plan.moves:
            assert x in positives
            assert y in negatives

    @given(coprime_spaces_with_problems())
    def test_large_coprime_denominators(self, case):
        space, f = case
        norm, plan = tc_norm(space, f)
        oracle = tc_brute_force(space, f)
        assert norm == oracle == plan.cost
        assert all(type(a) is F and a > 0 for _, _, a in plan.moves)
        assert sum(a * space.d(x, y) for x, y, a in plan.moves) == norm
        for v, value in f.entries:
            out = sum((a for x, _, a in plan.moves if x == v), F(0))
            into = sum((a for _, y, a in plan.moves if y == v), F(0))
            assert out - into == value

    @given(spaces_with_problems())
    def test_norm_axioms(self, case):
        space, f = case
        norm, _ = tc_norm(space, f)
        assert norm > 0
        assert tc_norm(space, -f)[0] == norm
        assert tc_norm(space, f.scaled(F(-3, 2)))[0] == F(3, 2) * norm
        assert tc_norm(space, TransportationProblem())[0] == F(0)

    @given(st.data())
    def test_triangle_inequality(self, data):
        space, f = data.draw(spaces_with_problems())
        g = data.draw(zero_sum_problems(space.n))
        lhs = tc_norm(space, f + g)[0]
        assert lhs <= tc_norm(space, f)[0] + tc_norm(space, g)[0]

    @given(spaces_with_problems())
    def test_sandwich_bounds(self, case):
        space, f = case
        lo, hi = extremes(space)
        norm, _ = tc_norm(space, f)
        assert lo * l1_norm(f) / 2 <= norm
        assert norm <= hi * l1_norm(f) / 2

    @given(st.data())
    def test_l1_lower_bound_from_norm_gap(self, data):
        space, g = data.draw(spaces_with_problems())
        h = data.draw(zero_sum_problems(space.n))
        support = g.support
        spread = max(
            space.d(u, v) for u in support for v in support if u != v
        )
        gap = tc_norm(space, g)[0] - tc_norm(space, h)[0]
        assert l1_norm(g + (-h)) >= 2 * gap / spread

    @given(spaces_with_problems())
    def test_relay_plan_is_feasible_but_not_cheaper(self, case):
        space, f = case
        plan = relay_plan(space, f)
        assert plan.problem() == f
        assert plan.cost_in(space) == plan.cost
        assert plan.cost >= tc_norm(space, f)[0]


class TestScaling:
    """The flow runs on ``int`` after scaling by positive constants, so a
    common factor on the distances or on ``f`` changes no decision."""

    @given(scaling_cases())
    def test_scaled_distances_keep_the_moves(self, case):
        space, f, c = case
        norm, plan = tc_norm(space, f)
        scaled = FiniteMetricSpace.from_matrix(
            [[c * d for d in row] for row in space.dist]
        )
        scaled_norm, scaled_plan = tc_norm(scaled, f)
        assert scaled_plan.moves == plan.moves
        assert scaled_norm == c * norm

    @given(scaling_cases())
    def test_scaled_problem_scales_every_move(self, case):
        space, f, c = case
        norm, plan = tc_norm(space, f)
        scaled_norm, scaled_plan = tc_norm(space, f.scaled(c))
        assert scaled_plan.moves == tuple((x, y, c * a) for x, y, a in plan.moves)
        assert scaled_norm == c * norm


class TestEmbedding:
    def test_unit_differences(self):
        f = point_embedding(LINE, 2, 0)
        assert f.entries == ((0, F(-1)), (2, F(1)))
        assert point_embedding(LINE, 1, 1).is_zero
        with pytest.raises(IndexError):
            point_embedding(LINE, 5, 0)

    def test_isometry_on_a_family(self):
        space = family_metric("e", 5)
        for u in range(space.n):
            for v in range(space.n):
                f = point_embedding(space, u, 0) - point_embedding(space, v, 0)
                norm, _ = tc_norm(space, f)
                assert norm == (space.d(u, v) if u != v else F(0))


class TestTextFormat:
    def test_parse_and_merge(self):
        f = parse_problem("0 1\n0 -1\n1 2\n2 -2\n")
        assert f.entries == ((1, F(2)), (2, F(-2)))

    def test_comments(self):
        f = parse_problem("# balance\n0 3/2\n1 -3/2\n")
        assert f.value(0) == F(3, 2)

    @pytest.mark.parametrize("text", ["0", "0 1 2", "x 1", "0 1.5"])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_problem(text)

    def test_zero_sum_checked(self):
        with pytest.raises(NotZeroSumError):
            parse_problem("0 1\n1 -2\n")

    def test_round_trip(self):
        f = TransportationProblem.from_values({0: F(5, 3), 4: F(-1), 7: F(-2, 3)})
        assert parse_problem(format_problem(f)) == f

    @given(zero_sum_problems(8))
    def test_round_trip_random(self, f):
        assert parse_problem(format_problem(f)) == f
