"""Edge space, cycle basis, quotient norm, and the cut decomposition."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcspace import (
    EdgeVector,
    LipFunction,
    ParseError,
    TransportPlan,
    all_edges,
    boundary,
    cut_decomposition,
    cycle_basis,
    format_edge_vector,
    gradient_field,
    l1d_norm,
    lift_plan,
    parse_edge_vector,
    quotient_norm,
    tc_norm,
)

from helpers import (
    exact_rank,
    line_space,
    metric_spaces,
    over_a_prime,
    reference_least_squares,
    relay_plan,
    spaces_with_problems,
)

LINE = line_space([0, 1, 3])
K3 = line_space([0, 1, 2])  # sides 1, 1, 2

small = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def dense(f: EdgeVector) -> list:
    return [f.value(i, j) for i, j in all_edges(f.n)]


def dot(f: EdgeVector, g: EdgeVector) -> F:
    assert f.n == g.n
    return sum((a * b for a, b in zip(dense(f), dense(g))), F(0))


@st.composite
def edge_vectors(draw, n: int) -> EdgeVector:
    values = {}
    for e in all_edges(n):
        q = draw(small)
        if q:
            values[e] = q
    return EdgeVector.from_values(n, values)


class TestEdgeVectors:
    def test_normalization(self):
        f = EdgeVector.from_values(4, [((0, 1), F(1)), ((0, 1), F(-1)), ((1, 3), F(2))])
        assert f.entries == (((1, 3), F(2)),)
        assert f.value(1, 3) == F(2)
        assert f.value(0, 2) == F(0)
        with pytest.raises(ValueError):
            f.value(3, 1)

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            EdgeVector.from_values(3, {(1, 1): F(1)})
        with pytest.raises(ValueError):
            EdgeVector.from_values(3, {(2, 1): F(1)})
        with pytest.raises(ValueError):
            EdgeVector.from_values(3, {(0, 3): F(1)})
        with pytest.raises(ValueError):
            EdgeVector(0)
        for bad in [(True, 2), (0, True), (0, F(2)), (0, 2.0), ("0", 2)]:
            with pytest.raises(ValueError, match="bad edge"):
                EdgeVector.from_values(3, {bad: F(1)})
        with pytest.raises(ValueError, match="float"):
            EdgeVector.from_values(3, {(0, 1): 0.5})

    def test_operators(self):
        f = EdgeVector.from_values(3, {(0, 1): F(1)})
        g = EdgeVector.from_values(3, {(0, 1): F(2), (1, 2): F(1)})
        assert (f + g).value(0, 1) == F(3)
        assert (f - g).value(1, 2) == F(-1)
        assert f.scaled(-2).value(0, 1) == F(-2)
        assert (f - f).is_zero
        with pytest.raises(ValueError):
            f + EdgeVector.from_values(4, {})

    def test_all_edges(self):
        assert all_edges(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert all_edges(1) == []


class TestCycleSpace:
    def test_basis_shape(self):
        basis = cycle_basis(4)
        assert len(basis) == 3
        first = basis[0]
        assert first.value(0, 1) == F(1)
        assert first.value(1, 2) == F(1)
        assert first.value(0, 2) == F(-1)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_basis_count_and_independence(self, n):
        basis = cycle_basis(n)
        assert len(basis) == (n - 1) * (n - 2) // 2
        if basis:
            assert exact_rank([dense(chi) for chi in basis]) == len(basis)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_basis_cycles_have_zero_boundary(self, n):
        for chi in cycle_basis(n):
            assert boundary(chi).is_zero

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_dimension_split(self, n):
        edges = all_edges(n)
        cycles = len(cycle_basis(n))
        incidence = []
        for i, j in edges:
            row = [F(0)] * n
            row[j] = F(1)
            row[i] = F(-1)
            incidence.append(row)
        cuts = exact_rank(incidence)
        assert cuts == n - 1
        assert cycles + cuts == len(edges)


class TestBoundaryAndLift:
    def test_boundary_orientation(self):
        f = EdgeVector.from_values(3, {(0, 2): F(1)})
        assert boundary(f).entries == ((0, F(-1)), (2, F(1)))

    def test_lift_signs(self):
        forward = TransportPlan(((0, 1, F(1)), (0, 2, F(1))), F(4))
        assert lift_plan(forward, 3).entries == (
            ((0, 1), F(-1)),
            ((0, 2), F(-1)),
        )
        backward = TransportPlan(((2, 0, F(3)),), F(6))
        assert lift_plan(backward, 3).entries == (((0, 2), F(3)),)
        with pytest.raises(IndexError):
            lift_plan(backward, 2)

    def test_l1d(self):
        g = EdgeVector.from_values(3, {(0, 1): F(-1), (0, 2): F(-1)})
        assert l1d_norm(LINE, g) == F(4)
        with pytest.raises(ValueError):
            l1d_norm(LINE, EdgeVector.from_values(4, {}))

    @given(st.data())
    def test_boundary_of_lift_recovers_problem(self, data):
        n = data.draw(st.integers(2, 6))
        moves = []
        for _ in range(data.draw(st.integers(1, 5))):
            x = data.draw(st.integers(0, n - 1))
            y = data.draw(st.integers(0, n - 1).filter(lambda v: v != x))
            moves.append((x, y, data.draw(small.filter(lambda q: q > 0))))
        plan = TransportPlan(tuple(moves), F(0))
        assert boundary(lift_plan(plan, n)) == plan.problem()


class TestQuotientNorm:
    def test_triangle_shortcut(self):
        value, rep = quotient_norm(K3, EdgeVector.from_values(3, {(0, 2): F(1)}))
        assert value == F(2)
        assert l1d_norm(K3, rep) == F(2)

    def test_line_plan_lift(self):
        g = EdgeVector.from_values(3, {(0, 1): F(-1), (0, 2): F(-1)})
        value, rep = quotient_norm(LINE, g)
        assert value == F(4)
        assert l1d_norm(LINE, rep) == F(4)
        assert boundary(rep - g).is_zero

    def test_pure_cycle_collapses_to_zero(self):
        chi = cycle_basis(4)[1]
        space = line_space([0, 1, 3, 7])
        value, rep = quotient_norm(space, chi.scaled(F(5, 2)))
        assert value == F(0)
        assert rep.is_zero

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            quotient_norm(LINE, EdgeVector.from_values(4, {}))

    @given(spaces_with_problems())
    def test_matches_transport_norm_on_optimal_lifts(self, case):
        space, f = case
        norm, plan = tc_norm(space, f)
        lifted = lift_plan(plan, space.n)
        value, rep = quotient_norm(space, lifted)
        assert value == norm
        assert l1d_norm(space, lifted) == value
        assert l1d_norm(space, rep) == value
        assert boundary(rep) == f

    @given(spaces_with_problems())
    def test_independent_of_the_lifted_plan(self, case):
        space, f = case
        norm, _ = tc_norm(space, f)
        wasteful = lift_plan(relay_plan(space, f), space.n)
        assert l1d_norm(space, wasteful) >= norm
        value, _ = quotient_norm(space, wasteful)
        assert value == norm

    @given(st.data())
    def test_orientation_invariance(self, data):
        space = data.draw(metric_spaces(3, 5))
        f = data.draw(edge_vectors(space.n))
        flips = {
            e: data.draw(st.sampled_from((1, -1))) for e in all_edges(space.n)
        }
        base, _ = quotient_norm(space, f)
        flipped, _ = quotient_norm(space, f, orientation=flips)
        assert base == flipped

    @given(st.data())
    def test_never_exceeds_any_representative(self, data):
        space = data.draw(metric_spaces(3, 5))
        f = data.draw(edge_vectors(space.n))
        value, rep = quotient_norm(space, f)
        assert value <= l1d_norm(space, f)
        assert l1d_norm(space, rep) == value
        assert boundary(rep - f).is_zero


class TestCutDecomposition:
    def test_unit_edge_split(self):
        f = EdgeVector.from_values(3, {(0, 1): F(1)})
        z, b = cut_decomposition(f)
        assert dense(z) == [F(1, 3), F(-1, 3), F(1, 3)]
        assert dense(b) == [F(2, 3), F(1, 3), F(-1, 3)]

    @given(st.data())
    def test_split_properties(self, data):
        n = data.draw(st.integers(2, 6))
        f = data.draw(edge_vectors(n))
        z, b = cut_decomposition(f)
        assert z + b == f
        assert boundary(z).is_zero
        # gradient part is additive along triangles
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    assert b.value(i, j) + b.value(j, k) == b.value(i, k)
        assert dot(z, b) == F(0)

    @given(st.data())
    def test_cycle_part_orthogonal_to_all_gradients(self, data):
        space = data.draw(metric_spaces(3, 5))
        f = data.draw(edge_vectors(space.n))
        z, _ = cut_decomposition(f)
        h = LipFunction(tuple(data.draw(small) for _ in range(space.n)))
        assert dot(z, gradient_field(space, h)) == F(0)

    @given(st.data())
    def test_matches_least_squares_projection(self, data):
        # coprime denominators, so the closed form meets large lcms
        n = data.draw(st.integers(1, 8))
        edges = all_edges(n)
        f = EdgeVector.from_values(
            n, {e: data.draw(over_a_prime(-4, 4)) for e in edges}
        )
        z, b = cut_decomposition(f)
        rows = [[F((v == j) - (v == i)) for v in range(n)] for i, j in edges]
        h = reference_least_squares(rows, dense(f))
        projection = EdgeVector.from_values(
            n, {(i, j): h[j] - h[i] for i, j in edges}
        )
        assert (z, b) == (f - projection, projection)
        if n == 1:
            assert z.is_zero and b.is_zero


class TestTextFormat:
    def test_parse_and_merge(self):
        f = parse_edge_vector("0 1 1/2\n0 1 1/2\n1 2 -3\n", 3)
        assert f.entries == (((0, 1), F(1)), ((1, 2), F(-3)))

    @pytest.mark.parametrize(
        "text", ["0 1", "0 1 2 3", "1 0 2", "0 0 1", "0 3 1", "x 1 2", "0 1 1.5"]
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_edge_vector(text, 3)

    @given(st.data())
    def test_round_trip(self, data):
        n = data.draw(st.integers(2, 6))
        f = data.draw(edge_vectors(n))
        assert parse_edge_vector(format_edge_vector(f), n) == f
