"""Metric validation, the text format, and the five point families."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcspace import (
    FAMILY_TAGS,
    FiniteMetricSpace,
    NotAMetricError,
    ParseError,
    extremes,
    family_distance,
    family_metric,
    parse_metric,
    serialize_metric,
)

from helpers import line_space, metric_spaces, over_a_prime, reference_validate


class TestValidation:
    def test_not_square(self):
        with pytest.raises(ValueError, match="square"):
            FiniteMetricSpace.from_matrix([[0, 1], [1, 0], [2, 2]])

    def test_labels_length(self):
        with pytest.raises(ValueError, match="labels"):
            FiniteMetricSpace.from_matrix([[0, 1], [1, 0]], labels=("a",))

    def test_nonzero_diagonal(self):
        with pytest.raises(NotAMetricError) as info:
            FiniteMetricSpace.from_matrix([[0, 1], [1, 2]])
        assert info.value.axiom == "zero diagonal"
        assert info.value.witness == (1,)

    def test_asymmetry(self):
        with pytest.raises(NotAMetricError) as info:
            FiniteMetricSpace.from_matrix([[0, 1], [2, 0]])
        assert info.value.axiom == "symmetry"
        assert info.value.witness == (0, 1)

    def test_zero_off_diagonal(self):
        with pytest.raises(NotAMetricError) as info:
            FiniteMetricSpace.from_matrix([[0, 0], [0, 0]])
        assert info.value.axiom == "positivity"
        assert info.value.witness == (0, 1)

    def test_triangle_violation(self):
        rows = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        with pytest.raises(NotAMetricError) as info:
            FiniteMetricSpace.from_matrix(rows)
        assert info.value.axiom == "triangle"
        assert info.value.witness == (0, 1, 2)
        assert "5 > 1 + 1" in str(info.value)

    def test_accessors(self):
        space = line_space([0, 1, 3])
        assert space.n == 3
        assert space.d(0, 2) == F(3)
        assert space.d(2, 0) == F(3)
        assert space.label(1) == "p1"
        named = FiniteMetricSpace.from_matrix([[0, 1], [1, 0]], labels=("x", "y"))
        assert named.label(1) == "y"

    def test_exact_entries_only(self):
        with pytest.raises(ValueError, match="float"):
            FiniteMetricSpace.from_matrix([[0, 0.1], [0.1, 0]])
        with pytest.raises(ValueError, match="bool"):
            FiniteMetricSpace.from_matrix([[0, True], [True, 0]])
        with pytest.raises(ValueError, match="float"):
            FiniteMetricSpace(((0, 0.5), (0.5, 0)))
        space = FiniteMetricSpace.from_matrix([[0, "1/3"], [F(1, 3), 0]])
        assert space.d(0, 1) == F(1, 3)
        assert type(FiniteMetricSpace(((0, 1), (1, 0))).d(0, 1)) is F

    def test_single_point(self):
        space = FiniteMetricSpace.from_matrix([[0]])
        assert space.n == 1
        with pytest.raises(ValueError):
            extremes(space)

    def test_integer_core(self):
        space = FiniteMetricSpace.from_matrix([[0, F(1, 6)], [F(1, 6), 0]])
        assert space.scale == 6
        assert space.int_dist == ((0, 1), (1, 0))
        assert type(space.int_dist[0][1]) is int
        # derived fields stay out of equality, hashing and repr
        assert space == FiniteMetricSpace(((0, "1/6"), ("1/6", 0)))
        assert hash(space) == hash(FiniteMetricSpace(space.dist))
        assert "int_dist" not in repr(space) and "scale" not in repr(space)
        whole = family_metric("d", 6)
        assert all(
            whole.int_dist[u][v] == whole.dist[u][v] * whole.scale
            for u in range(6)
            for v in range(6)
        )

    @given(st.data())
    def test_agrees_with_reference_loop(self, data):
        n = data.draw(st.integers(3, 8))
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = data.draw(over_a_prime(1, 2))
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for _ in range(data.draw(st.integers(0, 3))):
            kind = data.draw(
                st.sampled_from(["shrink", "grow", "zero", "asymmetric", "diagonal"])
            )
            i, j = data.draw(cell.filter(lambda c: c[0] != c[1]))
            if kind == "shrink":
                rows[i][j] = rows[j][i] = data.draw(over_a_prime(0, 1).filter(bool))
            elif kind == "grow":
                rows[i][j] = rows[j][i] = data.draw(over_a_prime(2, 5))
            elif kind == "zero":
                rows[i][j] = rows[j][i] = F(0)
            elif kind == "asymmetric":
                rows[i][j] = data.draw(over_a_prime(-1, 2))
            else:
                rows[i][i] = data.draw(over_a_prime(-1, 1).filter(bool))

        def outcome(check):
            try:
                check()
            except NotAMetricError as exc:
                return exc.axiom, exc.witness, str(exc)
            return None

        expected = outcome(lambda: reference_validate(rows))
        assert outcome(lambda: FiniteMetricSpace.from_matrix(rows)) == expected


class TestTextFormat:
    def test_parse_line_space(self):
        space = parse_metric("3\n1 3\n2\n")
        assert space.dist == line_space([0, 1, 3]).dist

    def test_tokens_may_flow_across_lines(self):
        a = parse_metric("3 1 3 2")
        b = parse_metric("3\n1\n3\n2")
        assert a.dist == b.dist

    def test_comments_and_blanks(self):
        text = "# header\n3\n\n1 3 # inline\n2\n"
        assert parse_metric(text).dist == line_space([0, 1, 3]).dist

    @pytest.mark.parametrize(
        "text",
        ["", "0", "x", "3\n1 3", "3\n1 3 2 9", "3\n1 3\n1.5", "-2"],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_metric(text)

    def test_axiom_failures_surface(self):
        with pytest.raises(NotAMetricError):
            parse_metric("3\n1 5\n1\n")

    def test_round_trip(self):
        space = family_metric("b", 5)
        again = parse_metric(serialize_metric(space))
        assert again.dist == space.dist

    @given(metric_spaces())
    def test_round_trip_random(self, space):
        assert parse_metric(serialize_metric(space)).dist == space.dist


FROZEN_DISTANCES = [
    ("a", 1, 2, F(2)),
    ("a", 1, 3, F(3)),
    ("a", 2, 3, F(9, 2)),
    ("a", 3, 4, F(20, 3)),
    ("b", 1, 2, F(3, 2)),
    ("b", 2, 4, F(7, 4)),
    ("b", 3, 4, F(23, 12)),
    ("c", 1, 2, F(3, 4)),
    ("c", 2, 4, F(11, 8)),
    ("d", 1, 2, F(3, 2)),
    ("d", 3, 9, F(10, 9)),
    ("e", 1, 2, F(2)),
    ("e", 2, 5, F(29, 20)),
]


class TestFamilies:
    @pytest.mark.parametrize("tag,k,m,value", FROZEN_DISTANCES)
    def test_frozen_distances(self, tag, k, m, value):
        assert family_distance(tag, k, m) == value
        assert family_distance(tag, m, k) == value

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            family_distance("z", 1, 2)
        with pytest.raises(ValueError):
            family_distance("a", 2, 2)
        with pytest.raises(ValueError):
            family_distance("a", 0, 2)
        with pytest.raises(ValueError):
            family_metric("a", 1)

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_truncations_are_metric_spaces(self, tag):
        # building the space runs the full axiom scan
        space = family_metric(tag, 32)
        assert space.n == 32
        assert space.labels[0] == "v1"
        assert space.labels[-1] == "v32"

    def test_matches_distance_function(self):
        space = family_metric("c", 6)
        for i in range(6):
            for j in range(i + 1, 6):
                assert space.d(i, j) == family_distance("c", i + 1, j + 1)


class TestExtremes:
    def test_family_b_four_points(self):
        # computed, not assumed: scan all six pairwise distances
        values = [
            family_distance("b", k, m)
            for k, m in itertools.combinations(range(1, 5), 2)
        ]
        assert min(values) == F(5, 4)
        assert max(values) == F(23, 12)
        assert extremes(family_metric("b", 4)) == (F(5, 4), F(23, 12))

    def test_smallest_comes_from_first_and_last(self):
        space = family_metric("b", 4)
        assert space.d(0, 3) == F(5, 4)
        assert space.d(2, 3) == F(23, 12)

    @given(metric_spaces())
    def test_oracle(self, space):
        values = [
            space.d(u, v)
            for u in range(space.n)
            for v in range(u + 1, space.n)
        ]
        assert extremes(space) == (min(values), max(values))

    @given(st.data())
    def test_oracle_on_coprime_denominators(self, data):
        n = data.draw(st.integers(2, 7))
        rows = [[F(0)] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            rows[i][j] = rows[j][i] = data.draw(over_a_prime(1, 2))
        space = FiniteMetricSpace.from_matrix(rows)
        values = [rows[i][j] for i, j in itertools.combinations(range(n), 2)]
        lo, hi = extremes(space)
        assert (lo, hi) == (min(values), max(values))
        assert type(lo) is F and type(hi) is F
