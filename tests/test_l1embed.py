"""Sign-pattern isometry sweeps, quadruple inequalities, refutations."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcspace import (
    FAMILY_TAGS,
    PairSequence,
    TransportationProblem,
    nested_matching_check,
    quadruple_inequality_check,
    refute_pair_sequence,
    sign_pattern_isometry_check,
    tc_norm,
)
from tcspace import family_distance, family_metric, l1embed
from tcspace.l1embed import (
    QUADRUPLE_INDEX_LIMIT,
    SIGN_SWEEP_PAIR_LIMIT,
    SignPatternReport,
)

from helpers import clustered_pair_sequence, line_space, metric_spaces

FAR_PAIRS = line_space([0, 1, 10, 11])
TWO_PAIRS = PairSequence(((0, 1), (2, 3)))


def full_sweep(space, pairs, coefficients=None) -> SignPatternReport:
    """Reference sweep over all 2**k patterns, lexicographic with +1 first."""
    k = len(pairs)
    coeffs = [F(1)] * k if coefficients is None else [F(a) for a in coefficients]
    masses = [a / space.d(x, y) for a, (x, y) in zip(coeffs, pairs.pairs)]
    expected = sum(coeffs, F(0))
    for checked, eps in enumerate(itertools.product((1, -1), repeat=k), 1):
        values = {}
        for (x, y), s, m in zip(pairs.pairs, eps, masses):
            values[x] = values.get(x, F(0)) + s * m
            values[y] = values.get(y, F(0)) - s * m
        norm, _ = tc_norm(space, TransportationProblem.from_values(values))
        if norm != expected:
            return SignPatternReport(False, checked, expected, eps, norm)
    return SignPatternReport(True, 2**k, expected)


class TestSignSweep:
    def test_separated_line_pairs_pass(self):
        report = sign_pattern_isometry_check(FAR_PAIRS, TWO_PAIRS)
        assert report.passed
        assert report.patterns_checked == 4
        assert report.expected == F(2)
        assert report.pattern is None
        assert report.achieved is None

    def test_custom_coefficients(self):
        report = sign_pattern_isometry_check(FAR_PAIRS, TWO_PAIRS, [F(2), F(3)])
        assert report.passed
        assert report.expected == F(5)

    def test_family_a_drops_below_the_target(self):
        space = family_metric("a", 4)
        report = sign_pattern_isometry_check(space, TWO_PAIRS)
        assert not report.passed
        assert report.pattern == (1, 1)
        assert report.patterns_checked == 1
        assert report.expected == F(2)
        assert report.achieved == F(79, 40)

    def test_single_pair_always_passes(self):
        space = family_metric("c", 5)
        report = sign_pattern_isometry_check(space, PairSequence(((1, 4),)))
        assert report.passed
        assert report.patterns_checked == 2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sign_pattern_isometry_check(FAR_PAIRS, PairSequence(()))
        with pytest.raises(IndexError):
            sign_pattern_isometry_check(FAR_PAIRS, PairSequence(((0, 9),)))
        with pytest.raises(ValueError):
            sign_pattern_isometry_check(FAR_PAIRS, TWO_PAIRS, [F(1)])
        with pytest.raises(ValueError):
            sign_pattern_isometry_check(FAR_PAIRS, TWO_PAIRS, [F(1), F(0)])
        many = line_space(range(2 * SIGN_SWEEP_PAIR_LIMIT + 2))
        pairs = PairSequence(
            tuple((2 * i, 2 * i + 1) for i in range(SIGN_SWEEP_PAIR_LIMIT + 1))
        )
        with pytest.raises(ValueError, match="too many pairs"):
            sign_pattern_isometry_check(many, pairs)

    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_verified_sequences_embed_isometrically(self, seed, count):
        # the sufficiency direction: prefix-minimal pairings span a cube
        rng = random.Random(seed)
        space, pairs = clustered_pair_sequence(rng, count)
        coeffs = [F(rng.randrange(1, 7), rng.randrange(1, 4)) for _ in range(count)]
        report = sign_pattern_isometry_check(space, pairs, coeffs)
        assert report.passed
        assert report.patterns_checked == 2**count
        assert report.expected == sum(coeffs, F(0))
        assert report == full_sweep(space, pairs, coeffs)


class TestHalvedSweepMatchesFullSweep:
    """Only patterns with eps[0] = +1 are computed; the report must not tell."""

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    @pytest.mark.parametrize(
        "pairs",
        [
            ((0, 1), (2, 3)),
            ((0, 1), (2, 3), (4, 5)),
            ((0, 2), (1, 3)),
            ((0, 5), (1, 4), (2, 3)),
        ],
    )
    def test_families(self, tag, pairs):
        space = family_metric(tag, 6)
        pairs = PairSequence(pairs)
        assert sign_pattern_isometry_check(space, pairs) == full_sweep(space, pairs)

    def test_failure_past_the_first_pattern(self):
        space = line_space([1, 3, 4, 6, 7, 8])
        pairs = PairSequence(((2, 4), (3, 5), (0, 1)))
        report = sign_pattern_isometry_check(space, pairs)
        assert report == full_sweep(space, pairs)
        assert report.patterns_checked == 3
        assert report.pattern == (1, -1, 1)
        assert report.achieved == F(7, 3)

    @given(st.data())
    def test_random_spaces(self, data):
        # families fail at the first pattern; line and band spaces also
        # fail later in the order
        kind = data.draw(st.sampled_from(["family", "band", "line"]))
        if kind == "family":
            tag = data.draw(st.sampled_from(FAMILY_TAGS))
            space = family_metric(tag, data.draw(st.integers(4, 8)))
        elif kind == "band":
            space = data.draw(metric_spaces(4, 8))
        else:
            coords = st.lists(st.integers(0, 30), min_size=4, max_size=8, unique=True)
            space = line_space(data.draw(coords))
        order = data.draw(st.permutations(range(space.n)))
        count = data.draw(st.integers(2, space.n // 2))
        pairs = PairSequence(
            tuple(tuple(sorted(order[2 * i : 2 * i + 2])) for i in range(count))
        )
        coeffs = data.draw(
            st.none()
            | st.lists(
                st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
                min_size=count,
                max_size=count,
            )
        )
        expected = full_sweep(space, pairs, coeffs)
        assert sign_pattern_isometry_check(space, pairs, coeffs) == expected


def _all_plus_failure_implies_cheaper_matching(space, pairs) -> bool:
    """Check the contrapositive link; True when the premise actually fired."""
    report = sign_pattern_isometry_check(space, pairs)
    if report.passed or report.pattern != (1,) * len(pairs):
        return False
    nested = nested_matching_check(space, pairs)
    assert not nested.passed
    assert nested.witness.weight < nested.prescribed_weight
    return True


class TestMatchingLink:
    def test_family_a_failure_has_a_cheaper_matching(self):
        space = family_metric("a", 4)
        assert _all_plus_failure_implies_cheaper_matching(space, TWO_PAIRS)

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_families_with_consecutive_pairs(self, tag):
        space = family_metric(tag, 6)
        pairs = PairSequence(((0, 1), (2, 3), (4, 5)))
        _all_plus_failure_implies_cheaper_matching(space, pairs)

    @given(st.data())
    def test_random_instances(self, data):
        space = data.draw(metric_spaces(4, 8))
        count = data.draw(st.integers(2, space.n // 2))
        order = data.draw(st.permutations(range(space.n)))
        pairs = PairSequence(
            tuple(tuple(sorted(order[2 * i : 2 * i + 2])) for i in range(count))
        )
        _all_plus_failure_implies_cheaper_matching(space, pairs)


class TestQuadrupleSweep:
    def test_family_a_smallest_case(self):
        report = quadruple_inequality_check("a", 4)
        assert report.passed
        assert report.quadruples_checked == 1
        assert report.violations == ()
        lhs = family_distance("a", 1, 3) + family_distance("a", 2, 4)
        rhs = family_distance("a", 1, 2) + family_distance("a", 3, 4)
        assert lhs == F(17, 2)
        assert rhs == F(26, 3)
        assert lhs < rhs

    @pytest.mark.parametrize("tag", ["a", "b", "c", "d", "e"])
    def test_all_families_to_twelve(self, tag):
        report = quadruple_inequality_check(tag, 12)
        assert report.passed
        assert report.quadruples_checked == 495

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            quadruple_inequality_check("a", 3)

    def test_size_budget_fails_before_any_work(self, monkeypatch):
        assert QUADRUPLE_INDEX_LIMIT >= 40

        def refuse(*args):
            raise AssertionError("family space built past the size budget")

        monkeypatch.setattr(l1embed, "family_metric", refuse)
        with pytest.raises(ValueError, match=f"limit {QUADRUPLE_INDEX_LIMIT}"):
            quadruple_inequality_check("a", QUADRUPLE_INDEX_LIMIT + 1)


class TestRefutation:
    def test_family_a_two_pairs(self):
        result = refute_pair_sequence("a", PairSequence(((1, 2), (3, 4))))
        assert result.refuted
        assert result.family == "a"
        assert result.depth == 2
        assert result.prescribed_weight == F(26, 3)
        assert result.witness.weight == F(17, 2)
        assert result.witness.edges == ((0, 2), (1, 3))

    def test_family_e_consecutive_pairs(self):
        result = refute_pair_sequence("e", PairSequence(((1, 2), (3, 4))))
        assert result.refuted
        assert result.prescribed_weight == F(41, 12)
        assert result.witness.weight == F(10, 3)

    def test_family_e_crossed_pairs_tie_is_inconclusive(self):
        # both rematchings weigh exactly the prescribed 10/3: a tie, not
        # a refutation
        result = refute_pair_sequence("e", PairSequence(((1, 3), (2, 4))))
        assert not result.refuted
        assert result.depth == 2
        assert result.prescribed_weight is None
        assert result.witness is None

    def test_single_pair_inconclusive(self):
        result = refute_pair_sequence("d", PairSequence(((1, 2),)))
        assert not result.refuted
        assert result.depth == 1

    def test_indices_are_one_based(self):
        with pytest.raises(ValueError):
            refute_pair_sequence("a", PairSequence(((0, 1),)))
        with pytest.raises(ValueError):
            refute_pair_sequence("a", PairSequence(()))

    def test_witness_edges_name_truncation_points(self):
        result = refute_pair_sequence("a", PairSequence(((1, 2), (3, 4))))
        top = max(p for pair in result.witness.edges for p in pair)
        assert top == 3
