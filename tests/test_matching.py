"""Minimum-weight matchings and the prefix minimality check."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcspace import (
    FAMILY_TAGS,
    Matching,
    PairSequence,
    family_metric,
    matching_brute_force,
    min_weight_perfect_matching,
    nested_matching_check,
    prescribed_prefix_weight,
)
from tcspace import matching
from tcspace.matching import BRUTE_FORCE_VERTEX_LIMIT, DP_VERTEX_LIMIT
from tcspace.metric import FiniteMetricSpace
from tcspace.sampling import random_line_space, random_metric_space

from helpers import (
    clustered_pair_sequence,
    line_space,
    matching_dp,
    metric_spaces,
    over_a_prime,
    reference_matching,
    reference_nested_check,
)

FAR_PAIRS = line_space([0, 1, 10, 11])


def uniform_space(n):
    rows = [[F(0 if i == j else 1) for j in range(n)] for i in range(n)]
    return FiniteMetricSpace.from_matrix(rows)


def draw_space(draw, n, kind):
    """A tie-heavy, coprime-denominator, line or family space on n points."""
    if kind in FAMILY_TAGS:
        return family_metric(kind, n)
    if kind == "line":
        side = st.fractions(min_value=-20, max_value=20, max_denominator=3)
        return line_space(draw(st.lists(side, min_size=n, max_size=n, unique=True)))
    if kind == "ties":
        values = (F(1), F(3, 2), F(2))
    else:
        values = draw(st.lists(over_a_prime(1, 2), min_size=1, max_size=3))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.sampled_from(values))
    return FiniteMetricSpace.from_matrix(rows)


@st.composite
def matching_inputs(draw):
    """Any space kind with 2..DP_VERTEX_LIMIT of its points, shuffled."""
    kind = draw(st.sampled_from(("ties", "coprime", "line") + FAMILY_TAGS))
    size = 2 * draw(st.integers(1, DP_VERTEX_LIMIT // 2))
    n = draw(st.integers(size, DP_VERTEX_LIMIT + 2))
    space = draw_space(draw, n, kind)
    return space, draw(st.permutations(range(n)))[:size]


@st.composite
def prefix_check_inputs(draw):
    """A tie-heavy, coprime-denominator or line space with a pair sequence.

    Half the sequences are random pairings; the other half are the
    optimum matching of random points in a random pair order and
    orientation, so the longest prefix passes and shorter ones may not.
    """
    n = draw(st.integers(4, 14))
    kind = draw(st.sampled_from(("ties", "coprime", "line")))
    space = draw_space(draw, n, kind)
    k = draw(st.integers(2, n // 2))
    points = draw(st.permutations(range(n)))[: 2 * k]
    if draw(st.booleans()):
        edges = min_weight_perfect_matching(space, points).edges
        pairs = draw(st.permutations(edges))
        flips = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        pairs = [(y, x) if flip else (x, y) for (x, y), flip in zip(pairs, flips)]
    else:
        pairs = list(zip(points[::2], points[1::2]))
    return space, PairSequence(tuple(pairs))


class TestDataTypes:
    def test_pair_sequence_distinct_endpoints(self):
        with pytest.raises(ValueError):
            PairSequence(((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            PairSequence(((3, 3),))
        assert len(PairSequence(((0, 1), (4, 2)))) == 2

    def test_matching_shape(self):
        with pytest.raises(ValueError):
            Matching(((1, 0),), F(1))
        with pytest.raises(ValueError):
            Matching(((0, 1), (1, 2)), F(2))


class TestMinimumMatching:
    def test_two_close_pairs(self):
        result = min_weight_perfect_matching(FAR_PAIRS, [0, 1, 2, 3])
        assert result.weight == F(2)
        assert result.edges == ((0, 1), (2, 3))

    def test_tie_resolved_lexicographically(self):
        # both cross pairings weigh 17/2; the prescribed one weighs 26/3
        space = family_metric("a", 4)
        result = min_weight_perfect_matching(space, [0, 1, 2, 3])
        assert result.weight == F(17, 2)
        assert result.edges == ((0, 2), (1, 3))

    def test_vertex_order_is_irrelevant(self):
        a = min_weight_perfect_matching(FAR_PAIRS, [3, 0, 2, 1])
        b = min_weight_perfect_matching(FAR_PAIRS, [0, 1, 2, 3])
        assert a == b

    def test_input_validation(self):
        with pytest.raises(ValueError):
            min_weight_perfect_matching(FAR_PAIRS, [0, 1, 2])
        with pytest.raises(ValueError):
            min_weight_perfect_matching(FAR_PAIRS, [])
        with pytest.raises(ValueError):
            min_weight_perfect_matching(FAR_PAIRS, [0, 0])
        with pytest.raises(IndexError):
            min_weight_perfect_matching(FAR_PAIRS, [0, 9])

    def test_size_caps(self):
        big = line_space(range(DP_VERTEX_LIMIT + 2))
        with pytest.raises(ValueError, match="too large"):
            min_weight_perfect_matching(big, range(DP_VERTEX_LIMIT + 2))
        mid = line_space(range(BRUTE_FORCE_VERTEX_LIMIT + 2))
        with pytest.raises(ValueError, match="too large"):
            matching_brute_force(mid, range(BRUTE_FORCE_VERTEX_LIMIT + 2))

    @given(st.data())
    def test_agrees_with_enumeration(self, data):
        space = data.draw(metric_spaces(4, 8))
        size = data.draw(st.sampled_from([2, 4, 6]))
        vertices = data.draw(
            st.permutations(list(range(space.n))).map(lambda p: p[:size])
        )
        dp = min_weight_perfect_matching(space, vertices)
        bf = matching_brute_force(space, vertices)
        assert dp.weight == bf.weight
        assert dp.edges == bf.edges

    @given(st.data())
    def test_coprime_ties_agree_with_enumeration(self, data):
        # a few distinct values in [1, 2] over coprime primes: triangles hold,
        # the common scale is a product of primes and weights tie often
        values = data.draw(st.lists(over_a_prime(1, 2), min_size=1, max_size=3))
        n = data.draw(st.integers(2, BRUTE_FORCE_VERTEX_LIMIT))
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = data.draw(st.sampled_from(values))
        space = FiniteMetricSpace.from_matrix(rows)
        size = data.draw(st.sampled_from(range(2, n + 1, 2)))
        vertices = data.draw(st.permutations(range(n)).map(lambda p: p[:size]))
        dp = min_weight_perfect_matching(space, vertices)
        bf = matching_brute_force(space, vertices)
        assert dp.weight == bf.weight
        assert type(dp.weight) is F
        assert dp.edges == bf.edges

    @given(matching_inputs())
    def test_agrees_with_the_subset_dp(self, inputs):
        space, vertices = inputs
        assert min_weight_perfect_matching(space, vertices) == reference_matching(
            space, vertices
        )

    def test_uniform_metric_pairs_neighbours(self):
        for n in range(2, DP_VERTEX_LIMIT + 1, 2):
            result = min_weight_perfect_matching(uniform_space(n), range(n))
            assert result.edges == tuple((i, i + 1) for i in range(0, n, 2))
            assert result.weight == n // 2

    def test_tied_four_cycle_takes_the_smaller_edge_list(self):
        # the cycle 0-2-1-3-0 with unit sides: {02, 13} and {03, 12}
        # both weigh 2, the diagonals {01, 23} weigh 4
        rows = [[0, 2, 1, 1], [2, 0, 1, 1], [1, 1, 0, 2], [1, 1, 2, 0]]
        space = FiniteMetricSpace.from_matrix([[F(x) for x in r] for r in rows])
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]):
            result = min_weight_perfect_matching(space, order)
            assert result == Matching(((0, 2), (1, 3)), F(2))

    @given(st.integers(0, 10**6), st.integers(1, DP_VERTEX_LIMIT // 2))
    def test_kernel_total_is_the_dp_optimum(self, seed, half):
        # any symmetric int matrix, negative and tied entries included
        rng = random.Random(seed)
        m = 2 * half
        w = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                w[i][j] = w[j][i] = rng.randrange(-3, 4) * rng.choice((1, 10**20))
        mate, total = matching._blossom(w)
        assert sorted(mate) == list(range(m))
        assert all(mate[mate[i]] == i != mate[i] for i in range(m))
        assert total == sum(w[i][mate[i]] for i in range(m) if i < mate[i])
        _, best, _ = matching_dp(w, list(range(m)))
        assert total == best((1 << m) - 1)

    def test_weight_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(11)
        for size in (2, 8, 14, 20):
            for space in (random_metric_space(rng, 20), random_line_space(rng, 20)):
                vertices = rng.sample(range(20), size)
                graph = nx.Graph()
                for i, u in enumerate(vertices):
                    for v in vertices[i + 1 :]:
                        graph.add_edge(u, v, weight=space.int_dist[u][v])
                expected = sum(space.int_dist[u][v] for u, v in nx.min_weight_matching(graph))
                result = min_weight_perfect_matching(space, vertices)
                assert result.weight == F(expected, space.scale)


class TestNestedCheck:
    def test_passes_on_separated_pairs(self):
        result = nested_matching_check(FAR_PAIRS, PairSequence(((0, 1), (2, 3))))
        assert result.passed
        assert result.depth == 2
        assert result.prescribed_weight is None
        assert result.witness is None

    def test_fails_with_lighter_witness(self):
        space = family_metric("a", 4)
        result = nested_matching_check(space, PairSequence(((0, 1), (2, 3))))
        assert not result.passed
        assert result.depth == 2
        assert result.prescribed_weight == F(26, 3)
        assert result.witness.weight == F(17, 2)
        assert result.witness.edges == ((0, 2), (1, 3))

    def test_tie_counts_as_pass(self):
        space = uniform_space(6)
        result = nested_matching_check(space, PairSequence(((0, 5), (1, 4), (2, 3))))
        assert result.passed
        assert result.depth == 3

    def test_prefix_weights(self):
        pairs = PairSequence(((0, 1), (2, 3)))
        assert prescribed_prefix_weight(FAR_PAIRS, pairs, 1) == F(1)
        assert prescribed_prefix_weight(FAR_PAIRS, pairs, 2) == F(2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            nested_matching_check(FAR_PAIRS, PairSequence(()))
        with pytest.raises(IndexError):
            nested_matching_check(FAR_PAIRS, PairSequence(((0, 9),)))
        big = line_space(range(DP_VERTEX_LIMIT + 2))
        too_long = PairSequence(
            tuple((2 * i, 2 * i + 1) for i in range(DP_VERTEX_LIMIT // 2 + 1))
        )
        with pytest.raises(ValueError, match="too long"):
            nested_matching_check(big, too_long)

    @given(st.integers(0, 10**6), st.integers(1, 5))
    def test_separated_clusters_always_pass(self, seed, count):
        space, pairs = clustered_pair_sequence(random.Random(seed), count)
        result = nested_matching_check(space, pairs)
        assert result.passed
        assert result.depth == count

    @given(prefix_check_inputs())
    def test_shared_memo_agrees_with_one_dp_per_prefix(self, inputs):
        space, pairs = inputs
        assert nested_matching_check(space, pairs) == reference_nested_check(
            space, pairs
        )

    def test_witness_matcher_runs_only_on_failure(self, monkeypatch):
        calls = []
        original = matching.min_weight_perfect_matching

        def counting(space, vertices):
            calls.append(sorted(vertices))
            return original(space, vertices)

        monkeypatch.setattr(matching, "min_weight_perfect_matching", counting)
        space, pairs = clustered_pair_sequence(random.Random(3), 10)
        assert nested_matching_check(space, pairs).passed
        assert calls == []
        # family a fails at prefix 2; the longer prefixes are never examined
        a10 = family_metric("a", 10)
        long = PairSequence(tuple((2 * i, 2 * i + 1) for i in range(5)))
        result = nested_matching_check(a10, long)
        assert (result.passed, result.depth) == (False, 2)
        assert calls == [[0, 1, 2, 3]]

    @given(st.data())
    def test_failure_witness_is_strictly_lighter(self, data):
        space = data.draw(metric_spaces(4, 8))
        k = space.n // 2
        flat = data.draw(st.permutations(list(range(space.n))))[: 2 * k]
        pairs = PairSequence(tuple(zip(flat[::2], flat[1::2])))
        result = nested_matching_check(space, pairs)
        if result.passed:
            assert result.depth == k
            # every prefix really is minimal
            for upto in range(1, k + 1):
                span = [p for pair in pairs.pairs[:upto] for p in pair]
                optimum = min_weight_perfect_matching(space, span)
                assert optimum.weight == prescribed_prefix_weight(space, pairs, upto)
        else:
            prescribed = prescribed_prefix_weight(space, pairs, result.depth)
            assert result.prescribed_weight == prescribed
            assert result.witness.weight < prescribed
            # the witness matches exactly the vertices of the failing prefix
            span = sorted(p for pair in pairs.pairs[: result.depth] for p in pair)
            used = sorted(p for edge in result.witness.edges for p in edge)
            assert used == span
            # all shorter prefixes were minimal
            if result.depth > 1:
                shorter = PairSequence(pairs.pairs[: result.depth - 1])
                assert nested_matching_check(space, shorter).passed

    def test_twenty_vertices_against_the_dp_reference(self):
        rng = random.Random(7)
        line = random_line_space(rng, 20)
        ten = tuple((2 * i, 2 * i + 1) for i in range(10))
        cases = [
            clustered_pair_sequence(rng, 10),
            (line, PairSequence(ten)),
            (line, PairSequence(ten[::-1])),
            (line, PairSequence(ten[:8] + ((16, 18), (17, 19)))),
            (line, PairSequence(ten[:4] + ((8, 10), (9, 11)) + ten[6:])),
            (family_metric("b", 20), PairSequence(ten)),
        ]
        verdicts = []
        for space, pairs in cases:
            result = nested_matching_check(space, pairs)
            assert result == reference_nested_check(space, pairs)
            verdicts.append((result.passed, result.depth))
        assert verdicts == [
            (True, 10), (True, 10), (True, 10), (False, 10), (False, 6), (False, 2)
        ]
