"""Sign-pattern isometry checks and refutations on the benchmark families.

A pair sequence with positive coefficients spans an isometric copy of
l1 exactly when every signed combination of the normalized pair
differences attains the full triangle-inequality budget in the
transportation cost norm.  The checks here sweep all sign patterns
exactly, verify the strict quadruple inequality that powers the
families' refutations, and refute prescribed pair sequences through the
nested-matching criterion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .matching import Matching, NestedCheckResult, PairSequence, nested_matching_check
from .metric import FiniteMetricSpace, family_metric
from .rationals import check_index, exact_rational
from .transport import TransportationProblem, tc_norm

_ZERO = Fraction(0)

SIGN_SWEEP_PAIR_LIMIT = 12
# C(50, 4) = 230,300 quadruples
QUADRUPLE_INDEX_LIMIT = 50


@dataclass(frozen=True)
class SignPatternReport:
    """Outcome of the all-sign-patterns isometry sweep.

    On failure ``pattern`` is the first violating sign vector in
    lexicographic order (+1 before -1) and ``achieved`` the strictly
    smaller norm that was found; ``expected`` is always the coefficient
    total.  ``patterns_checked`` is the 1-based position of that pattern
    in the order, or ``2**k`` when the sweep passes.

    The sweep uses the sign symmetry tc(-f) = tc(f): a pattern and its
    negation have the same norm, and the negation of a pattern with
    ``eps[0] = +1`` comes later in the order.  So only the first half is
    computed, and the report equals that of the full sweep.
    """

    passed: bool
    patterns_checked: int
    expected: Fraction
    pattern: tuple[int, ...] | None = None
    achieved: Fraction | None = None


def sign_pattern_isometry_check(
    space: FiniteMetricSpace,
    pairs: PairSequence,
    coefficients: Sequence[Fraction] | None = None,
) -> SignPatternReport:
    """Do the normalized pair differences span l1 isometrically?

    For each sign vector the combination of pair differences (each
    scaled to norm one, then by its positive coefficient) must have
    transportation cost equal to the coefficient total; any strict drop
    refutes the isometry and is reported.
    """
    k = len(pairs)
    if k == 0:
        raise ValueError("need at least one pair")
    if k > SIGN_SWEEP_PAIR_LIMIT:
        raise ValueError(f"too many pairs for the sign sweep (limit {SIGN_SWEEP_PAIR_LIMIT})")
    pairs.check_in(space)
    if coefficients is None:
        coeffs = tuple(Fraction(1) for _ in range(k))
    else:
        coeffs = tuple(map(exact_rational, coefficients))
        if len(coeffs) != k:
            raise ValueError("coefficient count must match pair count")
        if any(a <= 0 for a in coeffs):
            raise ValueError("coefficients must be strictly positive")
    # the entries of each normalized pair difference, for sign +1 and -1
    signed = []
    for a, (x, y) in zip(coeffs, pairs.pairs):
        m = a / space.dist[x][y]
        signed.append({1: ((x, m), (y, -m)), -1: ((x, -m), (y, m))})
    expected = sum(coeffs, _ZERO)
    # eps[0] = +1 only: -eps has the same norm and comes later (see
    # SignPatternReport)
    for checked, rest in enumerate(itertools.product((1, -1), repeat=k - 1), 1):
        eps = (1, *rest)
        entries = tuple(e for s, pair in zip(eps, signed) for e in pair[s])
        norm, _ = tc_norm(space, TransportationProblem(entries))
        if norm != expected:
            return SignPatternReport(False, checked, expected, eps, norm)
    return SignPatternReport(True, 2**k, expected)


@dataclass(frozen=True)
class QuadrupleReport:
    """Outcome of the strict quadruple-inequality sweep over a family."""

    passed: bool
    family: str
    max_index: int
    quadruples_checked: int
    violations: tuple[tuple[int, int, int, int], ...] = ()


def quadruple_inequality_check(family_tag: str, max_index: int) -> QuadrupleReport:
    """Check d(q1,q3) + d(q2,q4) < d(q1,q2) + d(q3,q4), strictly, everywhere.

    Quadruples q1 < q2 < q3 < q4 range over the 1-based family indices
    up to ``max_index``; any non-strict case is collected as a violation.
    The sums compare the family space's integer matrix ``int_dist``.
    ``max_index`` is capped at ``QUADRUPLE_INDEX_LIMIT``.
    """
    # a bool is an int below the minimum, so the range check refuses it
    if not isinstance(max_index, int):
        check_index(max_index, None, "max_index")
    if max_index < 4:
        raise ValueError("quadruple sweep needs max_index >= 4")
    if max_index > QUADRUPLE_INDEX_LIMIT:
        raise ValueError(
            "max_index too large for the quadruple sweep "
            f"(limit {QUADRUPLE_INDEX_LIMIT})"
        )
    d = family_metric(family_tag, max_index).int_dist
    violations = []
    count = 0
    for q1, q2, q3, q4 in itertools.combinations(range(1, max_index + 1), 4):
        count += 1
        lhs = d[q1 - 1][q3 - 1] + d[q2 - 1][q4 - 1]
        rhs = d[q1 - 1][q2 - 1] + d[q3 - 1][q4 - 1]
        if not lhs < rhs:
            violations.append((q1, q2, q3, q4))
    return QuadrupleReport(
        not violations, family_tag, max_index, count, tuple(violations)
    )


@dataclass(frozen=True)
class RefutationResult:
    """Nested-matching verdict on a prescribed family pair sequence.

    ``refuted`` means some prefix of the sequence is beaten strictly by
    another matching (carried as ``witness``, 0-based indices into the
    truncated family space).  Otherwise the finite check is inconclusive
    at the examined ``depth``.
    """

    refuted: bool
    family: str
    depth: int
    prescribed_weight: Fraction | None = None
    witness: Matching | None = None


def refute_pair_sequence(family_tag: str, pairs: PairSequence) -> RefutationResult:
    """Run the nested-matching check on a pair sequence of family points.

    Pair entries are the 1-based family indices v1, v2, ...; the check
    runs on the family truncated at the largest index used.  A sequence
    can be refuted (FAIL at some prefix) but never validated: passing
    all prefixes only says the finite evidence is inconclusive.
    """
    if not pairs.pairs:
        raise ValueError("need at least one pair")
    low = min(p for pair in pairs.pairs for p in pair)
    if low < 1:
        raise ValueError("family indices are 1-based")
    top = max(p for pair in pairs.pairs for p in pair)
    space = family_metric(family_tag, max(top, 2))
    shifted = PairSequence(tuple((x - 1, y - 1) for x, y in pairs.pairs))
    res: NestedCheckResult = nested_matching_check(space, shifted)
    if res.passed:
        return RefutationResult(False, family_tag, res.depth)
    return RefutationResult(
        True, family_tag, res.depth, res.prescribed_weight, res.witness
    )
