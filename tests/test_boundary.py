"""The exact data model at the API boundary.

Exact values, plain int indices, the shared sparse-vector algebra, the
one ``index value`` line reader and the size budgets.
"""

import random
from fractions import Fraction as F

import pytest

from tcspace import (
    EdgeVector,
    LinearProgram,
    LipFunction,
    Matching,
    PairSequence,
    ParseError,
    TransportationProblem,
    TransportPlan,
    all_edges,
    cycle_basis,
    dual_optimal,
    family_distance,
    family_metric,
    format_rational,
    lift_plan,
    min_cost_flow,
    min_weight_perfect_matching,
    parse_edge_vector,
    parse_problem,
    prescribed_prefix_weight,
    quadruple_inequality_check,
    quotient_norm,
    sign_pattern_isometry_check,
)
from tcspace import duality, metric, quotient
from tcspace.cli import run
from tcspace.duality import DUAL_POINT_LIMIT
from tcspace.metric import FAMILY_POINT_LIMIT
from tcspace.quotient import QUOTIENT_POINT_LIMIT
from tcspace.rationals import check_index
from tcspace.sampling import (
    random_line_space,
    random_metric_space,
    random_zero_sum_problem,
)

from helpers import line_space

LINE = line_space([0, 1, 3])
FAR_PAIRS = line_space([0, 1, 10, 11])
UNIT = TransportationProblem.from_values({0: F(1), 1: F(-1)})

VALUE_ENTRY_POINTS = {
    "LipFunction": lambda x: LipFunction((x, 0)),
    "TransportPlan move": lambda x: TransportPlan(((0, 1, x),), F(1)),
    "TransportPlan cost": lambda x: TransportPlan(((0, 1, F(1)),), x),
    "Matching weight": lambda x: Matching(((0, 1),), x),
    "sign sweep coefficient": lambda x: sign_pattern_isometry_check(
        FAR_PAIRS, PairSequence(((0, 1),)), [x]
    ),
    "TransportationProblem.scaled": lambda x: UNIT.scaled(x),
    "EdgeVector.scaled": lambda x: EdgeVector.from_values(3, {(0, 1): 1}).scaled(x),
    "format_rational": format_rational,
}


@pytest.mark.parametrize("entry", VALUE_ENTRY_POINTS.values(), ids=VALUE_ENTRY_POINTS)
@pytest.mark.parametrize("bad, kind", [(0.1, "float"), (True, "bool")])
def test_float_and_bool_values_are_refused(entry, bad, kind):
    with pytest.raises(ValueError, match=kind):
        entry(bad)


@pytest.mark.parametrize("entry", VALUE_ENTRY_POINTS.values(), ids=VALUE_ENTRY_POINTS)
def test_exact_values_are_accepted(entry):
    entry(F(1, 10))
    entry("1/10")


def test_orientation_signs_must_be_plain_ints():
    f = EdgeVector.from_values(3, {(0, 1): 1})
    for bad in (True, 1.0, F(1), 2):
        with pytest.raises(ValueError, match="orientation signs"):
            quotient_norm(LINE, f, orientation={(0, 1): bad})
    assert quotient_norm(LINE, f, orientation={(0, 1): -1})[0] == 1


class TestIndices:
    def test_pair_sequence_refuses_non_int_endpoints(self):
        with pytest.raises(ValueError, match="pair endpoint"):
            PairSequence(((0.9, True),))
        with pytest.raises(ValueError, match="pair endpoint"):
            PairSequence(((0, True),))
        with pytest.raises(ValueError, match="pair endpoint"):
            PairSequence(((-1, 2),))

    def test_matching_refuses_non_int_vertices(self):
        with pytest.raises(ValueError, match="vertex"):
            min_weight_perfect_matching(FAR_PAIRS, [0.5, 1.9])
        with pytest.raises(ValueError, match="vertex"):
            min_weight_perfect_matching(FAR_PAIRS, [False, 1])

    def test_matching_refuses_non_int_endpoints(self):
        for edge in ((False, True), (-1, 2), (0.5, 2), (0, F(2))):
            with pytest.raises(ValueError, match="matching endpoint"):
                Matching((edge,), 1)

    def test_plan_moves_refuse_non_int_endpoints(self):
        for bad in (True, 0.5, -1):
            with pytest.raises(ValueError, match="move endpoint"):
                TransportPlan(((bad, 2, F(1)),), F(1))
            with pytest.raises(ValueError, match="move endpoint"):
                TransportPlan(((2, bad, F(1)),), F(1))

    def test_plan_cost_checks_endpoints_against_the_space(self):
        plan = TransportPlan(((0, 3, F(1)),), F(11))
        assert plan.cost_in(FAR_PAIRS) == 11
        with pytest.raises(IndexError, match="move endpoint 3 out of range"):
            plan.cost_in(LINE)

    def test_family_indices_are_plain_ints(self):
        for k, m in ((True, 2), (2, True), (1.0, 2), (1, 2.5), (F(1), 2)):
            with pytest.raises(ValueError, match="family index must be"):
                family_distance("a", k, m)
        for k, m in ((0, 2), (2, 2)):
            with pytest.raises(ValueError, match="distinct and >= 1"):
                family_distance("a", k, m)

    def test_family_sizes_are_plain_ints(self):
        for bad in (2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match="point count must be"):
                family_metric("a", bad)
        for bad in (5.0, "5", None):
            with pytest.raises(ValueError, match="max_index must be"):
                quadruple_inequality_check("a", bad)
        # a bool is below both minimums, and the int messages are kept
        for n in (True, 1, -1):
            with pytest.raises(ValueError, match="family truncations need n >= 2"):
                family_metric("a", n)
            with pytest.raises(ValueError, match="needs max_index >= 4"):
                quadruple_inequality_check("a", n)

    def test_prefix_weight_checks_its_length_and_endpoints(self):
        pairs = PairSequence(((0, 1), (2, 3)))
        assert prescribed_prefix_weight(FAR_PAIRS, pairs, 0) == 0
        assert prescribed_prefix_weight(FAR_PAIRS, pairs, 2) == 2
        for bad in (-1, 3):
            with pytest.raises(IndexError, match="prefix length"):
                prescribed_prefix_weight(FAR_PAIRS, pairs, bad)
        with pytest.raises(ValueError, match="prefix length must be"):
            prescribed_prefix_weight(FAR_PAIRS, pairs, True)
        with pytest.raises(IndexError, match="pair endpoint 4 out of range"):
            prescribed_prefix_weight(FAR_PAIRS, PairSequence(((0, 4),)), 1)

    def test_space_accessors_check_indices(self):
        assert LINE.d(0, 2) == 3 and LINE.label(2) == "p2"
        with pytest.raises(IndexError):
            LINE.d(-1, 0)
        with pytest.raises(IndexError):
            LINE.label(3)
        with pytest.raises(ValueError):
            LINE.d(True, 2)

    def test_min_cost_flow_refuses_non_int_inputs(self):
        for arc in ((False, True), (0.0, 1), (0, 1.0), (-1, 1)):
            with pytest.raises(ValueError, match="arc endpoint"):
                min_cost_flow([1, -1], [(*arc, 1)])
        with pytest.raises(ValueError, match="out of node range"):
            min_cost_flow([1, -1], [(0, 2, 1)])
        for bad in (True, 1.0, F(1)):
            with pytest.raises(ValueError, match="supplies must be plain ints"):
                min_cost_flow([bad, -1], [(0, 1, 1)])
            with pytest.raises(ValueError, match="arc costs must be plain ints"):
                min_cost_flow([1, -1], [(0, 1, bad)])
        assert min_cost_flow([1, -1], [(0, 1, 1)]) == (1, [1])

    def test_point_counts_must_be_plain_ints(self):
        for bad in (True, 2.5, F(3), 0, -1):
            with pytest.raises(ValueError, match="point count must be an int >= 1"):
                EdgeVector(bad, ())
            with pytest.raises(ValueError, match="point count must be an int >= 1"):
                cycle_basis(bad)
            with pytest.raises(ValueError, match="point count must be an int >= 1"):
                all_edges(bad)
        assert EdgeVector(1, ()).is_zero and cycle_basis(3) and all_edges(2)

    @pytest.mark.parametrize(
        "index, error",
        [
            (True, ValueError),
            (1.0, ValueError),
            ("1", ValueError),
            (-1, IndexError),
            (2, IndexError),
        ],
    )
    def test_free_variables_are_checked_indices(self, index, error):
        with pytest.raises(error, match="free variable"):
            LinearProgram([F(1), F(1)], [], free=[index])

    def test_dual_refuses_a_bool_base(self):
        with pytest.raises(ValueError, match="base point"):
            dual_optimal(LINE, UNIT, base=True)

    def test_one_check_one_wording(self):
        assert check_index(2, 3) == 2
        assert check_index(7) == 7
        with pytest.raises(IndexError, match=r"^vertex 3 out of range for n=3$"):
            check_index(3, 3, "vertex")
        with pytest.raises(IndexError, match=r"^point index -1 out of range for n=3$"):
            check_index(-1, 3)
        with pytest.raises(ValueError, match="nonnegative int, got -1"):
            check_index(-1)
        for bad in (True, 1.0, F(1), "1"):
            with pytest.raises(ValueError, match="point index must be"):
                check_index(bad, 3)


# a non-int size is refused before any comparison is made with it
MOVE = TransportPlan(((0, 1, F(1)),), F(1))
SIZE_SLIPS = {
    "random_metric_space 2.0": lambda rng: random_metric_space(rng, 2.0),
    "random_metric_space '3'": lambda rng: random_metric_space(rng, "3"),
    "random_line_space 2.0": lambda rng: random_line_space(rng, 2.0),
    "random_zero_sum_problem 2.0": lambda rng: random_zero_sum_problem(
        rng, FAR_PAIRS, 2.0
    ),
    "lift_plan True": lambda rng: lift_plan(MOVE, True),
    "parse_edge_vector True": lambda rng: parse_edge_vector("0 1 1\n", True),
}


@pytest.mark.parametrize("call", SIZE_SLIPS.values(), ids=SIZE_SLIPS)
def test_non_int_sizes_are_refused(call):
    with pytest.raises(ValueError, match="(point count|max_support) must be"):
        call(random.Random(0))


def test_int_sizes_keep_their_messages():
    rng = random.Random(0)
    for n in (True, 1, -1):
        with pytest.raises(ValueError, match="need n >= 2"):
            random_metric_space(rng, n)
        with pytest.raises(ValueError, match="need n >= 2"):
            random_line_space(rng, n)
        with pytest.raises(ValueError, match="room for at least two"):
            random_zero_sum_problem(rng, FAR_PAIRS, n)
    with pytest.raises(IndexError, match="plan endpoint 1 out of range for n=1"):
        lift_plan(MOVE, 1)
    with pytest.raises(ParseError, match="index 1 out of range for n=1"):
        parse_edge_vector("0 1 1\n", 1)


class TestSparseVector:
    def test_results_keep_type_and_fields(self):
        f = EdgeVector.from_values(5, {(0, 4): 1})
        for g in (f.scaled(2), -f, f + f, f - f):
            assert type(g) is EdgeVector and g.n == 5
        for q in (UNIT.scaled(2), -UNIT, UNIT + UNIT, UNIT - UNIT):
            assert type(q) is TransportationProblem
        assert (f - f).is_zero and (UNIT - UNIT).is_zero

    def test_sums_need_the_same_space(self):
        with pytest.raises(ValueError, match="different point counts"):
            EdgeVector(2) + EdgeVector(3)
        with pytest.raises(ValueError, match="different point counts"):
            UNIT + EdgeVector(2)

    def test_repeated_keys_merge_before_sorting(self):
        f = TransportationProblem.from_values([(1, 1), (0, -1), (1, "2"), (0, F(-2))])
        assert f.entries == ((0, F(-3)), (1, F(3)))
        assert f.support == (0, 1)

    def test_value_lookup(self):
        values = {v: F(v + 1, 2) for v in range(0, 40, 3)}
        values[41] = -sum(values.values())
        f = TransportationProblem.from_values(values)
        for v in range(45):
            assert f.value(v) == values.get(v, 0)
        g = EdgeVector.from_values(4, {(0, 3): 2, (1, 2): -1})
        assert [g.value(i, j) for i, j in [(0, 1), (0, 3), (1, 2), (2, 3)]] == [0, 2, -1, 0]

    def test_value_lookup_checks_the_key(self):
        f = TransportationProblem.from_values({1: 2, 2: -2})
        for bad in (True, -1, 1.0):
            with pytest.raises(ValueError):
                f.value(bad)
        g = EdgeVector(3)
        for i, j in [(5, 7), (-1, 1), (2, 1), (True, 2)]:
            with pytest.raises(ValueError, match="bad edge"):
                g.value(i, j)


PARSE_ERRORS = [
    (parse_problem, "0", "line 1: expected 'index value'"),
    (parse_problem, "\n# note\nx 1", "line 3: bad point index 'x'"),
    (parse_problem, "0 1.5", "not a rational token: '1.5'"),
    (lambda t: parse_edge_vector(t, 3), "0 1", "line 1: expected 'i j value'"),
    (lambda t: parse_edge_vector(t, 3), "0 x 1", "line 1: bad edge indices '0' 'x'"),
    (lambda t: parse_edge_vector(t, 3), "1 0 1", "line 1: edge must satisfy i < j"),
    (lambda t: parse_edge_vector(t, 3), "0 3 1", "line 1: index 3 out of range for n=3"),
]


class TestLineReader:
    @pytest.mark.parametrize("parse, text, message", PARSE_ERRORS)
    def test_messages(self, parse, text, message):
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert str(caught.value) == message

    def test_duplicate_policies(self):
        assert parse_problem("0 1\n0 1\n1 -2\n").value(0) == 2
        assert parse_edge_vector("0 1 1\n0 1 1\n", 2).value(0, 1) == 2


def uniform_metric_text(n: int) -> str:
    """Every distance 1, in the plain metric format."""
    return f"{n}\n" + "".join(" ".join(["1"] * (n - 1 - u)) + "\n" for u in range(n - 1))


def refuse(*args, **kwargs):
    raise AssertionError("built past the size budget")


class TestBudgets:
    def test_quotient_norm(self, monkeypatch):
        space = metric.parse_metric(uniform_metric_text(QUOTIENT_POINT_LIMIT + 1))
        for name in ("cycle_basis", "LinearProgram", "simplex_solve"):
            monkeypatch.setattr(quotient, name, refuse)
        with pytest.raises(ValueError, match=f"limit {QUOTIENT_POINT_LIMIT}"):
            quotient_norm(space, EdgeVector(space.n))

    def test_dual_optimal(self, monkeypatch):
        space = metric.parse_metric(uniform_metric_text(DUAL_POINT_LIMIT + 1))
        for name in ("LinearProgram", "simplex_solve"):
            monkeypatch.setattr(duality, name, refuse)
        with pytest.raises(ValueError, match=f"limit {DUAL_POINT_LIMIT}"):
            dual_optimal(space, UNIT)

    def test_family_metric(self, monkeypatch):
        monkeypatch.setattr(metric, "family_distance", refuse)
        with pytest.raises(ValueError, match=f"limit {FAMILY_POINT_LIMIT}"):
            family_metric("a", FAMILY_POINT_LIMIT + 1)

    def test_limits_cover_the_sizes_in_use(self):
        # benchmark and script sizes: quotient n=14, dual n=24, quad-check 50 points
        assert QUOTIENT_POINT_LIMIT >= 14
        assert DUAL_POINT_LIMIT >= 24
        assert FAMILY_POINT_LIMIT >= 50
        assert family_metric("b", FAMILY_POINT_LIMIT).n == FAMILY_POINT_LIMIT

    def test_cli_quotient(self, tmp_path, monkeypatch, capsys):
        space = tmp_path / "big.metric"
        space.write_text(uniform_metric_text(QUOTIENT_POINT_LIMIT + 1))
        edges = tmp_path / "g.edges"
        edges.write_text("0 1 1\n")
        for name in ("cycle_basis", "LinearProgram", "simplex_solve"):
            monkeypatch.setattr(quotient, name, refuse)
        assert run(["quotient", str(space), str(edges)]) == 2
        assert f"limit {QUOTIENT_POINT_LIMIT}" in capsys.readouterr().err

    def test_cli_dual(self, tmp_path, monkeypatch, capsys):
        space = tmp_path / "big.metric"
        space.write_text(uniform_metric_text(DUAL_POINT_LIMIT + 1))
        problem = tmp_path / "f.problem"
        problem.write_text("0 1\n1 -1\n")
        for name in ("LinearProgram", "simplex_solve"):
            monkeypatch.setattr(duality, name, refuse)
        assert run(["dual", str(space), str(problem)]) == 2
        assert f"limit {DUAL_POINT_LIMIT}" in capsys.readouterr().err

    def test_cli_family(self, monkeypatch, capsys):
        monkeypatch.setattr(metric, "family_distance", refuse)
        assert run(["family", "--family", "a", "--n", "100000"]) == 2
        assert f"limit {FAMILY_POINT_LIMIT}" in capsys.readouterr().err
