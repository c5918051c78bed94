"""End-to-end checks of the command line surface."""

import json
import random

import pytest

from tcspace import (
    EdgeVector,
    duality,
    format_edge_vector,
    format_problem,
    l1embed,
    parse_rational,
    serialize_metric,
)
from tcspace.cli import run
from tcspace.sampling import (
    random_line_space,
    random_metric_space,
    random_zero_sum_problem,
)
from tcspace.solvers import UnboundedError

LINE_METRIC = "3\n1 3\n2\n"
LINE_PROBLEM = "0 2\n1 -1\n2 -1\n"
FAR_METRIC = "4\n1 10 11\n9 10\n1\n"


@pytest.fixture
def files(tmp_path):
    metric = tmp_path / "line.metric"
    metric.write_text(LINE_METRIC)
    problem = tmp_path / "f.problem"
    problem.write_text(LINE_PROBLEM)
    edges = tmp_path / "g.edges"
    edges.write_text("0 1 -1\n0 2 -1\n")
    far = tmp_path / "far.metric"
    far.write_text(FAR_METRIC)
    return tmp_path


def out_lines(capsys):
    return capsys.readouterr().out.splitlines()


class TestValidate:
    def test_ok(self, files, capsys):
        assert run(["validate", str(files / "line.metric")]) == 0
        assert out_lines(capsys) == ["OK n=3", "delta 1", "diameter 3"]

    def test_metric_failure_is_an_input_error(self, files, capsys):
        bad = files / "bad.metric"
        bad.write_text("3\n1 5\n1\n")
        assert run(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "triangle" in err

    def test_missing_file(self, capsys):
        assert run(["validate", "/does/not/exist"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestNorms:
    def test_tcnorm_with_plan(self, files, capsys):
        code = run(["tcnorm", str(files / "line.metric"), str(files / "f.problem")])
        assert code == 0
        assert out_lines(capsys) == [
            "norm 4",
            "move 0 -> 1 amount 1",
            "move 0 -> 2 amount 1",
        ]

    def test_tcnorm_json(self, files, capsys):
        run(["tcnorm", str(files / "line.metric"), str(files / "f.problem"), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["norm"] == "4"
        assert payload["plan"] == [
            {"source": 0, "sink": 1, "amount": "1"},
            {"source": 0, "sink": 2, "amount": "1"},
        ]

    def test_l1norm(self, files, capsys):
        assert run(["l1norm", str(files / "f.problem")]) == 0
        assert out_lines(capsys) == ["l1 4"]

    def test_unbalanced_problem(self, files, capsys):
        bad = files / "bad.problem"
        bad.write_text("0 1\n")
        assert run(["l1norm", str(bad)]) == 2
        assert "sum to zero" in capsys.readouterr().err

    def test_quotient(self, files, capsys):
        code = run(["quotient", str(files / "line.metric"), str(files / "g.edges")])
        assert code == 0
        lines = out_lines(capsys)
        assert lines[0] == "norm 4"

    def test_dual(self, files, capsys):
        code = run(["dual", str(files / "line.metric"), str(files / "f.problem")])
        assert code == 0
        assert out_lines(capsys) == ["value 4", "h 0 0", "h 1 -1", "h 2 -3"]

    def test_dual_base(self, files, capsys):
        code = run(
            ["dual", str(files / "line.metric"), str(files / "f.problem"), "--base", "2"]
        )
        assert code == 0
        lines = out_lines(capsys)
        assert lines[0] == "value 4"
        assert lines[3] == "h 2 0"

    def test_solver_failure_is_not_an_input_error(self, files, monkeypatch):
        # the dual LP of a validated input is bounded, so a raise is a bug
        def broken(lp):
            raise UnboundedError("objective unbounded below")

        monkeypatch.setattr(duality, "simplex_solve", broken)
        with pytest.raises(UnboundedError):
            run(["dual", str(files / "line.metric"), str(files / "f.problem")])


class TestMatchingVerbs:
    def test_matching(self, files, capsys):
        code = run(["matching", str(files / "far.metric"), "--vertices", "0,1,2,3"])
        assert code == 0
        assert out_lines(capsys) == ["weight 2", "edge 0 1", "edge 2 3"]

    def test_nested_pass(self, files, capsys):
        code = run(["nested-check", str(files / "far.metric"), "--pairs", "0:1,2:3"])
        assert code == 0
        assert out_lines(capsys) == ["PASS 2 prefixes"]

    def test_nested_fail(self, tmp_path, capsys):
        metric = tmp_path / "a4.metric"
        assert run(["family", "--family", "a", "--n", "4", "--out", str(metric)]) == 0
        code = run(["nested-check", str(metric), "--pairs", "0:1,2:3"])
        assert code == 1
        lines = out_lines(capsys)
        assert lines[0] == "FAIL at n=2"
        assert "prescribed weight 26/3" in lines[1]
        assert "witness weight 17/2" in lines[2]

    def test_bad_pairs_argument(self, files, capsys):
        assert run(["nested-check", str(files / "far.metric"), "--pairs", "0-1"]) == 2
        assert run(["nested-check", str(files / "far.metric"), "--pairs", "0:0"]) == 2
        assert run(["matching", str(files / "far.metric"), "--vertices", "a,b"]) == 2


class TestEmbeddingVerbs:
    def test_l1check_pass(self, files, capsys):
        code = run(["l1check", str(files / "far.metric"), "--pairs", "0:1,2:3"])
        assert code == 0
        assert out_lines(capsys) == ["PASS 4 patterns", "norm 2 in every pattern"]

    def test_l1check_coeffs(self, files, capsys):
        code = run(
            [
                "l1check",
                str(files / "far.metric"),
                "--pairs",
                "0:1,2:3",
                "--coeffs",
                "2,3/1",
            ]
        )
        assert code == 0
        assert out_lines(capsys)[1] == "norm 5 in every pattern"

    def test_l1check_fail(self, tmp_path, capsys):
        metric = tmp_path / "a4.metric"
        run(["family", "--family", "a", "--n", "4", "--out", str(metric)])
        code = run(["l1check", str(metric), "--pairs", "0:1,2:3", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == "FAIL"
        assert payload["pattern"] == "++"
        assert payload["achieved"] == "79/40"
        assert payload["expected"] == "2"

    def test_quad_check(self, capsys):
        assert run(["quad-check", "--family", "b", "--max", "8"]) == 0
        assert out_lines(capsys) == ["PASS 70 quadruples"]

    def test_quad_check_rejects_small_max(self, capsys):
        assert run(["quad-check", "--family", "b", "--max", "3"]) == 2

    def test_quad_check_budget_exits_at_once(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("family space built past the size budget")

        monkeypatch.setattr(l1embed, "family_metric", refuse)
        assert run(["quad-check", "--family", "b", "--max", "200"]) == 2
        assert "limit" in capsys.readouterr().err


class TestFamilyVerb:
    def test_header_and_round_trip(self, tmp_path, capsys):
        code = run(["family", "--family", "a", "--n", "4"])
        assert code == 0
        lines = out_lines(capsys)
        assert lines[0] == "# family a n=4 points v1 v2 v3 v4"
        assert lines[1] == "4"
        metric = tmp_path / "a4.metric"
        metric.write_text("\n".join(lines) + "\n")
        assert run(["validate", str(metric)]) == 0
        assert out_lines(capsys)[0] == "OK n=4"

    def test_unknown_family(self, capsys):
        assert run(["family", "--family", "z", "--n", "4"]) == 2


class TestHarness:
    def test_out_writes_file_instead_of_stdout(self, files, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code = run(["l1norm", str(files / "f.problem"), "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == "l1 4\n"

    def test_no_arguments(self, capsys):
        assert run([]) == 2

    def test_unknown_verb(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_help(self, capsys):
        assert run(["--help"]) == 0
        assert "tcspace" in capsys.readouterr().out

    def test_selftest_deterministic(self, capsys):
        assert run(["selftest"]) == 0
        first = capsys.readouterr().out
        assert run(["selftest"]) == 0
        assert capsys.readouterr().out == first
        assert first.splitlines()[-1] == "SELFTEST PASS"

    def test_reports_are_deterministic(self, files, capsys):
        argv = ["tcnorm", str(files / "line.metric"), str(files / "f.problem")]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        assert capsys.readouterr().out == first


# keys whose values (or list items) are rationals in a ``--json`` payload
RATIONAL_KEYS = {
    "norm",
    "amount",
    "value",
    "h",
    "weight",
    "prescribed_weight",
    "witness_weight",
    "achieved",
    "expected",
}


def assert_rationals_are_strings(payload):
    if isinstance(payload, list):
        for item in payload:
            assert_rationals_are_strings(item)
    elif isinstance(payload, dict):
        for key, value in payload.items():
            if key not in RATIONAL_KEYS:
                assert_rationals_are_strings(value)
                continue
            for q in value if isinstance(value, list) else [value]:
                assert type(q) is str
                assert str(parse_rational(q)) == q


def text_values(argv, text):
    """The values of a text report, shaped like the ``--json`` payload."""
    verb, words = argv[0], [line.split() for line in text.splitlines()]
    head, rest = words[0], words[1:]
    edges = [[int(w[1]), int(w[2])] for w in rest if w[0] == "edge"]
    if verb == "tcnorm":
        plan = [{"source": int(w[1]), "sink": int(w[3]), "amount": w[5]} for w in rest]
        return {"norm": head[1], "plan": plan}
    if verb == "dual":
        assert [int(w[1]) for w in rest] == list(range(len(rest)))
        base = int(argv[argv.index("--base") + 1])
        return {"value": head[1], "base": base, "h": [w[2] for w in rest]}
    if verb == "quotient":
        rep = [{"edge": [int(w[1]), int(w[2])], "value": w[3]} for w in rest]
        return {"norm": head[1], "representative": rep}
    if verb == "matching":
        return {"weight": head[1], "edges": edges}
    if verb == "nested-check" and head[0] == "PASS":
        return {"result": "PASS", "depth": int(head[1])}
    if verb == "nested-check":
        return {
            "result": "FAIL",
            "depth": int(head[2].removeprefix("n=")),
            "prescribed_weight": rest[0][2],
            "witness_weight": rest[1][2],
            "witness_edges": edges,
        }
    if head[0] == "PASS":
        return {"result": "PASS", "patterns": int(head[1]), "expected": rest[0][1]}
    return {
        "result": "FAIL",
        "pattern": head[2],
        "achieved": rest[0][1],
        "expected": rest[0][3],
    }


def agreement_cases(tmp_path):
    rng = random.Random(20261021)

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    one, zero = write("one.metric", "1\n"), write("zero.problem", "")
    cases = [
        ["tcnorm", one, zero],
        ["dual", one, zero, "--base", "0"],
        ["quotient", one, write("zero.edges", "")],
    ]
    for t in range(16):
        n = rng.randrange(4, 9)
        space = (random_line_space if t % 2 else random_metric_space)(rng, n)
        metric = write(f"m{t}.metric", serialize_metric(space))
        f = random_zero_sum_problem(rng, space, n)
        problem = write(f"f{t}.problem", format_problem(f))
        g = EdgeVector.from_values(
            n, {tuple(sorted(rng.sample(range(n), 2))): rng.randrange(-4, 5)}
        )
        edges = write(f"g{t}.edges", format_edge_vector(g))
        a, b, c, d = rng.sample(range(n), 4)
        pairs, vertices = f"{a}:{b},{c}:{d}", f"{a},{b},{c},{d}"
        cases += [
            ["tcnorm", metric, problem],
            ["tcnorm", metric, zero],
            ["dual", metric, problem, "--base", str(rng.randrange(n))],
            ["quotient", metric, edges],
            ["matching", metric, "--vertices", vertices],
            ["nested-check", metric, "--pairs", pairs],
            ["l1check", metric, "--pairs", pairs],
            ["l1check", metric, "--pairs", pairs, "--coeffs", "1/2,3"],
        ]
        if t % 2:
            # consecutive pairs on a line: both checks pass
            cases.append(["nested-check", metric, "--pairs", "0:1,2:3"])
            cases.append(["l1check", metric, "--pairs", "0:1,2:3"])
    return cases


def test_text_and_json_carry_the_same_values(tmp_path, capsys):
    verdicts = set()
    for argv in agreement_cases(tmp_path):
        code = run(argv)
        text = capsys.readouterr().out
        assert run(argv + ["--json"]) == code
        payload = json.loads(capsys.readouterr().out)
        assert text_values(argv, text) == payload
        assert_rationals_are_strings(payload)
        if "result" in payload:
            verdicts.add((argv[0], payload["result"], code))
    assert verdicts == {
        (verb, result, code)
        for verb in ("nested-check", "l1check")
        for result, code in (("PASS", 0), ("FAIL", 1))
    }
