"""Command line interface.

Exit codes: 0 for success or PASS, 1 for a mathematical FAIL (a refuted
check), 2 for input errors.  Output is deterministic: the same inputs
produce byte-identical reports.  Each verb builds one payload from the
library's own values; its text lines are f-strings over that payload
and ``--json`` dumps it, so both outputs carry the same values.
Rationals always print as ``p/q`` (or ``p`` for integers): ``str`` of a
``Fraction`` in the text, and ``format_rational`` as the JSON encoder's
``default``, the one place where a rational becomes JSON text.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path

from .duality import dual_optimal
from .l1embed import quadruple_inequality_check, sign_pattern_isometry_check
from .matching import (
    PairSequence,
    matching_brute_force,
    min_weight_perfect_matching,
    nested_matching_check,
)
from .metric import (
    FAMILY_TAGS,
    NotAMetricError,
    extremes,
    family_metric,
    parse_metric,
    serialize_metric,
)
from .quotient import lift_plan, parse_edge_vector, quotient_norm
from .rationals import ParseError, format_rational, parse_rational
from .sampling import random_metric_space, random_zero_sum_problem
from .transport import (
    NotZeroSumError,
    l1_norm,
    parse_problem,
    tc_brute_force,
    tc_norm,
)

# Parse, metric and zero-sum errors are ``ValueError``s, so they are
# caught here too.  No solver exception is listed: every LP and flow
# built from validated input is feasible and bounded, so a solver that
# raises is a bug and must not be reported as bad input.
_INPUT_ERRORS = (ValueError, IndexError, OSError)

_SELFTEST_SEED = 271828
_SELFTEST_NORM_INSTANCES = 24
_SELFTEST_MATCHING_INSTANCES = 12


def _load(parse, path: str, *args):
    """``parse`` the file at ``path``; data and decoding errors are prefixed
    with the path."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"), *args)
    except (ParseError, NotAMetricError, NotZeroSumError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _comma_list(option: str, text: str, parse_item, build=tuple):
    """The comma-separated items of ``option``, each parsed, passed to ``build``."""
    try:
        items = tuple(parse_item(chunk.strip()) for chunk in text.split(","))
        return build(items)
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}") from None


def _vertex(chunk: str) -> int:
    if not chunk.isdecimal():
        raise ValueError(f"expected integers, got {chunk!r}")
    return int(chunk)


def _pair(chunk: str) -> tuple[int, int]:
    left, sep, right = chunk.partition(":")
    if not sep or not left.strip().isdecimal() or not right.strip().isdecimal():
        raise ValueError(f"expected 'x:y' entries, got {chunk!r}")
    return int(left), int(right)


def _edge_lines(edges) -> list[str]:
    return [f"edge {u} {v}" for u, v in edges]


def _cmd_validate(args) -> tuple[int, list[str], dict]:
    space = _load(parse_metric, args.metric)
    lines = [f"OK n={space.n}"]
    payload: dict = {"ok": True, "n": space.n}
    if space.n >= 2:
        lo, hi = extremes(space)
        payload.update(delta=lo, diameter=hi)
        lines += [f"delta {lo}", f"diameter {hi}"]
    return 0, lines, payload


def _cmd_tcnorm(args) -> tuple[int, list[str], dict]:
    space = _load(parse_metric, args.metric)
    problem = _load(parse_problem, args.problem)
    norm, plan = tc_norm(space, problem)
    moves = [{"source": x, "sink": y, "amount": a} for x, y, a in plan.moves]
    lines = [f"norm {norm}"]
    lines += ["move {source} -> {sink} amount {amount}".format_map(m) for m in moves]
    return 0, lines, {"norm": norm, "plan": moves}


def _cmd_l1norm(args) -> tuple[int, list[str], dict]:
    value = l1_norm(_load(parse_problem, args.problem))
    return 0, [f"l1 {value}"], {"l1": value}


def _cmd_matching(args) -> tuple[int, list[str], dict]:
    space = _load(parse_metric, args.metric)
    vertices = _comma_list("--vertices", args.vertices, _vertex)
    result = min_weight_perfect_matching(space, vertices)
    lines = [f"weight {result.weight}", *_edge_lines(result.edges)]
    return 0, lines, {"weight": result.weight, "edges": result.edges}


def _cmd_nested_check(args) -> tuple[int, list[str], dict]:
    space = _load(parse_metric, args.metric)
    pairs = _comma_list("--pairs", args.pairs, _pair, PairSequence)
    result = nested_matching_check(space, pairs)
    if result.passed:
        lines = [f"PASS {result.depth} prefixes"]
        return 0, lines, {"result": "PASS", "depth": result.depth}
    witness = result.witness
    lines = [
        f"FAIL at n={result.depth}",
        f"prescribed weight {result.prescribed_weight}",
        f"witness weight {witness.weight}",
        *_edge_lines(witness.edges),
    ]
    payload = {
        "result": "FAIL",
        "depth": result.depth,
        "prescribed_weight": result.prescribed_weight,
        "witness_weight": witness.weight,
        "witness_edges": witness.edges,
    }
    return 1, lines, payload


def _cmd_quotient(args) -> tuple[int, list[str], dict]:
    space = _load(parse_metric, args.metric)
    vector = _load(parse_edge_vector, args.edges, space.n)
    value, representative = quotient_norm(space, vector)
    entries = [{"edge": e, "value": v} for e, v in representative.entries]
    lines = [f"norm {value}"]
    lines += ["rep {} {} {}".format(*r["edge"], r["value"]) for r in entries]
    return 0, lines, {"norm": value, "representative": entries}


def _cmd_dual(args) -> tuple[int, list[str], dict]:
    space = _load(parse_metric, args.metric)
    problem = _load(parse_problem, args.problem)
    h, value = dual_optimal(space, problem, base=args.base)
    lines = [f"value {value}"] + [f"h {v} {a}" for v, a in enumerate(h.values)]
    return 0, lines, {"value": value, "base": args.base, "h": h.values}


def _cmd_l1check(args) -> tuple[int, list[str], dict]:
    space = _load(parse_metric, args.metric)
    pairs = _comma_list("--pairs", args.pairs, _pair, PairSequence)
    coeffs = None
    if args.coeffs is not None:
        coeffs = _comma_list("--coeffs", args.coeffs, parse_rational)
    report = sign_pattern_isometry_check(space, pairs, coeffs)
    expected = report.expected
    if report.passed:
        patterns = report.patterns_checked
        lines = [f"PASS {patterns} patterns", f"norm {expected} in every pattern"]
        payload = {"result": "PASS", "patterns": patterns, "expected": expected}
        return 0, lines, payload
    pattern = "".join("+" if s > 0 else "-" for s in report.pattern)
    achieved = report.achieved
    lines = [f"FAIL pattern {pattern}", f"achieved {achieved} expected {expected}"]
    payload = {
        "result": "FAIL",
        "pattern": pattern,
        "achieved": achieved,
        "expected": expected,
    }
    return 1, lines, payload


def _cmd_family(args) -> tuple[int, list[str], dict]:
    space = family_metric(args.family, args.n)
    body = serialize_metric(space)
    header = f"# family {args.family} n={args.n} points " + " ".join(space.labels)
    payload = dict(family=args.family, n=args.n, labels=space.labels, metric=body)
    return 0, [header, *body.splitlines()], payload


def _cmd_quad_check(args) -> tuple[int, list[str], dict]:
    report = quadruple_inequality_check(args.family, args.max)
    payload = {
        "result": "PASS" if report.passed else "FAIL",
        "family": report.family,
        "max_index": report.max_index,
        "quadruples": report.quadruples_checked,
    }
    if report.passed:
        return 0, [f"PASS {report.quadruples_checked} quadruples"], payload
    payload["violations"] = report.violations
    lines = [f"FAIL {len(report.violations)} violations"]
    lines += ["violation " + " ".join(map(str, q)) for q in report.violations]
    return 1, lines, payload


def _cmd_selftest(args) -> tuple[int, list[str], dict]:
    rng = random.Random(_SELFTEST_SEED)
    ok = True
    lines = [
        f"selftest seed={_SELFTEST_SEED}"
        f" norms={_SELFTEST_NORM_INSTANCES}"
        f" matchings={_SELFTEST_MATCHING_INSTANCES}"
    ]
    checks = []
    for t in range(_SELFTEST_NORM_INSTANCES):
        n = rng.randrange(3, 7)
        space = random_metric_space(rng, n)
        f = random_zero_sum_problem(rng, space, n)
        norm, plan = tc_norm(space, f)
        brute = tc_brute_force(space, f)
        qvalue, _ = quotient_norm(space, lift_plan(plan, n))
        _, dvalue = dual_optimal(space, f)
        good = norm == brute == qvalue == dvalue
        ok = ok and good
        verdict = "ok" if good else "MISMATCH"
        lines.append(f"norm {t:02d} n={n} value {norm} {verdict}")
        checks.append({"check": f"norm {t:02d}", "ok": good})
    for t in range(_SELFTEST_MATCHING_INSTANCES):
        n = rng.randrange(4, 9)
        space = random_metric_space(rng, n)
        size = rng.choice((2, 4, 6))
        vertices = sorted(rng.sample(range(n), min(size, n)))
        if len(vertices) % 2:
            vertices = vertices[:-1]
        dp = min_weight_perfect_matching(space, vertices)
        bf = matching_brute_force(space, vertices)
        good = dp.weight == bf.weight and dp.edges == bf.edges
        ok = ok and good
        verdict = "ok" if good else "MISMATCH"
        lines.append(
            f"matching {t:02d} size={len(vertices)} weight {dp.weight} {verdict}"
        )
        checks.append({"check": f"matching {t:02d}", "ok": good})
    lines.append("SELFTEST " + ("PASS" if ok else "FAIL"))
    payload = {"result": "PASS" if ok else "FAIL", "checks": checks}
    return (0 if ok else 1), lines, payload


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcspace",
        description="Exact transportation cost norms on finite metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="structured output")
        p.add_argument("--out", metavar="FILE", help="write the report to FILE")
        return p

    p = add("validate", "check a metric file and report its extremes", _cmd_validate)
    p.add_argument("metric")

    p = add("tcnorm", "transportation cost norm and an optimal plan", _cmd_tcnorm)
    p.add_argument("metric")
    p.add_argument("problem")

    p = add("l1norm", "plain l1 norm of a transportation problem", _cmd_l1norm)
    p.add_argument("problem")

    p = add("matching", "minimum-weight perfect matching", _cmd_matching)
    p.add_argument("metric")
    p.add_argument("--vertices", required=True, metavar="i,j,...")

    p = add("nested-check", "prefix-by-prefix matching minimality", _cmd_nested_check)
    p.add_argument("metric")
    p.add_argument("--pairs", required=True, metavar="x:y,...")

    p = add("quotient", "quotient norm of an edge vector mod cycles", _cmd_quotient)
    p.add_argument("metric")
    p.add_argument("edges")

    p = add("dual", "optimal Lipschitz dual certificate", _cmd_dual)
    p.add_argument("metric")
    p.add_argument("problem")
    p.add_argument("--base", type=int, default=0, help="base point (default 0)")

    p = add("l1check", "all-sign-pattern isometric l1 check", _cmd_l1check)
    p.add_argument("metric")
    p.add_argument("--pairs", required=True, metavar="x:y,...")
    p.add_argument("--coeffs", metavar="p/q,...")

    p = add("family", "emit a benchmark family as a metric file", _cmd_family)
    p.add_argument("--family", required=True, choices=FAMILY_TAGS)
    p.add_argument("--n", required=True, type=int)

    p = add("quad-check", "strict quadruple inequality over a family", _cmd_quad_check)
    p.add_argument("--family", required=True, choices=FAMILY_TAGS)
    p.add_argument("--max", required=True, type=int)

    add("selftest", "seeded cross-check of the independent routes", _cmd_selftest)

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code, lines, payload = args.handler(args)
        if args.json:
            lines = [
                json.dumps(payload, indent=2, sort_keys=True, default=format_rational)
            ]
        output = "".join(line + "\n" for line in lines)
        if args.out:
            Path(args.out).write_text(output, encoding="utf-8")
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(output)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
