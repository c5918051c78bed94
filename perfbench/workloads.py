"""The benchmark's three workloads: seeded inputs, operations and output checks.

Each ``build_<workload>`` draws its inputs from ``random.Random(seed)``
and returns one round: a list of operations that the run repeats whole.
An operation is a name, a thunk that calls into tcspace (looked up
through the module objects in ``mods`` at call time, so the tracer's
wrappers apply) and a check that verifies the result apart from the
program.  Checks raise ``CheckError`` and run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

_ZERO = Fraction(0)


class CheckError(Exception):
    """An output differs from what the independent computation gives."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


# --- independent arithmetic used by the checks --------------------------------


def plan_problem(moves) -> dict[int, Fraction]:
    """Net amount each plan leaves at each point (sources positive)."""
    acc: dict[int, Fraction] = {}
    for x, y, a in moves:
        expect(a > 0, f"plan move {x}->{y} has non-positive amount {a}")
        acc[x] = acc.get(x, _ZERO) + a
        acc[y] = acc.get(y, _ZERO) - a
    return {v: a for v, a in acc.items() if a}


def plan_cost(dist, moves) -> Fraction:
    return sum((a * dist[x][y] for x, y, a in moves), _ZERO)


def check_plan(dist, f: dict[int, Fraction], moves, cost: Fraction) -> None:
    """The moves resolve exactly ``f`` and cost exactly ``cost``."""
    expect(plan_problem(moves) == f, "plan does not resolve the problem")
    expect(plan_cost(dist, moves) == cost, "plan cost differs from the reported norm")


def check_certificate(dist, h, f: dict[int, Fraction], value: Fraction, base: int | None) -> None:
    """``h`` is 1-Lipschitz, vanishes at ``base`` (if given) and pairs with ``f`` to ``value``.

    With a feasible plan of cost ``value`` this proves optimality by weak duality.
    """
    n = len(dist)
    expect(len(h) == n, "certificate has the wrong length")
    expect(base is None or h[base] == 0, f"certificate does not vanish at base {base}")
    for u in range(n):
        hu, du = h[u], dist[u]
        for v in range(u + 1, n):
            expect(abs(hu - h[v]) <= du[v], f"certificate not 1-Lipschitz on ({u}, {v})")
    expect(sum((h[v] * a for v, a in f.items()), _ZERO) == value, "certificate pairing differs")


def boundary(entries) -> dict[int, Fraction]:
    """Net in-flow at each point of an edge vector (heads count positive)."""
    acc: dict[int, Fraction] = {}
    for (i, j), val in entries:
        acc[j] = acc.get(j, _ZERO) + val
        acc[i] = acc.get(i, _ZERO) - val
    return {v: a for v, a in acc.items() if a}


def lcm_of_denominators(values) -> int:
    return math.lcm(1, *(Fraction(v).denominator for v in values))


def flow_norm(dist, f: dict[int, Fraction]) -> Fraction:
    """Transportation cost by networkx min-cost flow on weights scaled to integers."""
    import networkx as nx

    scale_f = lcm_of_denominators(f.values())
    pos = [v for v, a in f.items() if a > 0]
    neg = [v for v, a in f.items() if a < 0]
    scale_d = lcm_of_denominators(dist[x][y] for x in pos for y in neg)
    graph = nx.DiGraph()
    for v, a in f.items():
        graph.add_node(("v", v), demand=-int(a * scale_f))
    for x in pos:
        for y in neg:
            graph.add_edge(("v", x), ("v", y), weight=int(dist[x][y] * scale_d))
    return Fraction(nx.min_cost_flow_cost(graph), scale_f * scale_d)


def matching_weight(dist, vertices) -> Fraction:
    """Minimum perfect matching weight by networkx on weights scaled to integers."""
    import networkx as nx

    scale = lcm_of_denominators(dist[u][v] for u in vertices for v in vertices if u != v)
    graph = nx.Graph()
    for u, v in itertools.combinations(vertices, 2):
        graph.add_edge(u, v, weight=int(dist[u][v] * scale))
    matched = nx.min_weight_matching(graph)
    expect(2 * len(matched) == len(vertices), "networkx matching is not perfect")
    return Fraction(sum(graph[u][v]["weight"] for u, v in matched), scale)


def sign_problem(dist, pairs, eps) -> dict[int, Fraction]:
    """The signed combination of unit pair differences for sign vector ``eps``."""
    values: dict[int, Fraction] = {}
    for (x, y), s in zip(pairs, eps):
        m = Fraction(s) / dist[x][y]
        values[x] = values.get(x, _ZERO) + m
        values[y] = values.get(y, _ZERO) - m
    return {v: a for v, a in values.items() if a}


def band_matrix(rng: random.Random, n: int, unit_pairs=()) -> list[list[Fraction]]:
    """Random distances in [1, 2]; pairs in ``unit_pairs`` sit at distance 1."""
    d = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = rng.randrange(1, 7)
            d[i][j] = d[j][i] = Fraction(rng.randrange(den, 2 * den + 1), den)
    for x, y in unit_pairs:
        d[x][y] = d[y][x] = Fraction(1)
    return d


def consecutive_pairs(k: int, start: int = 0) -> tuple[tuple[int, int], ...]:
    return tuple((start + 2 * i, start + 2 * i + 1) for i in range(k))


# --- certify ------------------------------------------------------------------

# Instances per point count.  The counts below and above n=9 balance, so
# the median operation falls in the middle of the n=9 group rather than
# on the step between two sizes.
CERTIFY_SIZES = {6: 3, 7: 5, 8: 8, 9: 11, 10: 10, 11: 6}


def build_certify(mods, seed: int, workdir: Path) -> list[Operation]:
    rng = random.Random(seed)
    sampling = mods.sampling
    instances = []
    for n, count in CERTIFY_SIZES.items():
        for _ in range(count):
            space = sampling.random_metric_space(rng, n)
            instances.append((space, sampling.random_zero_sum_problem(rng, space, n)))
    rng.shuffle(instances)
    return [_certify_op(mods, space, f) for space, f in instances]


def _certify_op(mods, space, f) -> Operation:
    n = space.n
    dist = space.dist
    values = dict(f.entries)

    def run():
        norm, plan = mods.transport.tc_norm(space, f)
        h, dual_value = mods.duality.dual_optimal(space, f)
        q_value, rep = mods.quotient.quotient_norm(space, mods.quotient.lift_plan(plan, n))
        brute = mods.transport.tc_brute_force(space, f)
        return norm, plan, h, dual_value, q_value, rep, brute

    def check(result):
        norm, plan, h, dual_value, q_value, rep, brute = result
        expect(plan.cost == norm, "plan cost field differs from the norm")
        check_plan(dist, values, plan.moves, norm)
        expect(dual_value == norm, "dual value differs from the norm")
        check_certificate(dist, h.values, values, norm, 0)
        expect(rep.n == n, "representative lives on the wrong point count")
        expect(boundary(rep.entries) == values, "representative boundary differs from f")
        l1d = sum((abs(v) * dist[i][j] for (i, j), v in rep.entries), _ZERO)
        expect(l1d == q_value, "representative norm differs from the quotient value")
        expect(q_value == norm, "quotient value differs from the norm")
        expect(brute == norm, "LP oracle differs from the norm")

    return Operation(f"certify n={n}", run, check)


# --- l1sweep ------------------------------------------------------------------

# Passing sweeps as (kind, pairs).  With the failing sweep the cheapest
# operation, the two 7-pair band sweeps are next and the three 8-pair
# sweeps the dearest, so the median operation falls in the middle of
# the six 7-pair line sweeps.
L1SWEEP_PASSING = (
    ("line", 7), ("band", 7), ("line", 8), ("line", 7), ("band", 8), ("line", 7),
    ("line", 7), ("band", 7), ("line", 8), ("line", 7), ("line", 7),
)
FAMILY_TAGS = ("a", "b", "c", "d", "e")


def build_l1sweep(mods, seed: int, workdir: Path) -> list[Operation]:
    rng = random.Random(seed)
    ops = []
    for kind, k in L1SWEEP_PASSING:
        pairs = consecutive_pairs(k)
        if kind == "line":
            space = mods.sampling.random_line_space(rng, 2 * k)
        else:
            space = mods.metric.FiniteMetricSpace(
                tuple(map(tuple, band_matrix(rng, 2 * k, pairs)))
            )
        ops.append(_passing_sweep_op(mods, kind, space, pairs))
    tag = rng.choice(FAMILY_TAGS)
    k = rng.choice((7, 8, 9))
    family = mods.metric.family_metric(tag, 2 * k)
    ops.insert(6, _failing_sweep_op(mods, tag, family, consecutive_pairs(k)))
    return ops


def passing_certificate(dist, pairs, eps, kind: str) -> list[Fraction]:
    """A 1-Lipschitz h pairing to k with the sign-``eps`` combination.

    Band spaces: h = eps_i * d_i / 2 at x_i and its negative at y_i.
    Line spaces (points in increasing order): h is the cumulative sum that
    drops by eps_i * d_i across pair i and stays flat between pairs.
    """
    n = len(dist)
    h = [_ZERO] * n
    if kind == "band":
        for (x, y), s in zip(pairs, eps):
            h[x] = s * dist[x][y] / 2
            h[y] = -h[x]
        return h
    level = _ZERO
    step = {x: (y, s) for (x, y), s in zip(pairs, eps)}
    for v in range(n):
        h[v] = level
        if v in step:
            y, s = step[v]
            expect(y == v + 1, "line pairs must join neighbouring points")
            level -= s * dist[v][y]
    return h


def _passing_sweep_op(mods, kind, space, pairs) -> Operation:
    k = len(pairs)
    dist = space.dist
    seq = mods.matching.PairSequence(pairs)

    def run():
        return mods.l1embed.sign_pattern_isometry_check(space, seq)

    def check(report):
        expect(report.passed, f"{kind} sweep reported a failure at {report.pattern}")
        expect(report.expected == k, "expected norm differs from the pair count")
        for eps in itertools.product((1, -1), repeat=k):
            h = passing_certificate(dist, pairs, eps, kind)
            check_certificate(dist, h, sign_problem(dist, pairs, eps), Fraction(k), None)

    return Operation(f"sweep {kind} k={k}", run, check)


def _failing_sweep_op(mods, tag, space, pairs) -> Operation:
    k = len(pairs)
    dist = space.dist
    seq = mods.matching.PairSequence(pairs)

    def run():
        return mods.l1embed.sign_pattern_isometry_check(space, seq)

    def check(report):
        expect(not report.passed, f"family {tag} sweep with {k} pairs passed")
        expect(report.expected == k, "expected norm differs from the pair count")
        eps = report.pattern
        expect(len(eps) == k and set(eps) <= {1, -1}, "reported pattern is malformed")
        f = sign_problem(dist, pairs, eps)
        problem = mods.transport.TransportationProblem.from_values(f)
        norm, plan = mods.transport.tc_norm(space, problem)
        check_plan(dist, f, plan.moves, report.achieved)
        expect(norm == report.achieved, "reported norm differs from the pattern's norm")
        expect(report.achieved < k, "reported norm is not below the pair count")
        h, value = mods.duality.dual_optimal(space, problem)
        expect(value == report.achieved, "dual value differs from the reported norm")
        check_certificate(dist, h.values, f, value, 0)

    return Operation(f"sweep family {tag} k={k}", run, check)


# --- cli ----------------------------------------------------------------------


def zero_sum_values(rng: random.Random, n: int, size: int) -> dict[int, Fraction]:
    """Nonzero rational values on ``size`` random points, summing to zero."""
    while True:
        points = sorted(rng.sample(range(n), size))
        values = [
            Fraction(rng.randrange(-12, 13), rng.choice((1, 2, 3, 4)))
            for _ in range(size - 1)
        ]
        values.append(-sum(values, _ZERO))
        if all(values):
            return dict(zip(points, values))


def family_distance(tag: str, k: int, m: int) -> Fraction:
    """The five family formulas, restated from the package's documentation."""
    k, m = min(k, m), max(k, m)
    return {
        "a": Fraction(k + m) - Fraction(1, k),
        "b": 2 - Fraction(1, k) + Fraction(1, m),
        "c": 2 - Fraction(1, k) - Fraction(1, 2 * m),
        "d": 1 + Fraction(1, m),
        "e": 1 + Fraction(1, 2 * k) + Fraction(1, m),
    }[tag]


def metric_tokens(text: str) -> list[Fraction]:
    tokens = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    return [Fraction(t) for t in tokens]


def build_cli(mods, seed: int, workdir: Path) -> list[Operation]:
    rng = random.Random(seed)
    metric, transport, sampling = mods.metric, mods.transport, mods.sampling
    spaces = {
        "m60": sampling.random_metric_space(rng, 60),
        "m80": sampling.random_metric_space(rng, 80),
        "m18": sampling.random_metric_space(rng, 18),
        "m18b": sampling.random_metric_space(rng, 18),
        "m20": sampling.random_metric_space(rng, 20),
        "line20": sampling.random_line_space(rng, 20),
    }
    problems = {
        "f60": zero_sum_values(rng, 60, 24),
        "f80": zero_sum_values(rng, 80, 32),
        "f18": zero_sum_values(rng, 18, 18),
        "f18b": zero_sum_values(rng, 18, 18),
    }
    P = {}
    for name, space in spaces.items():
        path = workdir / f"{name}.metric"
        path.write_text(metric.serialize_metric(space), encoding="utf-8")
        P[name] = str(path)
    for name, values in problems.items():
        path = workdir / f"{name}.problem"
        problem = transport.TransportationProblem.from_values(values)
        path.write_text(transport.format_problem(problem), encoding="utf-8")
        P[name] = str(path)

    base = rng.randrange(18)
    subset18 = sorted(rng.sample(range(20), 18))
    family_tag = rng.choice(FAMILY_TAGS)
    quad_tag = rng.choice(FAMILY_TAGS)
    pairs10 = ",".join(f"{x}:{y}" for x, y in consecutive_pairs(10))
    pairs5a = ",".join(f"{x}:{y}" for x, y in consecutive_pairs(5))
    pairs5b = ",".join(f"{x}:{y}" for x, y in consecutive_pairs(5, 10))
    all20 = ",".join(str(v) for v in range(20))

    ops = []

    def add(argv, check):
        ops.append(_cli_op(mods, argv, check))

    d = {name: space.dist for name, space in spaces.items()}
    f = problems
    add(["validate", P["m60"]], _check_validate(d["m60"], False))
    add(["tcnorm", P["m60"], P["f60"]], _check_tcnorm(d["m60"], f["f60"], False))
    add(
        ["dual", P["m18"], P["f18"], "--base", str(base)],
        _check_dual(d["m18"], f["f18"], base, False),
    )
    add(["matching", P["m20"], "--vertices", all20], _check_matching(d["m20"], range(20), False))
    add(["nested-check", P["line20"], "--pairs", pairs10], _check_nested(10, False))
    add(["l1check", P["line20"], "--pairs", pairs5a], _check_l1check(5, False))
    add(["family", "--family", family_tag, "--n", "12"], _check_family(family_tag, 12, False))
    add(["quad-check", "--family", quad_tag, "--max", "20"], _check_quad(20, False))
    add(["selftest"], _check_selftest(False))
    add(["validate", P["m80"], "--json"], _check_validate(d["m80"], True))
    add(["tcnorm", P["m80"], P["f80"], "--json"], _check_tcnorm(d["m80"], f["f80"], True))
    add(["dual", P["m18b"], P["f18b"], "--json"], _check_dual(d["m18b"], f["f18b"], 0, True))
    add(
        ["matching", P["m20"], "--vertices", ",".join(map(str, subset18)), "--json"],
        _check_matching(d["m20"], subset18, True),
    )
    add(["matching", P["line20"], "--vertices", all20], _check_line_matching(d["line20"], 20))
    add(["nested-check", P["line20"], "--pairs", pairs10, "--json"], _check_nested(10, True))
    add(["l1check", P["line20"], "--pairs", pairs5b, "--json"], _check_l1check(5, True))
    add(
        ["family", "--family", family_tag, "--n", "12", "--json"],
        _check_family(family_tag, 12, True),
    )
    add(["quad-check", "--family", quad_tag, "--max", "20", "--json"], _check_quad(20, True))
    add(["selftest", "--json"], _check_selftest(True))
    return ops


def once(fn, *args):
    """Compute ``fn(*args)`` on first use, so expected values cost nothing at set-up."""
    cache = []

    def get():
        if not cache:
            cache.append(fn(*args))
        return cache[0]

    return get


def _cli_op(mods, argv, check) -> Operation:
    def run():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = mods.cli.run(list(argv))
        return code, buffer.getvalue()

    def check_result(result):
        code, out = result
        expect(code == 0, f"exit code {code}")
        check(out)

    shown = " ".join(a if not a.endswith((".metric", ".problem")) else Path(a).name for a in argv)
    return Operation(f"cli {shown}", run, check_result)


def _check_validate(dist, as_json):
    n = len(dist)

    def check(out):
        values = [dist[u][v] for u in range(n) for v in range(u + 1, n)]
        lo, hi = min(values), max(values)
        if as_json:
            data = json.loads(out)
            got = (data["ok"], data["n"], Fraction(data["delta"]), Fraction(data["diameter"]))
        else:
            lines = out.splitlines()
            expect(len(lines) == 3 and lines[0].startswith("OK n="), "validate: malformed report")
            got = (True, int(lines[0][5:])) + tuple(Fraction(x.split()[1]) for x in lines[1:])
        expect(got == (True, n, lo, hi), f"validate: got {got}, expected n={n} {lo} {hi}")

    return check


def _check_tcnorm(dist, values, as_json):
    expected = once(flow_norm, dist, values)

    def check(out):
        if as_json:
            data = json.loads(out)
            norm = Fraction(data["norm"])
            moves = [(m["source"], m["sink"], Fraction(m["amount"])) for m in data["plan"]]
        else:
            lines = out.splitlines()
            expect(lines[0].startswith("norm "), "tcnorm: malformed report")
            norm = Fraction(lines[0].split()[1])
            moves = []
            for line in lines[1:]:
                _, x, _, y, _, a = line.split()
                moves.append((int(x), int(y), Fraction(a)))
        expect(norm == expected(), f"tcnorm: {norm} differs from networkx {expected()}")
        check_plan(dist, values, moves, norm)

    return check


def _check_dual(dist, values, base, as_json):
    expected = once(flow_norm, dist, values)

    def check(out):
        if as_json:
            data = json.loads(out)
            value = Fraction(data["value"])
            h = [Fraction(a) for a in data["h"]]
            expect(data["base"] == base, "dual: wrong base")
        else:
            lines = out.splitlines()
            value = Fraction(lines[0].split()[1])
            h = [Fraction(line.split()[2]) for line in lines[1:]]
        expect(value == expected(), f"dual: {value} differs from networkx {expected()}")
        check_certificate(dist, h, values, value, base)

    return check


def _check_matching(dist, vertices, as_json):
    vertices = list(vertices)
    expected = once(matching_weight, dist, vertices)

    def check(out):
        weight, edges = _parse_matching(out, as_json)
        expect(weight == expected(), f"matching: {weight} differs from networkx {expected()}")
        _check_matching_edges(dist, vertices, edges, weight)

    return check


def _check_line_matching(dist, n):
    # Points are in increasing order, so the optimum pairs neighbours.
    expected = sum((dist[2 * i][2 * i + 1] for i in range(n // 2)), _ZERO)

    def check(out):
        weight, edges = _parse_matching(out, False)
        expect(weight == expected, f"line matching: {weight} differs from the gap sum {expected}")
        _check_matching_edges(dist, list(range(n)), edges, weight)

    return check


def _parse_matching(out, as_json):
    if as_json:
        data = json.loads(out)
        return Fraction(data["weight"]), [tuple(e) for e in data["edges"]]
    lines = out.splitlines()
    expect(lines[0].startswith("weight "), "matching: malformed report")
    edges = [(int(line.split()[1]), int(line.split()[2])) for line in lines[1:]]
    return Fraction(lines[0].split()[1]), edges


def _check_matching_edges(dist, vertices, edges, weight):
    flat = sorted(p for e in edges for p in e)
    expect(flat == sorted(vertices), "matching: edges do not cover the vertex set once")
    expect(sum((dist[u][v] for u, v in edges), _ZERO) == weight, "matching: edge weights differ")


def _check_nested(k, as_json):
    def check(out):
        if as_json:
            data = json.loads(out)
            got = (data["result"], data["depth"])
        else:
            words = out.split()
            got = (words[0], int(words[1]))
        expect(got == ("PASS", k), f"nested-check: got {got} on a line space")

    return check


def _check_l1check(k, as_json):
    def check(out):
        if as_json:
            data = json.loads(out)
            got = (data["result"], Fraction(data["expected"]))
        else:
            lines = out.splitlines()
            expect(lines[1] == f"norm {k} in every pattern", "l1check: malformed report")
            got = (lines[0].split()[0], Fraction(k))
        expect(got == ("PASS", k), f"l1check: got {got} on disjoint line pairs")

    return check


def _check_family(tag, n, as_json):
    def check(out):
        expected = [n] + [
            family_distance(tag, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        ]
        if as_json:
            data = json.loads(out)
            expect(data["labels"] == [f"v{i}" for i in range(1, n + 1)], "family: labels")
            body = data["metric"]
        else:
            body = out
        expect(metric_tokens(body) == expected, f"family {tag}: distances differ from the formula")

    return check


def _check_quad(top, as_json):
    count = math.comb(top, 4)

    def check(out):
        if as_json:
            data = json.loads(out)
            got = (data["result"], data["quadruples"])
        else:
            words = out.split()
            got = (words[0], int(words[1]))
        expect(got == ("PASS", count), f"quad-check: got {got}, expected PASS {count}")

    return check


def _check_selftest(as_json):
    def check(out):
        if as_json:
            data = json.loads(out)
            expect(data["result"] == "PASS", "selftest: FAIL")
            checks = data["checks"]
            expect(len(checks) == 36 and all(c["ok"] for c in checks), "selftest: checks")
        else:
            lines = out.splitlines()
            expect(lines[-1] == "SELFTEST PASS" and len(lines) == 38, "selftest: FAIL")

    return check


WORKLOADS = {
    "certify": build_certify,
    "l1sweep": build_l1sweep,
    "cli": build_cli,
}
