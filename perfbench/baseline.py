#!/usr/bin/env python3
"""One traced pass over the layer sizes of the ROADMAP baseline table.

    python3 perfbench/baseline.py

Times each layer once, at fixed sizes and a fixed seed, from the spans
the benchmark's tracer records around the package's public functions,
and prints the table as Markdown.  The 12-pair passing sweep alone
takes over a minute.  These figures are reference points, not part of
any workload.
"""

from __future__ import annotations

import random
import sys

import run
from tracing import END, NAME, START, Tracer
from workloads import band_matrix, consecutive_pairs, zero_sum_values

SEED = 20261018


def main() -> int:
    if not (run.SRC / "tcspace" / "__init__.py").is_file():
        print(f"error: no tcspace package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    mods = run.import_tcspace()
    rng = random.Random(SEED)
    tracer = Tracer(mods)
    tracer.install()
    rows = []

    def measure(layer: str, size: str, span: str, fn) -> None:
        first = len(tracer.spans)
        fn()
        spans = tracer.spans[first:]
        seconds = sum(s[END] - s[START] for s in spans if s[NAME] == span)
        flows = sum(1 for s in spans if s[NAME] == "solvers.flow")
        note = f", {flows} flows" if span == "l1embed.sweep" else ""
        rows.append(f"| {layer} | {size} | {seconds * 1e3:.1f} ms{note} |")

    Space = mods.metric.FiniteMetricSpace
    for n in (40, 120):
        dist = tuple(map(tuple, band_matrix(rng, n)))
        measure("metric validation", f"n={n}", "metric.validate", lambda: Space(dist))
    Problem = mods.transport.TransportationProblem
    space60 = mods.sampling.random_metric_space(rng, 60)
    f60 = Problem.from_values(zero_sum_values(rng, 60, 29))
    measure("`tc_norm` (flow)", "n=60, support 29", "transport.tc_norm",
            lambda: mods.transport.tc_norm(space60, f60))
    for n in (16, 24):
        space = mods.sampling.random_metric_space(rng, n)
        f = Problem.from_values(zero_sum_values(rng, n, n))
        measure("`dual_optimal` (simplex)", f"n={n}", "duality.dual",
                lambda: mods.duality.dual_optimal(space, f))
    for n in (10, 14):
        space = mods.sampling.random_metric_space(rng, n)
        f = Problem.from_values(zero_sum_values(rng, n, n))
        lifted = mods.quotient.lift_plan(mods.transport.tc_norm(space, f)[1], n)
        measure("`quotient_norm` (simplex)", f"n={n}", "quotient.quotient",
                lambda: mods.quotient.quotient_norm(space, lifted))
    for n in (16, 20):
        space = mods.sampling.random_metric_space(rng, n)
        measure("`min_weight_perfect_matching`", f"{n} vertices", "matching.dp",
                lambda: mods.matching.min_weight_perfect_matching(space, range(n)))
    line = mods.sampling.random_line_space(rng, 24)
    pairs = mods.matching.PairSequence(consecutive_pairs(12))
    measure("`sign_pattern_isometry_check`", "12 pairs, passing", "l1embed.sweep",
            lambda: mods.l1embed.sign_pattern_isometry_check(line, pairs))
    tracer.uninstall()

    print("| layer | size | time |")
    print("| --- | --- | --- |")
    for row in rows:
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
