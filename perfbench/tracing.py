"""Span tracing around calls into the tcspace layers, from outside the package.

The tracer replaces a function under the name its caller looks it up by
(a module global such as ``transport.simplex_solve``, or a class
attribute such as ``FiniteMetricSpace.__post_init__``) with a wrapper
that records a span: name, start, end, parent span and an optional
count taken from the result.  Spans stay in memory until the run ends.
``uninstall`` puts the original functions back, so untraced rounds and
the output checks run the program exactly as shipped.
"""

from __future__ import annotations

import json
from time import perf_counter

# Span fields, kept as plain lists so recording stays cheap.
NAME, START, END, PARENT, ROUND, COUNT = range(6)


class Tracer:
    def __init__(self, mods):
        self.mods = mods
        self.spans: list[list] = []
        self.round = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.round, 0])
        self._stack.append(idx)
        return idx

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self._enter(name)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            span = self.spans[idx]
            span[START] = start
            span[END] = end
        if count is not None:
            span[COUNT] = count(result)
        return result

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace every call made through ``owner.attr``."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, original, *args, count=count, **kwargs)

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        install_layers(self, self.mods)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for idx, span in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "round": span[ROUND],
                            "count": span[COUNT],
                        }
                    )
                    + "\n"
                )


def install_layers(tracer: Tracer, mods) -> None:
    """Wrap each layer's public entry points under every name they are called by."""
    cli, transport, duality, quotient = mods.cli, mods.transport, mods.duality, mods.quotient
    metric, matching, l1embed = mods.metric, mods.matching, mods.l1embed
    for owner in (transport, duality, quotient):
        tracer.wrap(owner, "simplex_solve", "solvers.simplex")
    tracer.wrap(transport, "min_cost_flow", "solvers.flow")
    for owner in (transport, l1embed, cli):
        tracer.wrap(owner, "tc_norm", "transport.tc_norm")
    for owner in (transport, cli):
        tracer.wrap(owner, "tc_brute_force", "transport.brute")
    for owner in (l1embed, cli):
        tracer.wrap(owner, "sign_pattern_isometry_check", "l1embed.sweep")
    tracer.wrap(
        cli,
        "quadruple_inequality_check",
        "l1embed.quad",
        count=lambda report: report.quadruples_checked,
    )
    for owner in (duality, cli):
        tracer.wrap(owner, "dual_optimal", "duality.dual")
    for owner in (quotient, cli):
        tracer.wrap(owner, "quotient_norm", "quotient.quotient")
    for owner in (matching, cli):
        tracer.wrap(owner, "min_weight_perfect_matching", "matching.dp")
    tracer.wrap(metric.FiniteMetricSpace, "__post_init__", "metric.validate")
    for attr in ("parse_metric", "parse_problem", "parse_edge_vector"):
        tracer.wrap(cli, attr, "rationals.parse")
    tracer.wrap(cli, "run", "cli.run")


# Per-layer metrics: name -> (unit, better).  Times are milliseconds per
# round and counts are per round; a round is the workload's fixed list of
# operations, so counts repeat exactly for a given seed.
LAYER_METRICS = {
    "solvers.simplex_calls": ("count", "lower"),
    "solvers.simplex_ms": ("ms", "lower"),
    "solvers.flow_calls": ("count", "lower"),
    "solvers.flow_ms": ("ms", "lower"),
    "transport.tc_norm_calls": ("count", "lower"),
    "transport.tc_norm_self_ms": ("ms", "lower"),
    "transport.brute_ms": ("ms", "lower"),
    "l1embed.patterns_per_sweep": ("count", "lower"),
    "l1embed.sweep_self_ms": ("ms", "lower"),
    "duality.dual_self_ms": ("ms", "lower"),
    "quotient.quotient_self_ms": ("ms", "lower"),
    "metric.validate_calls": ("count", "lower"),
    "metric.validate_ms": ("ms", "lower"),
    "rationals.parse_ms": ("ms", "lower"),
    "cli.run_self_ms": ("ms", "lower"),
    "matching.dp_calls": ("count", "lower"),
    "matching.dp_ms": ("ms", "lower"),
    "l1embed.quad_ms": ("ms", "lower"),
    "l1embed.quadruples": ("count", "lower"),
    "trace.ops_ms": ("ms", "lower"),
    "trace.untraced_ops_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

COUNT_METRICS = tuple(k for k, (unit, _) in LAYER_METRICS.items() if unit == "count")


def layers_by_round(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per-layer counts and times of each traced round.

    A span's self time is its duration minus the durations of its direct
    children.  Times are in milliseconds.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    totals: dict[int, dict[str, float]] = {}
    for idx, span in enumerate(spans):
        acc = totals.setdefault(span[ROUND], {})
        name = span[NAME]
        duration = span[END] - span[START]
        acc[name + ".calls"] = acc.get(name + ".calls", 0) + 1
        acc[name + ".ms"] = acc.get(name + ".ms", 0.0) + 1e3 * duration
        acc[name + ".self_ms"] = (
            acc.get(name + ".self_ms", 0.0) + 1e3 * (duration - child_time[idx])
        )
        acc[name + ".count"] = acc.get(name + ".count", 0) + span[COUNT]
        parent = span[PARENT]
        if name == "transport.tc_norm" and parent >= 0 and spans[parent][NAME] == "l1embed.sweep":
            acc["sweep_patterns"] = acc.get("sweep_patterns", 0) + 1
    result = {}
    for rnd, acc in totals.items():
        get = acc.get
        sweeps = get("l1embed.sweep.calls", 0)
        result[rnd] = {
            "solvers.simplex_calls": get("solvers.simplex.calls", 0),
            "solvers.simplex_ms": get("solvers.simplex.ms", 0.0),
            "solvers.flow_calls": get("solvers.flow.calls", 0),
            "solvers.flow_ms": get("solvers.flow.ms", 0.0),
            "transport.tc_norm_calls": get("transport.tc_norm.calls", 0),
            "transport.tc_norm_self_ms": get("transport.tc_norm.self_ms", 0.0),
            "transport.brute_ms": get("transport.brute.ms", 0.0),
            "l1embed.patterns_per_sweep": (
                get("sweep_patterns", 0) / sweeps if sweeps else 0
            ),
            "l1embed.sweep_self_ms": get("l1embed.sweep.self_ms", 0.0),
            "duality.dual_self_ms": get("duality.dual.self_ms", 0.0),
            "quotient.quotient_self_ms": get("quotient.quotient.self_ms", 0.0),
            "metric.validate_calls": get("metric.validate.calls", 0),
            "metric.validate_ms": get("metric.validate.ms", 0.0),
            "rationals.parse_ms": get("rationals.parse.self_ms", 0.0),
            "cli.run_self_ms": get("cli.run.self_ms", 0.0),
            "matching.dp_calls": get("matching.dp.calls", 0),
            "matching.dp_ms": get("matching.dp.ms", 0.0),
            "l1embed.quad_ms": get("l1embed.quad.ms", 0.0),
            "l1embed.quadruples": get("l1embed.quad.count", 0),
            "trace.ops_ms": get("op.ms", 0.0),
        }
    return result
