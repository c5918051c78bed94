#!/usr/bin/env python3
"""Benchmark for tcspace: one seeded workload per invocation, single process, one thread.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the checkout the script sits in, never from an installed copy.  Set-up
(import, input generation, which validates every space, and file
writing) is repeated at least ``SETUP_MIN_REPEATS`` times and for at
least ``SETUP_MIN_SECONDS``, and its median reported.
The timed part then repeats whole rounds of the workload's operations
and stops at the round boundary nearest to ``--seconds`` of operation
time.  Every output is
checked apart from the program after its operation's timer stops.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the
traced ones; spans are written to ``perfbench/out/`` when the run ends.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import tempfile
import traceback
import types
from pathlib import Path
from time import perf_counter

from tracing import COUNT_METRICS, LAYER_METRICS, Tracer, layers_by_round
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Set-up repeats at least this often and for at least this long; cheap
# set-ups get more repeats, so their median is steadier.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
MODULES = ("cli", "duality", "l1embed", "matching", "metric", "quotient", "sampling", "transport")

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def import_tcspace():
    """Import the package afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "tcspace" or m.startswith("tcspace.")]:
        del sys.modules[name]
    package = importlib.import_module("tcspace")
    if Path(package.__file__).resolve().parent != SRC / "tcspace":
        raise ImportError(f"tcspace imported from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"tcspace.{name}") for name in MODULES}
    )


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate and write the inputs; returns (modules, round, seconds)."""
    gc.collect()
    start = perf_counter()
    mods = import_tcspace()
    ops = WORKLOADS[workload](mods, seed, workdir)
    return mods, ops, perf_counter() - start


def run_round(ops, tracer: Tracer | None, times: list[float], tally: dict) -> float:
    """Run every operation once, timing each and checking it afterwards."""
    gc.collect()
    total = 0.0
    for op in ops:
        tally["attempted"] += 1
        try:
            start = perf_counter()
            result = op.run() if tracer is None else tracer.call("op", op.run)
            elapsed = perf_counter() - start
        except Exception:
            tally["failed"] += 1
            print(f"operation {op.name} raised:", file=sys.stderr)
            traceback.print_exc()
            continue
        times.append(elapsed)
        total += elapsed
        if tracer is not None:
            tracer.uninstall()
        try:
            op.check(result)
        except Exception as exc:
            # A malformed report fails its check the same way a wrong value does.
            tally["failed"] += 1
            tally["correct"] = False
            print(f"operation {op.name} gave a wrong result: {exc!r}", file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.install()
    return total


def end_to_end(ops, seconds: float, setup_times: list[float], tally: dict) -> dict:
    times: list[float] = []
    round_times = [run_round(ops, None, times, tally)]
    while sum(round_times) + statistics.median(round_times) / 2 < seconds:
        round_times.append(run_round(ops, None, times, tally))
    per_round_ops = len(ops)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "ops_per_s": per_round_ops / statistics.median(round_times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mib,
    }
    tail = tail_ms(times)
    print(f"rounds {len(round_times)}, operations timed {len(times)}")
    if tail is not None:
        print(f"op_tail_ms {tail[1]:.3f} ms (p{tail[0]:.1f}, not a bounded metric)")
    return metrics


def tail_ms(times: list[float]):
    """The highest percentile with at least ten operations beyond it, from 40 operations on."""
    if len(times) < 40:
        return None
    ordered = sorted(times)
    rank = len(ordered) - 10
    return 100.0 * rank / len(ordered), 1e3 * ordered[rank - 1]


def traced(mods, ops, seconds: float, workload: str, seed: int, tally: dict) -> dict:
    tracer = Tracer(mods)
    plain_times: list[float] = []
    spent = 0.0
    traced_rounds = 0
    while traced_rounds == 0 or spent + spent / traced_rounds / 2 < seconds:
        plain_times.append(run_round(ops, None, [], tally))
        traced_rounds += 1
        tracer.round = traced_rounds
        tracer.install()
        try:
            spent += plain_times[-1] + run_round(ops, tracer, [], tally)
        finally:
            tracer.uninstall()
    rounds = list(layers_by_round(tracer.spans).values())
    for name in COUNT_METRICS:
        if any(layer[name] != rounds[0][name] for layer in rounds):
            raise RuntimeError(f"{name} differs between traced rounds")
    metrics = {
        name: rounds[0][name] if name in COUNT_METRICS else statistics.median(
            layer[name] for layer in rounds
        )
        for name in rounds[0]
    }
    plain_ms = 1e3 * statistics.median(plain_times)
    metrics["trace.untraced_ops_ms"] = plain_ms
    metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.ops_ms"] / plain_ms - 1.0)
    path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(path)
    shown = path.relative_to(ROOT)
    print(f"traced rounds {traced_rounds}, spans {len(tracer.spans)} written to {shown}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tcspace" / "__init__.py").is_file():
        print(f"error: no tcspace package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    tally = {"attempted": 0, "failed": 0, "correct": True}
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        setup_times: list[float] = []
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            workdir = Path(tmp) / f"setup{len(setup_times)}"
            workdir.mkdir()
            mods, ops, elapsed = set_up(args.workload, args.seed, workdir)
            setup_times.append(elapsed)
        if args.trace:
            metrics = traced(mods, ops, args.seconds, args.workload, args.seed, tally)
            units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        else:
            metrics = end_to_end(ops, args.seconds, setup_times, tally)
            units = END_TO_END
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"attempted {tally['attempted']} failed {tally['failed']}")
    result = {
        "correct": tally["correct"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8"
    )
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
