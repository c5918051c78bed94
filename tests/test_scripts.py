"""Smoke runs of the scripts and the benchmark on small arguments."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_norm_crosscheck():
    done = run_script("norm_crosscheck.py", "--count", "5")
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1]
    assert last == "all 5 instances agree across routes (seed 20260816)"


def test_family_report():
    done = run_script("family_report.py", "--max", "8", "--depth", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 15
    assert lines[-3:] == [
        "family e: 70 quadruples PASS",
        "  consecutive pairs: refuted at prefix 2: prescribed 41/12,"
        " a matching of weight 10/3 is lighter",
        "  crossed pairs:     inconclusive after 2 prefixes",
    ]


def traced_benchmark(workload: str) -> dict:
    """Metrics of a short traced benchmark run of ``workload`` (seed 3) that ran cleanly."""
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            *("--workload", workload, "--seed", "3"),
            *("--seconds", "0.5", "--trace", "1"),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    return report["metrics"]


def test_benchmark_traced_certify():
    # The tracer wraps solver and route functions by module attribute,
    # so a rename or move that it misses shows up here as no simplex calls.
    metrics = traced_benchmark("certify")
    assert metrics["solvers.simplex_calls"]["value"] > 0


def test_benchmark_traced_cli():
    # Validation is traced through FiniteMetricSpace.__post_init__; moving
    # it out of construction would show up here as no validate calls.
    metrics = traced_benchmark("cli")
    for name in ("metric.validate_calls", "matching.dp_calls", "l1embed.quadruples"):
        assert metrics[name]["value"] > 0, name


def test_benchmark_traced_l1sweep():
    # Each sign pattern's norm is one min-cost flow; a kernel change that
    # the tracer misses, or a second kernel call per norm, shows up here
    # as flow calls that differ from the norm calls.
    metrics = traced_benchmark("l1sweep")
    for name in ("solvers.flow_calls", "l1embed.patterns_per_sweep"):
        assert metrics[name]["value"] > 0, name
    assert (
        metrics["solvers.flow_calls"]["value"]
        == metrics["transport.tc_norm_calls"]["value"]
    )
