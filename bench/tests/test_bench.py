"""Smoke test of the benchmark itself.

    python3 -m pytest bench/tests -q

Runs every workload at the tiny size, untraced and traced, and checks the
result line against BENCHMARK.json: every metric present with its unit, and
the correctness gate passing.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from ihtlab import core, solvers  # noqa: E402
import calibration  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
from tracer import Tracer  # noqa: E402
import workloads  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    done = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
        "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    workload = SPEC["workloads"][0]["name"]
    done = run_bench(tmp_path, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_reports_zero_calls_for_missing_function():
    tracer = Tracer()
    specs = [
        ("solvers.renamed_away", "ihtlab.solvers", "renamed_away", None),
        ("gone.fn", "ihtlab.no_such_module", "fn", None),
        ("core.hard_threshold", "ihtlab.core", "hard_threshold", None),
    ]
    with tracer.installed(specs):
        solvers.hard_threshold(np.arange(5.0), 2)
    assert tracer.stats("solvers.renamed_away").calls == 0
    assert tracer.stats("gone.fn").calls == 0
    assert tracer.stats("core.hard_threshold").calls == 1
    assert not hasattr(solvers.hard_threshold, "__wrapped__")


def test_ks_gate_counts_trials_of_failing_experiment():
    passing = (0.01, 400, None)
    failing = (0.5, 400, None)
    assert workloads.ks_failures([(400, [passing] * 8), (400, [passing] * 7 + [failing])]) == 400


def test_phase_reference_ignores_bisection_residual():
    curves = workloads.BoundCurves(workloads.SIZES["tiny"]["bound-curves"], 0, ROOT / ".bench_build")
    reference = {"phase_iht": ["0.5,0.25,2.7755575615628914e-16"]}
    assert curves.mismatches({"phase_iht": ["0.5,0.25,0"]}, reference) == 0
    assert curves.mismatches({"phase_iht": ["0.5,0.2500001,2.7755575615628914e-16"]}, reference) == 1


def test_solver_clock_keys_time_and_iterations_by_rows():
    clock = layers.SolverClock()
    config = solvers.SolverConfig(variant="iht", alpha=0.65, max_iters=20)
    small = core.sample_instance(20, 40, 2, 0.0, core.RngSpec(0, 0))
    large = core.sample_instance(40, 80, 2, 0.0, core.RngSpec(0, 1))
    with Tracer().installed(clock.specs()):
        iters = {inst.A.shape[0]: solvers.run_solver(inst, config).n_iterations for inst in (small, large)}
    assert clock.iterations == iters
    assert set(clock.seconds) == {20, 40} and all(s > 0 for s in clock.seconds.values())


def test_stopwatch_scales_each_step_by_the_calibration_beside_it(monkeypatch):
    ref = calibration.REFERENCE_S["mixed"]
    # Calibration before step 1, between the steps, after step 2.
    times = iter([ref, 3 * ref, ref])
    monkeypatch.setattr(measure, "calibration_s", lambda kind: next(times))
    # Clock reads: start, end of step 1, start of step 2, end of step 2,
    # restart, and a lap too soon after it to end a step.
    clock = iter([10.0, 12.0, 12.5, 13.5, 14.0, 14.0 + measure.MIN_STEP_S / 2])
    monkeypatch.setattr(measure, "time", SimpleNamespace(perf_counter=clock.__next__))
    watch = measure.Stopwatch("mixed")
    watch.start()
    watch.lap()
    watch.lap()
    watch.lap()
    assert watch.body_s == pytest.approx(3.0)
    # Each step over the mean of its two calibrations, 2 * ref.
    assert watch.scaled_s == pytest.approx(2.0 / 2 + 1.0 / 2)


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
