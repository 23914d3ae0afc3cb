"""The measured process: runs one workload for a time budget and writes the result.

``run.py`` starts this script with ``IHTLAB_WORKERS=1``, one BLAS thread and
``src/`` on ``PYTHONPATH``; it is not meant to be run by hand.

Pass 0 warms up (its outputs are checked, and compared with the reference at
the default seed).  Timed passes follow until ``--seconds`` of pass time is
spent.  Each step of a pass body is timed on its own, next to a fixed
calibration kernel, so that its time can also be given at a fixed reference
speed of the host (see ``Stopwatch`` and ``calibration.py``).  Set-up probes,
each a fresh interpreter that imports ``ihtlab.cli`` and loads the default RIP
provider, are spread over the timed passes.  With
``--trace 1`` every pass runs untraced and then again under the tracer, and
the result carries the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import ihtlab.cli
import ihtlab.rip
import numpy as np

import layers
import workloads
from calibration import calibration_s, scaled
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

MIN_PASSES = 3
# Set-up probes per run, by size: the tiny size keeps the smoke test short.
PROBES = {"full": 7, "tiny": 2}
PROBE_TIMEOUT_S = 60
PROBE = (
    "import statistics, sys, time\n"
    "t0 = time.perf_counter()\n"
    "import ihtlab.cli, ihtlab.rip\n"
    "t1 = time.perf_counter()\n"
    "ihtlab.rip.default_provider()\n"
    "t2 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from calibration import calibration_s\n"
    "print(t1 - t0, t2 - t0, statistics.median(calibration_s('mixed') for _ in range(3)))\n"
)


def setup_probe() -> tuple[float, float, float]:
    """(import seconds, import + provider seconds, the latter scaled to the
    reference speed by the mixed calibration kernel timed right after it), in
    a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(Path(__file__).resolve().parent)], cwd=ROOT,
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    import_s, setup_s, calibration = (float(v) for v in done.stdout.split())
    return import_s, setup_s, scaled(setup_s, calibration, "mixed")


# Public ihtlab functions that each run for about a millisecond to a tenth of
# a second, once per trial, grid point or support.  In untraced passes the
# stopwatch may end a step when one of them returns, so that steps are short
# next to the host's slow spells even inside one CLI call.  A function a
# refactor removes just ends no steps.
LAP_POINTS = (
    ("ihtlab.core", "sample_instance"),
    ("ihtlab.core", "sample_gaussian_matrix"),
    ("ihtlab.solvers", "run_solver"),
    ("ihtlab.stablepoint", "is_stable_point"),
    ("ihtlab.transitions", "rho_hat_iht"),
    ("ihtlab.transitions", "rho_hat_niht"),
    ("ihtlab.transitions", "stepsize_interval_iht"),
    ("ihtlab.transitions", "stability_factor_iht"),
    ("ihtlab.transitions", "stability_factor_niht"),
)
# Shortest step: a calibration kernel costs about 2 ms a step.
MIN_STEP_S = 0.05


class Stopwatch:
    """Times one pass body in steps: ``lap`` ends a step once it has run for
    ``MIN_STEP_S``, ``stop`` ends the last one.

    ``body_s`` is the sum of the step times.  ``scaled_s`` is the sum of the
    step times, each scaled to the reference speed by the mean of the times of
    the ``kind`` calibration kernel measured right before and right after it.  A shared host
    can slow by half for seconds at a time, so a step's pace is judged against
    a yardstick measured at the same moment.  Calibration time is not part of
    any step.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.body_s = 0.0
        self.scaled_s = 0.0
        self._calibration = self._start = math.nan

    def start(self) -> None:
        self._calibration = calibration_s(self.kind)
        self._start = time.perf_counter()

    def lap_specs(self) -> list[tuple]:
        """Tracer specs that call ``lap`` when a function of ``LAP_POINTS`` returns.
        Installed after other specs, they wrap them, so no other span's time
        includes a calibration."""
        return [
            (f"lap.{module}.{attr}", module, attr, lambda *_: self.lap())
            for module, attr in LAP_POINTS
        ]

    def lap(self) -> None:
        now = time.perf_counter()
        if now - self._start >= MIN_STEP_S:
            self._end_step(now)

    def stop(self) -> None:
        self._end_step(time.perf_counter())

    def _end_step(self, now: float) -> None:
        step = now - self._start
        calibration = calibration_s(self.kind)
        self.body_s += step
        self.scaled_s += scaled(step, (self._calibration + calibration) / 2, self.kind)
        self._calibration = calibration
        self._start = time.perf_counter()


def gradient_floor_us(n: int, N: int, seed: int) -> float:
    """Time of a bare ``A.T @ (A @ x - b)`` at shape (n, N), in microseconds."""
    rng = np.random.default_rng([seed, n, N])
    A = rng.standard_normal((n, N)) / np.sqrt(n)
    x = rng.standard_normal(N)
    b = rng.standard_normal(n)
    start = time.perf_counter()
    A.T @ (A @ x - b)
    reps = max(1, round(1e-3 / max(time.perf_counter() - start, 1e-9)))
    samples = []
    for _ in range(25):
        start = time.perf_counter()
        for _ in range(reps):
            A.T @ (A @ x - b)
        samples.append((time.perf_counter() - start) / reps)
    # A floor: the 10th percentile leaves out samples slowed by other tenants.
    return statistics.quantiles(samples, n=10, method="inclusive")[0] * 1e6


class Session:
    """Runs passes of one workload and keeps the tallies of a run."""

    def __init__(self, workload, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.ks: list[tuple[int, list]] = []

    def run_pass(self, index: int, tracer: Tracer, specs: list,
                 lap_points: bool = False) -> tuple[Stopwatch | None, "workloads.PassResult"]:
        """Body (timed step by step, under ``tracer``) then check (untimed);
        returns (the body's stopwatch, or None if the pass raised; result).
        With ``lap_points`` steps also end inside the body's calls (see
        ``LAP_POINTS``); traced passes leave them out, so that no span
        includes a calibration."""
        workload = self.workload
        try:
            watch = Stopwatch(workload.calibration)
            with tracer.installed(specs + (watch.lap_specs() if lap_points else [])):
                watch.start()
                raw = workload.body(index, watch.lap)
                watch.stop()
            result = workload.check(index, raw)
        except Exception:
            traceback.print_exc()
            ops = workload.operations()
            watch, result = None, workloads.PassResult(ops, ops, {})
        finally:
            workload.cleanup(index)
        if index == 0 and self.reference is not None and result.outputs:
            bad = workload.mismatches(result.outputs, self.reference)
            result.failed = min(result.attempted, result.failed + bad)
        self.attempted += result.attempted
        self.failed += result.failed
        if result.ks:
            self.ks.append((result.counts.get("trials", result.attempted), result.ks))
        return watch, result

    def ks_gate(self) -> None:
        """Count the trials of every experiment with a KS statistic above its critical value."""
        failed = workloads.ks_failures(self.ks)
        self.failed = min(self.attempted, self.failed + failed)


def timed_passes(session: Session, budget_s: float, probes: int, probe_log: list,
                 traced: tuple | None = None) -> list[dict]:
    """Passes 1, 2, ... until ``budget_s`` of pass time is spent; ``probes``
    set-up probes are spread over the same span.

    With ``traced = (tracer, specs)`` each pass runs a second time under the
    tracer right after its untraced run, so that both runs of a pass see the
    same state of a shared host.
    """
    passes: list[dict] = []
    durations: list[float] = []
    probe_due = [budget_s * (i + 0.5) / probes for i in range(probes)]
    spent = 0.0
    index = 1
    while True:
        while probe_due and spent >= probe_due[0]:
            probe_due.pop(0)
            probe_log.append(setup_probe())
        if len(passes) >= MIN_PASSES and spent + statistics.median(durations) > budget_s:
            break
        clock = layers.SolverClock()
        start = time.perf_counter()
        watch, result = session.run_pass(index, Tracer(), clock.specs(), lap_points=True)
        entry = {
            "index": index, "result": result,
            "body_s": watch.body_s if watch else math.nan,
            "scaled_s": watch.scaled_s if watch else math.nan,
            "solver_s": sum(clock.seconds.values()), "clock": clock,
        }
        if traced is not None:
            traced_watch = session.run_pass(index, *traced)[0]
            entry["traced_s"] = traced_watch.body_s if traced_watch else math.nan
        durations.append(time.perf_counter() - start)
        spent += durations[-1]
        passes.append(entry)
        index += 1
    for _ in probe_due:
        probe_log.append(setup_probe())
    return passes


def rate(passes: list[dict], count: str, seconds: str = "body_s") -> float | None:
    """Per-pass ``count`` per second, or None when the workload has no such count."""
    values = [p["result"].counts.get(count) for p in passes]
    if not all(values):
        return None
    return statistics.median([v / p[seconds] for v, p in zip(values, passes)])


def end_to_end(passes: list[dict], probe_log: list) -> tuple[dict, list]:
    """The contract metrics and the longer human-readable report."""
    metrics = {
        "setup_s": (statistics.median([s for _, _, s in probe_log]), "s"),
        "wall_scaled_s": (statistics.median([p["scaled_s"] for p in passes]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extras = {
        "wall_s": (statistics.median([p["body_s"] for p in passes]), "s"),
        "setup_wall_s": (statistics.median([s for _, s, _ in probe_log]), "s"),
        "trials_per_s": (rate(passes, "trials"), "1/s"),
        "iters_per_s": (rate(passes, "iterations", "solver_s"), "1/s"),
        "points_per_s": (rate(passes, "points"), "1/s"),
    }
    report = [(k, v, u) for k, (v, u) in {**metrics, **extras}.items() if v is not None]
    return metrics, report


def per_layer(tracer: Tracer, counters, passes: list[dict], probe_log: list, floors: dict,
              workload_name: str) -> dict:
    """Per-layer metrics from the traced runs of ``passes``."""
    extra = {
        "import_s": statistics.median([i for i, _, _ in probe_log]),
        "floors_us": floors,
        "shape": layers.WORKLOAD_SHAPE.get(workload_name, layers.DEFAULT_SHAPE),
        "untraced_clocks": [p["clock"] for p in passes],
        "traced_wall_s": statistics.median([p["traced_s"] for p in passes]),
        "overhead_s": statistics.median([p["traced_s"] - p["body_s"] for p in passes]),
    }
    units = {name: unit for name, unit, _ in layers.metric_table()}
    metrics = layers.layer_metrics(tracer, counters, len(passes), extra)
    return {k: (v, units[k]) for k, v in metrics.items()}


def blas_info() -> dict:
    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    info["threads"] = None
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    info["threads"] = int(getattr(lib, symbol)())
                    break
    except OSError:
        pass
    return info


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository (read without running git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def provenance(args, passes: int) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_passes": passes,
        "IHTLAB_WORKERS": os.environ.get("IHTLAB_WORKERS"),
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ihtlab": ihtlab.__version__,
        "ihtlab_path": str(Path(ihtlab.__file__).resolve().parent),
        "git_commit": git_commit(),
        "provider_id": ihtlab.rip.default_provider().provider_id,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    workdir = ROOT / ".bench_build" / f"work-{os.getpid()}"
    size = workloads.SIZES[args.size][args.workload]
    workload = workloads.WORKLOADS[args.workload](size, args.seed, workdir)
    reference = None
    if args.seed == workloads.DEFAULT_SEED and args.size == "full":
        reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[args.workload]
    session = Session(workload, reference)
    probe_log: list = []
    try:
        session.run_pass(0, Tracer(), [])
        if args.trace:
            floors = {shape: gradient_floor_us(*shape, args.seed) for shape in layers.FLOOR_SHAPES}
            tracer, counters = Tracer(), layers.Counters()
            traced = (tracer, layers.span_specs(counters))
            passes = timed_passes(session, args.seconds, PROBES[args.size], probe_log, traced)
            metrics = per_layer(tracer, counters, passes, probe_log, floors, args.workload)
            report = [(k, v, u) for k, (v, u) in metrics.items()]
        else:
            passes = timed_passes(session, args.seconds, PROBES[args.size], probe_log)
            metrics, report = end_to_end(passes, probe_log)
        session.ks_gate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": report,
        "samples": {
            "wall_s": [p["body_s"] for p in passes],
            "wall_scaled_s": [p["scaled_s"] for p in passes],
            "setup_s": [s for _, _, s in probe_log],
        },
        "provenance": provenance(args, len(passes)),
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
