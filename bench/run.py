#!/usr/bin/env python3
"""Benchmark entry point for ihtlab.

    python3 bench/run.py --workload recovery-map --seed 0 --seconds 20 --trace 0

Runs one workload (recovery-map, solve-large, bound-curves, stable-dist) in a
fresh measured process with ``IHTLAB_WORKERS=1`` and one BLAS thread, as a
closed loop.  Prints a human-readable report, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See bench/README.md.

Exits with code 2, printing no result, when the checkout has no ihtlab sources.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("recovery-map", "solve-large", "bound-curves", "stable-dist")
CHILD_TIMEOUT_S = 170

MEASURED_ENV = {
    "IHTLAB_WORKERS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def measured_env() -> dict:
    env = dict(os.environ, **MEASURED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, result_path: Path) -> int:
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size,
        "--result", str(result_path),
    ]
    # Own session, so a timeout can stop the child and its set-up probes together.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=measured_env(), stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"bench: measured process exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def print_report(result: dict) -> None:
    prov = result["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}  "
          f"timed passes {prov['timed_passes']}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'operations':<40} {result['attempted']} attempted, {result['failed']} failed")
    for name, value, unit in result["report"] + [["failed_frac", failed_frac, "ratio"]]:
        print(f"  {name:<40} {value:.6g} {unit}")
    for name, values in result["samples"].items():
        print(f"samples {name} (n={len(values)}): " + " ".join(f"{v:.4g}" for v in values))
    print("provenance " + json.dumps(prov, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: every code path in seconds, for the smoke test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "ihtlab" / "cli.py").is_file():
        print(f"bench: no ihtlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    result_path = ROOT / ".bench_build" / f"result-{os.getpid()}.json"
    result_path.parent.mkdir(exist_ok=True)
    try:
        code = run_child(args, result_path)
        if code != 0 or not result_path.exists():
            print(f"bench: measured process failed with exit code {code}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        result_path.unlink(missing_ok=True)
    print_report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
