"""Record the reference outputs that the benchmark compares pass 0 against.

    PYTHONPATH=src python3 bench/record_reference.py

Runs pass 0 of every workload at the default seed and full size and writes
its outputs to bench/reference.json.  Re-record only when a change is meant to
alter these outputs, and say so where the change is described.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    workdir = HERE.parent / ".bench_build" / "reference"
    reference = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(workloads.SIZES["full"][name], workloads.DEFAULT_SEED, workdir)
            result = workload.check(0, workload.body(0, lambda: None))
            workload.cleanup(0)
            if result.failed:
                print(f"{name}: {result.failed} of {result.attempted} operations failed", file=sys.stderr)
                return 1
            reference[name] = result.outputs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
