#!/usr/bin/env python3
"""Emit the curve/surface grids behind the headline plots as CSV files.

Writes, into --outdir:
  phase_iht.csv      transition lower-bound curve for constant-stepsize IHT
  phase_niht.csv     same for N-IHT (configurable kappa)
  stepsize_iht.csv   admissible stepsize interval over rho at --delta
  xi_iht.csv         stability-factor surface for IHT (interval-midpoint alpha)
  xi_niht.csv        stability-factor surface for N-IHT

All outputs are deterministic; rerunning reproduces identical bytes.  Exit
codes are the CLI's: 0 success, 2 configuration error, 3 numerical error.
"""
import argparse
import sys
from pathlib import Path

import numpy as np

from ihtlab.cli import EXIT_OK, run_mapped
from ihtlab.rip import load_provider
from ihtlab.solvers import SOLVER_FIELDS
from ihtlab.transitions import default_delta_grid, grid_emit, write_grid_csv


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("figure_grids"))
    parser.add_argument("--rip-table", type=str, default=None)
    parser.add_argument("--kappa", type=float, default=SOLVER_FIELDS["kappa"].default)
    parser.add_argument("--delta", type=float, default=0.5, help="column for the stepsize grid")
    parser.add_argument("--grid-points", type=int, default=100)
    args = parser.parse_args(argv)

    delta_grid = default_delta_grid(args.grid_points)
    rho_grid = np.linspace(0.001, 0.5, args.grid_points)
    provider = load_provider(args.rip_table)
    args.outdir.mkdir(parents=True, exist_ok=True)

    jobs = [
        ("phase_iht.csv", grid_emit("phase_iht", provider, delta_grid)),
        ("phase_niht.csv", grid_emit("phase_niht", provider, delta_grid, kappa=args.kappa)),
        ("stepsize_iht.csv", grid_emit("stepsize_iht", provider, [args.delta], rho_grid=rho_grid)),
        ("xi_iht.csv", grid_emit("xi_iht", provider, delta_grid[::4], rho_grid=rho_grid[::4])),
        ("xi_niht.csv", grid_emit("xi_niht", provider, delta_grid[::4], rho_grid=rho_grid[::4], kappa=args.kappa)),
    ]
    for name, rows in jobs:
        path = args.outdir / name
        write_grid_csv(path, rows)
        print(f"wrote {path} ({len(rows) - 1} rows)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(run_mapped(main, sys.argv[1:]))
