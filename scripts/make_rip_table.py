#!/usr/bin/env python3
"""Generate the default Gaussian RIP bound table shipped with the package.

For each rho knot the two-sided constants of order s = rho*n are estimated
by Monte Carlo: the extreme eigenvalues of T independent n x s Gaussian Gram
matrices (variance 1/n) are tracked and the running extremes taken.  This
is an inner estimate of the proportional-growth bounds: it resolves the
per-support spectral edge but not the union over exponentially many
supports, so the resulting U is smaller (and 1-L larger) than analytic
asymptotic upper bounds.  The delta axis carries two identical rows purely
to give the interpolation hull full coverage; the method cannot resolve the
delta dependence.  Downstream checks that depend on a bound table therefore
treat this file as a documented stand-in, not as a faithful digitisation of
published asymptotic bounds.

Usage: python scripts/make_rip_table.py [--n 400] [--trials 200] [--seed 20240601]
       [--out src/ihtlab/data/rip_table_default.csv]
"""
import argparse
from pathlib import Path

import numpy as np

RHO_KNOTS = [0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
DELTA_KNOTS = [0.001, 1.0]


def estimate_bounds(n: int, s: int, trials: int, rng: np.random.Generator) -> tuple[float, float]:
    min_eig = np.inf
    max_eig = -np.inf
    for _ in range(trials):
        G = rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, s))
        w = np.linalg.eigvalsh(G.T @ G)
        min_eig = min(min_eig, w[0])
        max_eig = max(max_eig, w[-1])
    return 1.0 - min_eig, max_eig - 1.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=400)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=20240601)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "src" / "ihtlab" / "data" / "rip_table_default.csv",
    )
    args = parser.parse_args()

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    L_vals = [0.0]
    U_vals = [0.0]
    for rho in RHO_KNOTS[1:]:
        s = max(1, round(rho * args.n))
        L, U = estimate_bounds(args.n, s, args.trials, rng)
        L_vals.append(max(0.0, L))
        U_vals.append(max(0.0, U))
        print(f"rho={rho:5.2f}  s={s:4d}  L={L_vals[-1]:.6f}  U={U_vals[-1]:.6f}")

    # RIP constants are nondecreasing in the order; enforce on the noisy
    # estimates.  The loader requires it of U; L only fills the v1 format's
    # L column, which the loader ignores, and is kept monotone and below 1
    # so the column stays a valid lower-constant estimate.
    L_vals = np.maximum.accumulate(L_vals)
    U_vals = np.maximum.accumulate(U_vals)
    L_vals = np.minimum(L_vals, 1.0 - 1e-9)

    lines = [
        "# rip-table v1; "
        f"source=wishart-monte-carlo(n={args.n},trials={args.trials},seed={args.seed}); "
        "inner estimate, no union-over-supports correction, delta-independent"
    ]
    for delta in DELTA_KNOTS:
        for rho, L, U in zip(RHO_KNOTS, L_vals, U_vals):
            lines.append(f"{delta},{rho},{L:.10g},{U:.10g}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
