"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import betainc, gammainc, gammaincc

from ihtlab.asymptotics import (
    TailInputs,
    f_cdf,
    shannon_entropy,
    tail_if,
    tail_il,
    tail_iu,
    temme_beta_eta,
    temme_gamma_eta,
)
from ihtlab.core import RngSpec, SupportSet, sample_instance
from ihtlab.experiments import (
    ExperimentConfig,
    run_experiment,
)
from ihtlab.rip import TableRipProvider, default_provider, rip_exact
from ihtlab.solvers import SolverConfig, check_iterate_inequalities, run_solver
from ihtlab.stablepoint import enumerate_stable_supports, is_stable_point
from ihtlab.transitions import (
    default_delta_grid,
    lhs_stable,
    rho_hat_iht,
    rho_hat_niht,
    stepsize_interval_iht,
)

BT_TABLE_ENV = "IHTLAB_BT_TABLE"


def report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"\ncriterion {num:2d} [{status}] {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: runtime {elapsed:.1f}s exceeded {budget:.0f}s"


def test_criterion_1_iterate_inequalities():
    start = time.time()
    violations = 0
    pairs = 0
    for seed in range(100):
        inst = sample_instance(100, 200, 5, 0.1, RngSpec(110_000 + seed))
        for trace in (
            run_solver(inst, SolverConfig(variant="iht", alpha=0.65)),
            run_solver(inst, SolverConfig(variant="niht")),
        ):
            rep = check_iterate_inequalities(trace, inst.A, inst.b, tol=1e-10)
            violations += len(rep.violations)
            pairs += rep.n_pairs
    report(
        1,
        violations == 0 and pairs > 0,
        f"projection/Taylor inequalities clean over {pairs} iterate pairs "
        f"(200 runs, {violations} violations)",
        time.time() - start,
        60,
    )


def test_criterion_2_descent_and_stepsize_interval():
    start = time.time()
    kappa, c = 1.1, 0.05
    monotone_ok = stable_ok = interval_ok = True
    for seed in range(100):
        inst = sample_instance(12, 18, 2, 0.0, RngSpec(120_000 + seed))
        constants = rip_exact(inst.A, 2 * inst.k)
        alpha = 0.95 / (1.0 + constants.U)
        trace = run_solver(inst, SolverConfig(variant="iht", alpha=alpha, step_tol=1e-12))
        psis = trace.objectives()
        if not np.all(np.diff(psis) <= 1e-12 * np.maximum(1.0, psis[:-1])):
            monotone_ok = False
        x_bar = trace.final
        gamma = SupportSet.support_of(x_bar)
        if len(gamma):
            if not is_stable_point(x_bar, gamma, alpha, inst.A, inst.b, tol=1e-8).is_stable:
                stable_ok = False
        ntrace = run_solver(inst, SolverConfig(variant="niht", kappa=kappa, c=c))
        lo = 1.0 / (kappa * (1.0 + constants.U))
        hi = (1.0 - c) / (1.0 - constants.L)
        alphas = ntrace.stepsizes()
        if len(alphas) and not (np.all(alphas >= lo - 1e-12) and np.all(alphas <= hi + 1e-12)):
            interval_ok = False
    report(
        2,
        monotone_ok and stable_ok and interval_ok,
        f"IHT monotone={monotone_ok}, limits stable={stable_ok}, "
        f"N-IHT stepsizes in RIP interval={interval_ok} (100 trials)",
        time.time() - start,
        60,
    )


def test_criterion_3_single_stable_support():
    start = time.time()
    n, N, k = 20, 30, 2
    alpha_bar = lhs_stable(n / N, k / n)
    hits, failures = 0, []
    for seed in range(100):
        inst = sample_instance(n, N, k, 0.0, RngSpec(130_000 + seed))
        reports = enumerate_stable_supports(inst.A, inst.b, k, alpha_bar, tol=1e-8)
        if [r.gamma for r in reports] == [inst.true_support]:
            hits += 1
        else:
            failures.append(130_000 + seed)
    if failures:
        print(f"criterion 3 failing instance seeds: {failures}")
    report(
        3,
        hits >= 95,
        f"exactly one stable support (the true one) in {hits}/100 instances "
        f"at alpha={alpha_bar:.3f}",
        time.time() - start,
        300,
    )


def test_criterion_4_distributional_suite():
    start = time.time()
    config = ExperimentConfig.from_dict(
        {"kind": "mc_distribution", "n": 100, "k": 10, "overlap": 5,
         "trials": 10_000, "master_seed": 20240601, "sigma": 1.0}
    )
    s = run_experiment(config).summary
    ks_keys = ("ks_f_ratio", "ks_r_quadratic", "ks_g_noise", "ks_s_noise",
               "ks_t_noise", "ks_rayleigh_full", "ks_rayleigh_inverse")
    ks_ok = all(s[key] <= s["ks_critical_99"] for key in ks_keys)
    ks_ok = ks_ok and s["ks_rayleigh_squared_two_sample"] <= s["ks_two_sample_critical_99"]
    zero_viol = s["violations_42"] == 0 and s["violations_43"] == 0 and s["violations_44"] == 0
    report(
        4,
        ks_ok and zero_viol,
        f"KS max {max(s[key] for key in ks_keys):.4f} <= critical {s['ks_critical_99']:.4f}; "
        f"one-sided violations {s['violations_42']}+{s['violations_43']}+{s['violations_44']} "
        "(10^4 trials)",
        time.time() - start,
        120,
    )


def test_criterion_5_tail_bound_residuals():
    start = time.time()
    worst = 0.0
    for delta in np.linspace(0.02, 1.0, 50):
        for rho in np.linspace(0.01, 0.5, 50):
            res_u = tail_iu(TailInputs(delta, rho, 1.0 - rho))
            res_l = tail_il(TailInputs(delta, rho, 1.0 - rho))
            res_f = tail_if(delta, rho)
            worst = max(worst, abs(res_u.residual), abs(res_l.residual), abs(res_f.residual))
    # Independent in-test bisection oracles at target 1.
    lo, hi = 0.0, 10.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mid - math.log1p(mid) <= 1 else (lo, mid)
    nu_u_oracle = (lo + hi) / 2
    lo, hi = 0.0, 1 - 1e-15
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if -mid - math.log1p(-mid) <= 1 else (lo, mid)
    nu_l_oracle = (lo + hi) / 2
    lo, hi = 1e-9, 0.5
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if shannon_entropy(mid) <= 0.5 else (lo, mid)
    rho_star = (lo + hi) / 2  # H(rho*) = 1/2 so the target is exactly 1
    nu_u = tail_iu(TailInputs(1.0, rho_star, 1.0)).value
    nu_l = tail_il(TailInputs(1.0, rho_star, 1.0)).value
    anchors_ok = (
        abs(nu_u_oracle - 2.1462) <= 1e-4
        and abs(nu_l_oracle - 0.8414) <= 1e-4
        and abs(nu_u - nu_u_oracle) <= 1e-4
        and abs(nu_l - nu_l_oracle) <= 1e-4
    )
    report(
        5,
        worst <= 1e-12 and anchors_ok,
        f"max defining-equation residual {worst:.2e} on 50x50 grid; "
        f"nu_U={nu_u:.5f}, nu_L={nu_l:.5f} match bisection oracles",
        time.time() - start,
        10,
    )


def test_criterion_6_temme_asymptotics_and_rates():
    start = time.time()
    svals = np.array([50, 100, 200, 400, 800], dtype=float)

    def fitted_slope(errors, etas, scales):
        corrected = np.log(errors) + scales * np.array(etas) ** 2 / 2
        return np.polyfit(np.log(scales), corrected, 1)[0]

    errs_q, etas_q, errs_p, etas_p, errs_b, etas_b = [], [], [], [], [], []
    for s in svals:
        eta, leading = temme_gamma_eta(s, 2.0 * s, "Q")
        errs_q.append(abs(gammaincc(s, 2.0 * s) - leading))
        etas_q.append(eta)
        eta, leading = temme_gamma_eta(s, 0.5 * s, "P")
        errs_p.append(abs(gammainc(s, 0.5 * s) - leading))
        etas_p.append(eta)
        eta, leading = temme_beta_eta(0.6 * s, 0.4 * s, 0.45)
        errs_b.append(abs(betainc(0.6 * s, 0.4 * s, 0.45) - leading))
        etas_b.append(eta)
    slope_q = fitted_slope(np.array(errs_q), etas_q, svals)
    slope_p = fitted_slope(np.array(errs_p), etas_p, svals)
    slope_b = fitted_slope(np.array(errs_b), etas_b, svals)
    slopes_ok = all(abs(sl + 0.5) <= 0.15 for sl in (slope_q, slope_p, slope_b))

    n = 400
    nu = 1.0
    emp_up = math.log(gammaincc(n / 2.0, n * (1 + nu) / 2.0)) / n
    rate_up = -0.5 * (nu - math.log1p(nu))
    nu = 0.5
    emp_lo = math.log(gammainc(n / 2.0, n * (1 - nu) / 2.0)) / n
    rate_lo = -0.5 * (-nu - math.log1p(-nu))
    k = 100
    f = 1.0
    emp_f = math.log(1.0 - f_cdf(f * (n - k + 1) / k, k, n - k + 1)) / n
    rate_f = -0.5 * (math.log1p(f) - (k / n) * math.log(f) - shannon_entropy(k / n))
    rates_ok = (
        abs(emp_up - rate_up) <= 0.05
        and abs(emp_lo - rate_lo) <= 0.05
        and abs(emp_f - rate_f) <= 0.05
    )
    report(
        6,
        slopes_ok and rates_ok,
        f"residual slopes Q/P/beta = {slope_q:.2f}/{slope_p:.2f}/{slope_b:.2f} "
        f"(target -0.5 +- 0.15); finite-n rate gaps "
        f"{abs(emp_up - rate_up):.3f}/{abs(emp_lo - rate_lo):.3f}/{abs(emp_f - rate_f):.3f}",
        time.time() - start,
        60,
    )


def test_criterion_7_phase_transition_ordering():
    start = time.time()
    provider = default_provider()
    grid = default_delta_grid(100)
    ordering_ok = True
    for delta in grid:
        iht = rho_hat_iht(float(delta), provider)
        niht = rho_hat_niht(float(delta), 1.1, provider)
        if not niht.rho_hat < iht.rho_hat:
            ordering_ok = False
    interval_ok = True
    for delta in grid[::10]:
        rho_hat = rho_hat_iht(float(delta), provider).rho_hat
        for factor in (0.5, 0.9, 0.99):
            if stepsize_interval_iht(float(delta), factor * rho_hat, provider) is None:
                interval_ok = False
        for factor in (1.01, 1.2):
            rho = factor * rho_hat
            if rho <= 0.5 and stepsize_interval_iht(float(delta), rho, provider) is not None:
                interval_ok = False
    report(
        7,
        ordering_ok and interval_ok,
        f"rho_hat(N-IHT) < rho_hat(IHT) on all 100 grid points={ordering_ok}; "
        f"interval nonempty iff rho < rho_hat={interval_ok}",
        time.time() - start,
        10,
    )


def test_criterion_8_oversampling_factors_conditional():
    start = time.time()
    table_path = os.environ.get(BT_TABLE_ENV)
    if table_path and Path(table_path).exists():
        provider = TableRipProvider.from_file(table_path)
        grid = default_delta_grid(100)
        inv_iht = max(1.0 / rho_hat_iht(float(d), provider).rho_hat for d in grid)
        inv_niht = max(1.0 / rho_hat_niht(float(d), 1.1, provider).rho_hat for d in grid)
        ok = abs(inv_iht - 138) <= 0.05 * 138 and abs(inv_niht - 154) <= 0.05 * 154
        report(
            8,
            ok,
            f"faithful table supplied: max 1/rho_hat IHT={inv_iht:.1f} (target 138+-5%), "
            f"N-IHT={inv_niht:.1f} (target 154+-5%)",
            time.time() - start,
            60,
        )
        return
    # Substitution path: the published oversampling factors 138/154 depend on
    # external asymptotic bound expressions that this package does not
    # reimplement; the shipped table is a documented Monte Carlo stand-in.
    # Per the conditional criterion, the check is replaced by the residual
    # and ordering checks of criteria 5 and 7.
    provider = default_provider()
    grid = default_delta_grid(20)
    substitution_ok = True
    for delta in grid:
        iht = rho_hat_iht(float(delta), provider)
        niht = rho_hat_niht(float(delta), 1.1, provider)
        if not (iht.saturated or iht.residual <= 1e-10):
            substitution_ok = False
        if not (niht.saturated or niht.residual <= 1e-10):
            substitution_ok = False
        if not niht.rho_hat < iht.rho_hat:
            substitution_ok = False
    worst = 0.0
    for delta in np.linspace(0.05, 1.0, 10):
        for rho in np.linspace(0.02, 0.5, 10):
            worst = max(worst, abs(tail_if(delta, rho).residual))
    print(
        "\ncriterion  8 [SUBSTITUTED] no externally faithful bound table supplied "
        f"(set {BT_TABLE_ENV} to enable the 138/154 check); replaced by residual "
        "and ordering checks per criteria 5 and 7"
    )
    report(
        8,
        substitution_ok and worst <= 1e-12,
        "substitution checks: transition residuals <= 1e-10, ordering strict, "
        f"tail residual max {worst:.1e}",
        time.time() - start,
        60,
    )


def test_criterion_9_noise_bound_compliance():
    start = time.time()
    provider = default_provider()
    rho_hat = rho_hat_iht(0.5, provider).rho_hat
    rho = rho_hat / 4
    noisy = run_experiment(ExperimentConfig.from_dict(
        {"kind": "mc_error_vs_xi", "n": 400, "delta": 0.5, "rho": rho,
         "sigma": 0.1, "trials": 200, "master_seed": 190_000,
         "solver": {"variant": "iht", "max_iters": 4000}}
    )).summary
    noiseless = run_experiment(ExperimentConfig.from_dict(
        {"kind": "mc_error_vs_xi", "n": 400, "delta": 0.5, "rho": rho,
         "sigma": 0.0, "trials": 50, "master_seed": 191_000,
         "solver": {"variant": "iht", "max_iters": 4000}}
    )).summary
    noisy_ok = noisy["compliant"] >= 0.95 * noisy["trials"]
    clean_ok = noiseless["compliance_rate"] == 1.0 and noiseless["error_bound"] == 1e-6
    report(
        9,
        noisy_ok and clean_ok,
        f"sigma=0.1: {noisy['compliant']}/{noisy['included']} within xi*sigma="
        f"{noisy['error_bound']:.3f} (k={noisy['k']}); sigma=0: all errors <= 1e-6",
        time.time() - start,
        600,
    )


def test_criterion_10_reproducibility(tmp_path, monkeypatch):
    start = time.time()
    # Enough CPUs that 4 workers are not clamped on a smaller host.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    configs = [
        {"kind": "mc_distribution", "n": 60, "k": 6, "overlap": 3,
         "trials": 300, "master_seed": 77, "sigma": 1.0,
         "output_path": "dist.json", "trial_csv_path": "dist.csv"},
        {"kind": "mc_transition", "n": 40, "delta_grid": [0.5, 0.8],
         "rho_grid": [0.05, 0.1], "trials": 20, "master_seed": 78,
         "solver": {"variant": "niht", "max_iters": 600},
         "output_path": "trans.json", "trial_csv_path": "trans.csv"},
    ]
    outputs = {}
    cwd = os.getcwd()
    try:
        for workers in ("1", "2", "4"):
            run_dir = tmp_path / f"workers{workers}"
            run_dir.mkdir()
            os.chdir(run_dir)
            os.environ["IHTLAB_WORKERS"] = workers
            for data in configs:
                run_experiment(ExperimentConfig.from_dict(data))
            outputs[workers] = {
                name: (run_dir / name).read_bytes()
                for name in ("dist.json", "dist.csv", "trans.json", "trans.csv")
            }
    finally:
        os.chdir(cwd)
        os.environ.pop("IHTLAB_WORKERS", None)
    identical = all(outputs["1"] == outputs[w] for w in ("2", "4"))
    report(
        10,
        identical,
        "result files byte-identical across 1/2/4 workers and reruns",
        time.time() - start,
        120,
    )
