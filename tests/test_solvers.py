import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ihtlab.core import (
    ProblemInstance,
    ProblemStack,
    RngSpec,
    SupportSet,
    hard_threshold,
    restrict,
    sample_gaussian_matrix,
    sample_instance,
    top_mask,
)
from ihtlab.errors import InvalidArgumentError, ShrinkageLoopError, SingularMatrixError
from ihtlab import solvers
from ihtlab.rip import rip_exact
from ihtlab.stablepoint import is_stable_point, min_norm_solution
from ihtlab.solvers import (
    DIVERGENCE_RATIO2,
    MAX_SHRINK_STEPS,
    SolverConfig,
    TERMINATION_MAX_ITERS,
    TERMINATION_STABLE_POINT,
    TERMINATION_STATIONARY,
    TERMINATION_STEP_TOL,
    check_iterate_inequalities,
    run_solver,
)


def iht_config(alpha=0.65, **kw):
    return SolverConfig(variant="iht", alpha=alpha, **kw)


def niht_config(**kw):
    return SolverConfig(variant="niht", **kw)


def lone_step(x, A, b, k, config):
    """``solvers._step`` from x on the ProblemStack of one instance:
    ``(alpha, used_shrinkage, x_next, stationary)``."""
    stack = ProblemStack(np.asarray(A, dtype=float)[None], np.asarray(b, dtype=float)[None], np.array([k]))
    X = np.asarray(x, dtype=float)[None]
    R = (stack.A[0] @ X[0] - stack.b[0])[None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        alpha, used, X_next, stationary = solvers._step(X, R, stack.A, stack.k, config, np.zeros(1, int), {})
    return float(np.ravel(alpha)[0]), bool(np.ravel(used)[0]), X_next[0], stationary is not None and stationary[0]


def brute_force_best_support(A, b, k):
    """Enumeration oracle: support minimising the least-squares residual."""
    best, best_res = None, np.inf
    for idx in combinations(range(A.shape[1]), k):
        sub = A[:, idx]
        y, *_ = np.linalg.lstsq(sub, b, rcond=None)
        res = np.linalg.norm(sub @ y - b)
        if res < best_res:
            best, best_res = idx, res
    return best, best_res


class TestSolverConfig:
    def test_iht_requires_alpha(self):
        with pytest.raises(InvalidArgumentError):
            SolverConfig(variant="iht")
        with pytest.raises(InvalidArgumentError):
            SolverConfig(variant="iht", alpha=0.0)

    def test_niht_parameter_constraint(self):
        with pytest.raises(InvalidArgumentError):
            SolverConfig(variant="niht", kappa=1.0, c=0.05)
        with pytest.raises(InvalidArgumentError):
            SolverConfig(variant="niht", kappa=1.02, c=0.05)
        SolverConfig(variant="niht", kappa=1.1, c=0.05)

    def test_unknown_variant(self):
        with pytest.raises(InvalidArgumentError):
            SolverConfig(variant="omp")

    @pytest.mark.parametrize("max_iters", [2.5, True, np.float64(3.0), "3"])
    def test_max_iters_must_be_an_integer(self, max_iters):
        # A float would reach range() and a bool would run as 0 or 1 iterations.
        with pytest.raises(InvalidArgumentError, match="max_iters must be an integer"):
            SolverConfig(variant="iht", alpha=0.5, max_iters=max_iters)

    def test_max_iters_takes_numpy_integers(self):
        assert SolverConfig(variant="niht", max_iters=np.int64(7)).max_iters == 7

    @pytest.mark.parametrize("variant, field", [
        ("iht", "alpha"), ("niht", "kappa"), ("niht", "c"), ("iht", "step_tol"),
    ])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", [0.5]])
    def test_float_fields_must_be_real_numbers(self, variant, field, value):
        # A bool would run: alpha=True as stepsize 1, step_tol=True as a stop after one iteration.
        kwargs = {"alpha": 0.5} if variant == "iht" else {}
        kwargs[field] = value
        with pytest.raises(InvalidArgumentError, match=f"{field} must be a number"):
            SolverConfig(variant=variant, **kwargs)

    def test_float_fields_take_numpy_numbers(self):
        iht = SolverConfig(variant="iht", alpha=np.float64(0.5), step_tol=np.float32(1e-10))
        niht = SolverConfig(variant="niht", kappa=np.float64(1.2), c=np.float32(0.05))
        assert (iht.alpha, niht.kappa) == (0.5, 1.2)


class TestGihtStep:
    def test_fixed_point_of_consistent_system(self):
        inst = sample_instance(30, 60, 4, 0.0, RngSpec(1))
        for alpha in (0.1, 0.65, 1.3):
            _, _, x_next, _ = lone_step(inst.x_star, inst.A, inst.b, inst.k, iht_config(alpha=alpha))
            np.testing.assert_allclose(x_next, inst.x_star, atol=1e-12)

    def test_first_step_from_zero(self):
        # From x0 = 0 the step is H_k(alpha * A^T b); with alpha = 1 and the
        # signal among the k largest gradient entries this is H_k(A^T b).
        gen = RngSpec(2).generator()
        Q, _ = np.linalg.qr(gen.standard_normal((20, 20)))
        A = Q[:, :12]
        x_star = np.zeros(12)
        x_star[[2, 7]] = [3.0, -2.0]
        b = A @ x_star
        x0 = np.zeros(12)
        _, _, x_next, _ = lone_step(x0, A, b, 2, iht_config(alpha=1.0))
        np.testing.assert_allclose(x_next, hard_threshold(A.T @ b, 2), atol=1e-14)

    def test_formula_oracle(self):
        gen = RngSpec(3).generator()
        A = gen.standard_normal((8, 14))
        b = gen.standard_normal(8)
        x = gen.standard_normal(14)
        alpha = 0.37
        oracle = hard_threshold(x - alpha * (A.T @ (A @ x - b)), 5)
        _, _, x_next, _ = lone_step(x, A, b, 5, iht_config(alpha=alpha))
        np.testing.assert_array_equal(x_next, oracle)

    def test_requires_positive_alpha(self):
        # The constant stepsize reaches the step only through a SolverConfig,
        # which refuses alpha <= 0 before any step is taken.
        with pytest.raises(InvalidArgumentError):
            lone_step(np.zeros(4), np.eye(4), np.zeros(4), 2, iht_config(alpha=0.0))


class TestRunIht:
    def test_monte_carlo_recovery_rate(self):
        successes = 0
        for seed in range(100):
            inst = sample_instance(100, 200, 5, 0.0, RngSpec(1000 + seed))
            trace = run_solver(inst, iht_config())
            if np.linalg.norm(trace.final - inst.x_star) <= 1e-6:
                successes += 1
        assert successes >= 95

    def test_brute_force_recovery_oracle_tiny_scale(self):
        # Cross-check the recovery criterion against enumeration: whenever
        # the solver reports success, its support is the global least-squares
        # optimum over all supports.
        agreements = 0
        for seed in range(20):
            inst = sample_instance(16, 24, 2, 0.0, RngSpec(2000 + seed))
            trace = run_solver(inst, iht_config(alpha=0.5))
            if np.linalg.norm(trace.final - inst.x_star) <= 1e-6:
                best, best_res = brute_force_best_support(inst.A, inst.b, 2)
                assert SupportSet(best) == inst.true_support
                assert best_res <= 1e-10
                agreements += 1
        assert agreements >= 10

    def test_zero_measurements(self):
        A = sample_gaussian_matrix(20, 40, RngSpec(4))
        x_star = np.zeros(40)
        x_star[[1, 5]] = [1.0, -1.0]
        inst = ProblemInstance(A=A, b=np.zeros(20), x_star=x_star, e=-A @ x_star, k=2)
        trace = run_solver(inst, iht_config())
        assert trace.termination_reason == TERMINATION_STEP_TOL
        assert trace.n_iterations == 1
        np.testing.assert_array_equal(trace.final, np.zeros(40))

    def test_one_sparse_orthonormal_recovery_in_one_iteration(self):
        A = np.eye(10)
        x_star = np.zeros(10)
        x_star[3] = 2.5
        inst = ProblemInstance.from_parts(A, x_star, np.zeros(10), k=1)
        trace = run_solver(inst, iht_config(alpha=1.0))
        np.testing.assert_allclose(trace.iterates[1].x, x_star)
        assert trace.n_iterations <= 2

    def test_trace_contract(self):
        inst = sample_instance(40, 80, 3, 0.1, RngSpec(5))
        trace = run_solver(inst, iht_config())
        assert len(trace.iterates) >= 1
        np.testing.assert_array_equal(trace.iterates[0].x, np.zeros(80))
        for rec in trace.iterates:
            assert rec.support == SupportSet.support_of(rec.x)
            assert np.count_nonzero(rec.x) <= inst.k
        assert all(np.isfinite(rec.alpha) for rec in trace.iterates[:-1])
        assert np.isnan(trace.iterates[-1].alpha)

    def test_determinism(self):
        config = iht_config()
        t1 = run_solver(sample_instance(50, 100, 4, 0.2, RngSpec(6)), config)
        t2 = run_solver(sample_instance(50, 100, 4, 0.2, RngSpec(6)), config)
        assert t1.termination_reason == t2.termination_reason
        assert len(t1.iterates) == len(t2.iterates)
        for r1, r2 in zip(t1.iterates, t2.iterates):
            np.testing.assert_array_equal(r1.x, r2.x)


class TestNihtStepsize:
    def test_orthonormal_support_gives_unit_step(self):
        gen = RngSpec(7).generator()
        Q, _ = np.linalg.qr(gen.standard_normal((20, 20)))
        A = Q[:, :10]
        x = np.zeros(10)
        x[[0, 4]] = [1.0, 2.0]
        # Keep the residual inside span(A_gamma) so the trial support is
        # preserved and the exact-linesearch value is returned.
        z = np.zeros(10)
        z[[0, 4]] = [0.25, 2.5]
        b = A @ z
        alpha, used_shrinkage, _, _ = lone_step(x, A, b, 2, niht_config())
        assert not used_shrinkage
        assert alpha == pytest.approx(1.0, abs=1e-12)

    def test_stationary_signal_at_solution(self):
        inst = sample_instance(30, 60, 3, 0.0, RngSpec(8))
        *_, stationary = lone_step(inst.x_star, inst.A, inst.b, inst.k, niht_config())
        assert stationary

    def test_shrinkage_exit_inequality(self):
        # Force support changes and re-verify the loop exit condition.
        config = niht_config()
        checked = 0
        for seed in range(40):
            inst = sample_instance(24, 48, 3, 0.3, RngSpec(3000 + seed))
            gen = RngSpec(4000 + seed).generator()
            x = hard_threshold(gen.standard_normal(48), 3)
            alpha, used_shrinkage, x_next, stationary = lone_step(x, inst.A, inst.b, inst.k, config)
            if stationary or not used_shrinkage:
                continue
            diff = x_next - x
            denom = np.linalg.norm(inst.A @ diff) ** 2
            if denom > 0 and np.linalg.norm(diff) > 0:
                assert alpha < (1 - config.c) * np.linalg.norm(diff) ** 2 / denom
                checked += 1
        assert checked >= 5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_shrink_accepts_a_trial_step_in_the_null_space(self):
        # Columns 0 and 1 are equal, so A (x_trial - x) = 0 for x = e0 and
        # x_trial = e1: omega = ||diff||^2 / 0 is infinite and the
        # sufficient-decrease test accepts the first stepsize.
        A = sample_gaussian_matrix(4, 6, RngSpec(2))
        A[:, 1] = A[:, 0]
        x, x_trial = np.eye(6)[0], np.eye(6)[1]
        alpha, got, _ = solvers._shrink(0.7, x_trial, x, np.ones(6), A, np.array([1]), niht_config())
        assert alpha == 0.7
        np.testing.assert_array_equal(got, x_trial)


class TestRunNiht:
    def test_monte_carlo_recovery_rate(self):
        successes = 0
        for seed in range(100):
            inst = sample_instance(100, 200, 5, 0.0, RngSpec(5000 + seed))
            trace = run_solver(inst, niht_config())
            if np.linalg.norm(trace.final - inst.x_star) <= 1e-6:
                successes += 1
        assert successes >= 95

    def test_zero_measurements_terminates_immediately(self):
        A = sample_gaussian_matrix(20, 40, RngSpec(9))
        x_star = np.zeros(40)
        x_star[[0, 3]] = [1.0, 1.0]
        inst = ProblemInstance(A=A, b=np.zeros(20), x_star=x_star, e=-A @ x_star, k=2)
        trace = run_solver(inst, niht_config())
        assert trace.termination_reason == TERMINATION_STATIONARY
        np.testing.assert_array_equal(trace.final, np.zeros(40))
        assert len(trace.iterates) == 1

    def test_stepsizes_within_rip_interval_tiny_scale(self):
        config = niht_config()
        for seed in range(20):
            inst = sample_instance(12, 18, 2, 0.0, RngSpec(6000 + seed))
            constants = rip_exact(inst.A, 2 * inst.k)
            lo = 1.0 / (config.kappa * (1.0 + constants.U))
            hi = (1.0 - config.c) / (1.0 - constants.L)
            trace = run_solver(inst, config)
            alphas = trace.stepsizes()
            assert len(alphas) >= 1
            assert np.all(alphas >= lo - 1e-12)
            assert np.all(alphas <= hi + 1e-12)

    def test_descent_identities(self):
        # Exact-linesearch steps decrease the objective by exactly
        # ||dx||^2/(2 alpha); shrinkage steps by at least c*||dx||^2/(2 alpha).
        for seed in range(20):
            inst = sample_instance(40, 80, 4, 0.2, RngSpec(7000 + seed))
            trace = run_solver(inst, niht_config())
            for rec, rec_next in zip(trace.iterates[:-1], trace.iterates[1:]):
                drop = rec_next.objective - rec.objective
                step2 = float(np.sum((rec_next.x - rec.x) ** 2))
                scale = max(1.0, abs(rec.objective))
                if rec.used_shrinkage:
                    assert drop <= -niht_config().c / (2 * rec.alpha) * step2 + 1e-10 * scale
                else:
                    assert drop == pytest.approx(-step2 / (2 * rec.alpha), abs=1e-10 * scale)

    def test_sparsity_invariant(self):
        inst = sample_instance(30, 90, 4, 0.5, RngSpec(10))
        trace = run_solver(inst, niht_config())
        for rec in trace.iterates:
            assert np.count_nonzero(rec.x) <= inst.k

    def test_determinism(self):
        config = niht_config()
        t1 = run_solver(sample_instance(50, 100, 4, 0.2, RngSpec(11)), config)
        t2 = run_solver(sample_instance(50, 100, 4, 0.2, RngSpec(11)), config)
        assert len(t1.iterates) == len(t2.iterates)
        for r1, r2 in zip(t1.iterates, t2.iterates):
            np.testing.assert_array_equal(r1.x, r2.x)
            assert r1.alpha == r2.alpha or (np.isnan(r1.alpha) and np.isnan(r2.alpha))


class TestIhtDescent:
    def test_monotone_descent_under_rip_stepsize(self):
        # alpha*(1 + U_{2k}) < 1 forces monotone objective decrease.
        for seed in range(20):
            inst = sample_instance(12, 18, 2, 0.0, RngSpec(8000 + seed))
            constants = rip_exact(inst.A, 2 * inst.k)
            alpha = 0.95 / (1.0 + constants.U)
            trace = run_solver(inst, iht_config(alpha=alpha))
            psis = trace.objectives()
            assert np.all(np.diff(psis) <= 1e-12 * np.maximum(1.0, psis[:-1]))


class TestCheckIterateInequalities:
    def test_iht_traces_clean(self):
        for seed in range(10):
            inst = sample_instance(60, 120, 5, 0.1, RngSpec(9000 + seed))
            trace = run_solver(inst, iht_config())
            report = check_iterate_inequalities(trace, inst.A, inst.b)
            assert report.ok, report.violations[:3]

    def test_niht_traces_clean(self):
        for seed in range(10):
            inst = sample_instance(60, 120, 5, 0.1, RngSpec(9500 + seed))
            trace = run_solver(inst, niht_config())
            report = check_iterate_inequalities(trace, inst.A, inst.b)
            assert report.ok, report.violations[:3]

    def test_single_iterate_vacuous(self):
        A = sample_gaussian_matrix(20, 40, RngSpec(12))
        x_star = np.zeros(40)
        x_star[[0, 1]] = 1.0
        inst = ProblemInstance(A=A, b=np.zeros(20), x_star=x_star, e=-A @ x_star, k=2)
        trace = run_solver(inst, niht_config())
        report = check_iterate_inequalities(trace, inst.A, inst.b)
        assert report.n_pairs == 0
        assert report.ok


def test_max_iters_termination():
    inst = sample_instance(30, 60, 3, 0.0, RngSpec(13))
    trace = run_solver(inst, iht_config(alpha=0.9, max_iters=3, step_tol=0.0))
    assert trace.termination_reason in (TERMINATION_MAX_ITERS, TERMINATION_STEP_TOL)
    assert len(trace.iterates) <= 5


def test_niht_non_finite_linesearch_ends_with_max_iters():
    # Overflowing measurements make the linesearch quotient inf/inf; the run
    # must stop like a divergent IHT run instead of shrinking a NaN stepsize.
    x_star = np.zeros(40)
    x_star[[1, 5]] = [1.0, -1.0]
    inst = ProblemInstance.from_parts(
        sample_gaussian_matrix(20, 40, RngSpec(1)), x_star, np.full(20, 1e307), 2
    )
    assert run_solver(inst, iht_config()).termination_reason == TERMINATION_STEP_TOL
    trace = run_solver(inst, niht_config())
    assert trace.termination_reason == TERMINATION_MAX_ITERS
    # It stops after one iterate and is charged its whole budget.
    assert len(trace.iterates) == 2 and trace.n_iterations == niht_config().max_iters
    assert not np.all(np.isfinite(trace.final))


def cap_stack(scale=1.0):
    """Eight slices at n = 20, N = 40 that share A: k = 1-8 on b = A x* + e
    times ``scale``.  At alpha = 0.65 slice 3 converges and slices 5-7
    diverge; at alpha = 1 all but slice 0 diverge."""
    gen = RngSpec(5).generator()
    A = sample_gaussian_matrix(20, 40, RngSpec(5))
    b = np.stack([A[:, :k] @ np.ones(k) + 0.01 * gen.standard_normal(20) for k in range(1, 9)])
    return ProblemStack(np.broadcast_to(A, (8, 20, 40)).copy(), b * scale, np.arange(1, 9))


@pytest.mark.parametrize("config", [iht_config(alpha=0.65, max_iters=300, step_tol=0.0),
                                    niht_config(max_iters=300, step_tol=0.0)], ids=["iht", "niht"])
def test_power_of_two_scale_of_b_moves_no_slice(config):
    # Every iterate and residual scales exactly with b, and the cap with
    # ||b||^2, so each slice ends as it does at scale 1.
    plain, scaled = run_solver(cap_stack(), config), run_solver(cap_stack(2.0**-400), config)
    assert scaled.termination == plain.termination
    np.testing.assert_array_equal(scaled.iterations, plain.iterations)
    np.testing.assert_array_equal(scaled.final * 2.0**400, plain.final)
    if config.variant == "iht":
        # The stack holds a fixed point and capped slices.
        assert TERMINATION_STEP_TOL in plain.termination
        assert np.isnan(plain.final).all(axis=1).any()


@pytest.mark.parametrize("scale", [0.0, 1e-170])
def test_zero_norm_b_is_never_capped(scale, monkeypatch):
    # ||b||^2 = 0, exactly or by underflow: the run equals the uncapped one,
    # although at 1e-170 the diverging iterates leave ||r||^2 > 0.
    config = iht_config(alpha=1.0, max_iters=300, step_tol=0.0)
    with np.errstate(under="ignore"):
        capped = run_solver(cap_stack(scale), config)
        monkeypatch.setattr(solvers, "DIVERGENCE_RATIO2", math.inf)
        uncapped = run_solver(cap_stack(scale), config)
    assert capped.termination == uncapped.termination
    np.testing.assert_array_equal(capped.iterations, uncapped.iterations)
    np.testing.assert_array_equal(capped.final, uncapped.final)
    if scale:
        assert np.isfinite(capped.final).all() and np.any(capped.final != 0.0)


# ---------------------------------------------------------------------------
# Reference loop: the step and linesearch bodies written out plainly, with a
# full stable argsort for the projection and SupportSet bookkeeping, as the
# oracle for the shared iteration kernel.


class ReferenceStationary(Exception):
    """The reference linesearch's stepsize is 0/0: the iterate is stationary."""


def reference_top_support(v, k):
    return SupportSet.from_iterable(np.argsort(-np.abs(v), kind="stable")[:k])


def reference_threshold(v, k):
    out = np.zeros_like(v)
    idx = reference_top_support(v, k).as_array()
    out[idx] = v[idx]
    return out


def reference_linesearch(x, gamma, A, b, k, config, reductions=None):
    g = A.T @ (b - A @ x)  # negative gradient
    g_gamma = g[gamma.as_array()]
    num = float(g_gamma @ g_gamma)
    den_vec = restrict(A, gamma) @ g_gamma
    den = float(den_vec @ den_vec)
    if num == 0.0 or den == 0.0:
        raise ReferenceStationary
    alpha = num / den
    x_trial = reference_threshold(x + alpha * g, k)
    if not np.all(np.isfinite(x_trial)) or SupportSet.support_of(x_trial) == gamma:
        return alpha, False, x_trial
    alpha, x_trial, count = reference_shrink(alpha, x_trial, x, g, A, k, config)
    if reductions is not None:
        reductions.append(count)
    return alpha, True, x_trial


def reference_shrink(alpha, x_trial, x, g, A, k, config):
    """The shrink loop one reduction at a time along the negative gradient g,
    from the trial point x_trial of alpha: (alpha, x_trial, reductions)."""
    for count in range(MAX_SHRINK_STEPS):
        diff = x_trial - x
        diff_norm2 = float(diff @ diff)
        if diff_norm2 == 0.0:
            return alpha, x_trial, count
        a_diff = A @ diff
        a_diff_norm2 = float(a_diff @ a_diff)
        if a_diff_norm2 == 0.0 or alpha < (1.0 - config.c) * diff_norm2 / a_diff_norm2:
            return alpha, x_trial, count
        alpha /= config.kappa * (1.0 - config.c)
        x_trial = reference_threshold(x + alpha * g, k)
    raise ShrinkageLoopError("no exit")


def reference_run(A, b, k, config, reductions=None):
    """(records, termination) with records (x, alpha, objective, used_shrinkage);
    each N-IHT shrink appends its number of reductions to ``reductions``."""

    def objective(x):
        r = A @ x - b
        return 0.5 * float(r @ r)

    records, reason = [], TERMINATION_MAX_ITERS
    x = np.zeros(A.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        b_norm2 = float(b @ b)
        cap = DIVERGENCE_RATIO2 * b_norm2 if b_norm2 > 0 else math.inf
        for _ in range(config.max_iters):
            if config.variant == "iht":
                alpha, used = config.alpha, False
                x_next = reference_threshold(x - alpha * (A.T @ (A @ x - b)), k)
            else:
                gamma = SupportSet.support_of(x)
                if len(gamma) == 0:
                    g0 = A.T @ (b - A @ x)
                    if not np.any(g0):
                        reason = TERMINATION_STATIONARY
                        break
                    gamma = reference_top_support(g0, k)
                try:
                    alpha, used, x_next = reference_linesearch(x, gamma, A, b, k, config, reductions)
                except ReferenceStationary:
                    reason = TERMINATION_STATIONARY
                    break
            records.append((x, alpha, objective(x), used))
            step = float(np.linalg.norm(x_next - x))
            x = x_next
            r = A @ x - b
            # Diverged: a non-finite iterate or a residual above the cap.
            if not (np.all(np.isfinite(x)) and float(r @ r) <= cap):
                x = np.full_like(x, math.nan)
                break
            if step <= config.step_tol:
                reason = TERMINATION_STEP_TOL
                break
        records.append((x, math.nan, objective(x), False))
    return records, reason


def outcome(run, *args):
    try:
        return run(*args)
    except ShrinkageLoopError as exc:
        return type(exc)


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def draw_instance(draw, n, N):
    k = draw(st.integers(1, n // 2))
    if draw(st.booleans()):
        # Integer-valued A and b force tied magnitudes in the projection.
        A = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * N, max_size=n * N)), float)
        b = np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)), float)
        A = A.reshape(n, N)
    else:
        gen = RngSpec(draw(st.integers(0, 2**32))).generator()
        A = gen.standard_normal((n, N)) / math.sqrt(n)
        b = gen.standard_normal(n)
    x_star = np.zeros(N)
    x_star[:k] = 1.0
    return ProblemInstance(A=A, b=b, x_star=x_star, e=b - A @ x_star, k=k)


@st.composite
def small_stacks(draw):
    """1-6 instances that share (n, N), each with its own k, A and b, and one
    solver configuration."""
    n = draw(st.integers(2, 8))
    N = draw(st.integers(n, 12))
    instances = [draw_instance(draw, n, N) for _ in range(draw(st.integers(1, 6)))]
    common = dict(
        max_iters=draw(st.integers(1, 60)),
        step_tol=draw(st.sampled_from([0.0, 1e-10])),
    )
    if draw(st.booleans()):
        config = iht_config(alpha=draw(st.sampled_from([0.01, 0.1, 0.3, 0.65, 1.0, 1e8])), **common)
    else:
        config = niht_config(**common)
    return instances, config


def stack_of(instances):
    return ProblemStack(
        np.stack([inst.A for inst in instances]),
        np.stack([inst.b for inst in instances]),
        np.array([inst.k for inst in instances]),
    )


def int_instance(A, b, k):
    A, b = np.array(A, float), np.array(b, float)
    x_star = np.zeros(A.shape[1])
    x_star[:k] = 1.0
    return ProblemInstance(A=A, b=b, x_star=x_star, e=b - A @ x_star, k=k)


# At alpha = 0.1 IHT on the first slice cycles with period 2 to the budget,
# found by an anchor every 2 iterates; the second slice converges.
CYCLE_A = [[3, -3, 0, 1], [0, 3, 3, 2], [0, 3, -3, 1]]


@settings(max_examples=300, deadline=None)
@given(small_stacks())
@example(([int_instance(CYCLE_A, [-2, -2, 2], 1), int_instance(CYCLE_A, [3, 0, 0], 1)],
          iht_config(alpha=0.1, max_iters=30, step_tol=0.0)))
def test_kernel_matches_reference_loop_exactly(drawn):
    instances, config = drawn
    expected = [outcome(reference_run, inst.A, inst.b, inst.k, config) for inst in instances]

    # The whole stack, slice by slice: final iterate, iteration count and
    # termination reason.  A slice whose reference run raises raises the
    # stack's run, with the exception type of one such slice.  Runs of at most
    # 60 iterations seldom reach an anchor of the cycle stop, so the stack
    # runs again with an anchor every 2 iterates.
    stack = stack_of(instances)
    raised = {e for e in expected if isinstance(e, type)}
    for anchor in (solvers.CYCLE_ANCHOR, 2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "CYCLE_ANCHOR", anchor)
            result = outcome(run_solver, stack, config)
        if raised:
            assert result in raised
            continue
        for i, (records, reason) in enumerate(expected):
            np.testing.assert_array_equal(result.final[i], records[-1][0])
            # A diverged run is charged its whole budget; the others, the
            # iterations they ran.
            assert result.iterations[i] == (config.max_iters if reason == TERMINATION_MAX_ITERS else len(records) - 1)
            assert result.termination[i] == reason
            assert not result.period[i] or reason == TERMINATION_MAX_ITERS

    # The stack of one: the full trace of the first instance.
    inst = instances[0]
    trace = outcome(run_solver, inst, config)
    if isinstance(expected[0], type):
        assert trace is expected[0]
        return
    records, reason = expected[0]
    assert trace.termination_reason == reason
    assert len(trace.iterates) == len(records)
    # The trace is charged what the stack charges slice 0, a diverged run its budget.
    assert trace.n_iterations == (config.max_iters if reason == TERMINATION_MAX_ITERS else len(records) - 1)
    if not raised:
        assert trace.n_iterations == result.iterations[0]
    for rec, (x, alpha, obj, used) in zip(trace.iterates, records):
        np.testing.assert_array_equal(rec.x, x)
        assert same_float(rec.alpha, alpha)
        assert same_float(rec.objective, obj)
        assert rec.used_shrinkage == used
        assert rec.support == SupportSet.support_of(x)
    with np.errstate(over="ignore", invalid="ignore"):
        assert check_iterate_inequalities(trace, inst.A, inst.b).ok


# ---------------------------------------------------------------------------
# The shrink ladder against the reduction-by-reduction loop.  In each built
# case x = e0, the negative gradient g moves weight onto the other columns and
# k keeps the entries of x - alpha * grad that the stepsize decides: above a
# stepsize of 1 the trial point leaves x's support, below it the rung meets
# the case's acceptance.  A starting stepsize of edge * s**(rung - 0.5), with
# s = kappa*(1-c), puts the accepting edge between rungs rung - 1 and rung,
# half a reduction from either.

SHRINK = niht_config().kappa * (1.0 - niht_config().c)


def shrink_case(name):
    """(x, g, A, k, edge) of a built case: ``decrease`` passes the
    sufficient-decrease test below alpha = 2 with the trial point alpha e1;
    ``null`` and ``null_space`` fail it above alpha = 1 and accept below,
    ``null`` with x itself as the trial point (a null step) and
    ``null_space`` with A (x_trial - x) = 0 (omega infinite)."""
    c = niht_config().c
    if name == "decrease":
        # ||A d||^2 = (1-c)/2 ||d||^2, so the test reads alpha < 2.
        return np.eye(2)[0], np.eye(2)[1], math.sqrt((1.0 - c) / 2.0) * np.eye(2), 1, 2.0
    if name == "null":
        return np.eye(2)[0], np.eye(2)[1], 10.0 * np.eye(2), 1, 1.0
    # k = 2 of (1, alpha, 2 alpha): entries 1 and 2 above alpha = 1, entries
    # 0 and 2 below it, when the step moves only the zero column 2 of A.
    return np.eye(3)[0], np.array([0.0, 1.0, 2.0]), 10.0 * np.eye(2, 3), 2, 1.0


def shrink_both(name, rung):
    """``solvers._shrink`` and ``reference_shrink`` from the same rung 0 of
    ``name``'s case: each result, or the exception type it raised."""
    x, g, A, k, edge = shrink_case(name)
    alpha = edge * SHRINK ** (rung - 0.5)
    x_trial = reference_threshold(x + alpha * g, k)
    got = outcome(solvers._shrink, alpha, x_trial, x, -g, A, np.array([k]), niht_config())
    want = outcome(reference_shrink, alpha, x_trial, x, g, A, k, niht_config())
    return got, want


def assert_same_rung(got, want, rung):
    assert got[0] == want[0]
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2] == rung


@pytest.mark.parametrize("rung", [0, 1, solvers.SHRINK_BLOCK - 1, solvers.SHRINK_BLOCK, solvers.SHRINK_BLOCK + 1])
def test_shrink_ladder_accepts_the_rung_the_loop_accepts(rung):
    got, want = shrink_both("decrease", rung)
    assert_same_rung(got, want, rung)
    assert np.count_nonzero(got[1]) == 1 and got[1][1] > 1.0


@pytest.mark.parametrize("name", ["null", "null_space"])
@pytest.mark.parametrize("rung", [1, solvers.SHRINK_BLOCK - 1, solvers.SHRINK_BLOCK + 1, 3 * solvers.SHRINK_BLOCK])
def test_shrink_ladder_accepts_a_null_step_and_an_infinite_omega_above_rung_0(name, rung):
    got, want = shrink_both(name, rung)
    assert_same_rung(got, want, rung)
    x, _, A, _, _ = shrink_case(name)
    diff = got[1] - x
    if name == "null":
        assert not diff.any()
    else:
        assert diff.any() and not (A @ diff).any()


@pytest.mark.parametrize(
    "limit", [1, solvers.SHRINK_BLOCK - 3, solvers.SHRINK_BLOCK, solvers.SHRINK_BLOCK + 1, 2 * solvers.SHRINK_BLOCK + 5]
)
def test_shrink_ladder_raises_at_exactly_the_reduction_limit(monkeypatch, limit):
    # Rung `limit` is the first to pass: with `limit` rungs allowed both raise,
    # with one more both accept it, also when the last block holds one rung.
    monkeypatch.setattr(solvers, "MAX_SHRINK_STEPS", limit)
    monkeypatch.setitem(globals(), "MAX_SHRINK_STEPS", limit)
    assert shrink_both("null", limit) == (ShrinkageLoopError, ShrinkageLoopError)
    monkeypatch.setattr(solvers, "MAX_SHRINK_STEPS", limit + 1)
    monkeypatch.setitem(globals(), "MAX_SHRINK_STEPS", limit + 1)
    assert_same_rung(*shrink_both("null", limit), limit)


def test_shrink_ladder_raises_at_the_shipped_limit():
    assert shrink_both("null", MAX_SHRINK_STEPS) == (ShrinkageLoopError, ShrinkageLoopError)
    assert_same_rung(*shrink_both("null", MAX_SHRINK_STEPS - 1), MAX_SHRINK_STEPS - 1)


def test_shrink_steps_count_the_reference_reductions():
    # Hard cells, where N-IHT shrinks often and some shrinks pass a block.
    instances = [sample_instance(40, 80, 12, 0.0, RngSpec(8000 + seed)) for seed in range(6)]
    stack = ProblemStack(
        np.stack([inst.A for inst in instances]),
        np.stack([inst.b for inst in instances]),
        np.array([inst.k for inst in instances]),
    )
    config = niht_config(max_iters=400)
    result = run_solver(stack, config)
    counts = []
    for i, inst in enumerate(instances):
        reductions = []
        records, _ = reference_run(inst.A, inst.b, inst.k, config, reductions)
        np.testing.assert_array_equal(result.final[i], records[-1][0])
        assert result.shrink_steps[i] == sum(reductions)
        counts += reductions
    assert max(counts) > solvers.SHRINK_BLOCK
    assert not run_solver(stack, iht_config(max_iters=50)).shrink_steps.any()


def assert_stack_matches_reference(instances, config):
    """Run ``instances`` as one stack and each through ``reference_run``:
    equal final iterates, iteration counts, terminations and shrink
    reductions.  Returns the reference records of each slice."""
    result = run_solver(stack_of(instances), config)
    records = []
    for i, inst in enumerate(instances):
        reductions = []
        recs, reason = reference_run(inst.A, inst.b, inst.k, config, reductions)
        np.testing.assert_array_equal(result.final[i], recs[-1][0])
        assert (result.iterations[i], result.termination[i]) == (len(recs) - 1, reason)
        assert result.shrink_steps[i] == sum(reductions)
        records.append(recs)
    return records


def supports(records):
    return [np.flatnonzero(x).tolist() for x, *_ in records]


def test_linesearch_gathers_survive_slices_leaving_the_stack():
    # k = 3-6 over eight draws: slices of several |gamma| groups end at
    # different iterations while others hold their supports across the
    # leave, where gathers indexed by the old slice order would misindex.
    instances = [sample_instance(20, 60, 3 + i % 4, 0.0, RngSpec(8100 + i)) for i in range(8)]
    records = assert_stack_matches_reference(instances, niht_config(max_iters=400))
    ends = {len(recs) - 1 for recs in records}
    held = [supports(recs) for recs in records]
    assert len(ends) > 4
    assert any(len(s) - 1 > m and s[m - 1] == s[m] for m in ends for s in held)


def test_linesearch_regathers_when_a_support_changes_after_a_long_hold():
    # Slice 0 holds one support for 47 iterates and then leaves it.
    instances = [sample_instance(20, 60, 6, 0.0, RngSpec(8105)), sample_instance(20, 60, 4, 0.0, RngSpec(8101))]
    records = assert_stack_matches_reference(instances, niht_config(max_iters=400))
    held, holds = 1, []
    for before, after in zip(supports(records[0]), supports(records[0])[1:]):
        held, holds = (held + 1, holds) if before == after else (1, holds + [held])
    assert max(holds) >= 40


def cycling_instance():
    """IHT at alpha = 0.65 and 1,300 iterations cycles with period 2 from
    iterate 177 on this draw."""
    return sample_instance(40, 133, 8, 0.0, RngSpec(3, 3).substream(0, 0))


def counting_steps(monkeypatch):
    """Patch ``solvers._step`` to count its calls in the returned list."""
    calls, step_ = [], solvers._step
    monkeypatch.setattr(solvers, "_step", lambda *args: calls.append(1) or step_(*args))
    return calls


def test_cycling_slice_ends_with_the_trace_outcome_in_fewer_steps(monkeypatch):
    inst, config = cycling_instance(), iht_config(alpha=0.65, max_iters=1300)
    trace = run_solver(inst, config)
    assert len(trace.iterates) == 1301
    calls = counting_steps(monkeypatch)
    result = run_solver(ProblemStack.of(inst), config)
    assert result.final[0].tobytes() == trace.final.tobytes()
    assert result.iterations[0] == trace.n_iterations == 1300
    assert result.termination == [trace.termination_reason] == [TERMINATION_MAX_ITERS]
    assert result.period[0] == 2 and len(calls) < 1300


class CycleStopRan(Exception):
    pass


class UnusedAnchor:
    """A ``CYCLE_ANCHOR`` that raises once the loop computes an anchor."""

    def __rmod__(self, m):
        raise CycleStopRan


@pytest.mark.parametrize("problem, config, finish", [
    (ProblemStack.of(cycling_instance()), niht_config(max_iters=1300), False),
    (ProblemStack.of(cycling_instance()), iht_config(alpha=0.65, max_iters=1300), True),
    (cycling_instance(), iht_config(alpha=0.65, max_iters=1300), False),
], ids=["niht", "finish", "trace"])
def test_cycle_stop_never_runs_for_niht_the_finish_or_a_trace(problem, config, finish, monkeypatch):
    monkeypatch.setattr(solvers, "CYCLE_ANCHOR", UnusedAnchor())
    with pytest.raises(CycleStopRan):
        run_solver(ProblemStack.of(cycling_instance()), iht_config(alpha=0.65, max_iters=1300))
    calls = counting_steps(monkeypatch)
    result = run_solver(problem, config, finish=finish)
    if finish:
        # The cycle changes support every step, so the finish never tests it
        # and the slice runs every step to the budget.
        assert (result.termination, len(calls), result.period[0]) == ([TERMINATION_MAX_ITERS], 1300, 0)


SPECIAL_VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.inf, -math.inf, math.nan]


ENTRIES = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats())


def python_top(values, k):
    """The k kept indices by definition: lowest index wins ties; NaN ranks
    below every number."""
    order = sorted(
        range(len(values)),
        key=lambda i: (math.isnan(values[i]), 0.0 if math.isnan(values[i]) else -abs(values[i]), i),
    )
    return sorted(order[:k])


@st.composite
def selections(draw):
    """A vector with its k, and a (T, N) stack of rows with one k per row.
    Stack entries come from a pool of at most three values and their
    negatives, or are free, so magnitudes repeat at the k-th and both the
    value-sort selection and its stable-order fallback run."""
    values = draw(st.lists(ENTRIES, min_size=1, max_size=12))
    k = draw(st.integers(1, len(values)))
    N = draw(st.integers(1, 12))
    pool = draw(st.lists(ENTRIES, min_size=1, max_size=3))
    entry = st.one_of(st.sampled_from(pool), st.sampled_from(pool).map(lambda x: -x), ENTRIES)
    rows = draw(st.lists(st.lists(entry, min_size=N, max_size=N), min_size=1, max_size=5))
    ks = draw(st.one_of(
        st.lists(st.integers(1, N), min_size=len(rows), max_size=len(rows)),
        st.integers(1, N).map(lambda j: [j] * len(rows)),
    ))
    return values, k, rows, ks


@settings(max_examples=300, deadline=None)
@given(selections())
# A tie at the k-th magnitude in row 0; NaN below the k-th number in row 1.
@example(([1.0, -1.0], 1, [[1.0, -3.0, 3.0, 2.0], [math.nan, 1.0, math.nan, 5.0]], [1, 3]))
# A tie with one mark too many in row 0, a NaN k-th value in row 1.
@example(([math.nan], 1, [[1.0, 1.0], [math.nan, math.nan]], [1, 1]))
def test_top_mask_matches_python_ordering(drawn):
    values, k, rows, ks = drawn
    assert np.flatnonzero(top_mask(np.array(values, dtype=float), k)).tolist() == python_top(values, k)
    mask = top_mask(np.array(rows, dtype=float), np.array(ks))
    for row, k_row, row_mask in zip(rows, ks, mask):
        assert np.flatnonzero(row_mask).tolist() == python_top(row, k_row)


# ---------------------------------------------------------------------------
# The certified finish.


def diagonal_stack(N=6):
    """One slice, n = N, A = diag(2, 2, 1, ..., 1), k = 2 and b = A x̄ with
    x̄ = (1, 1, 0, ..., 0): on the support {0, 1}, s_max = 2, and off it the
    gradient vanishes at x̄."""
    A = np.diag([2.0, 2.0] + [1.0] * (N - 2))
    x_bar = np.zeros(N)
    x_bar[:2] = 1.0
    return ProblemStack(A[None], (A @ x_bar)[None], np.array([2])), x_bar


@pytest.mark.parametrize("alpha_s2, finishes", [(1.98, True), (2.0, False), (2.02, False)])
def test_finish_requires_a_contracting_step(alpha_s2, finishes):
    # Near x̄ (d = 0.01) the margin holds, so alpha * s_max^2 < 2 alone
    # decides the test.  Run from 0, IHT at 1.98 contracts by 0.98 a step and
    # finishes at x̄ once d < 1/1.99 (fewer iterations than step_tol takes);
    # at 2.02 it oscillates away from x̄ to max_iters.
    stack, x_bar = diagonal_stack()
    config = iht_config(alpha=alpha_s2 / 4, max_iters=200)
    A, b = stack.A[0], stack.b[0]
    x = x_bar + 0.01 * np.eye(6)[0]
    got = solvers._certified_point(A, b, x, 2, config.alpha, np.linalg.norm(A, axis=0))
    assert (got is not None) == finishes
    if alpha_s2 == 2.0:
        return
    result = run_solver(stack, config, finish=True)
    if finishes:
        np.testing.assert_array_equal(got, x_bar)
        assert result.termination == [TERMINATION_STABLE_POINT]
        assert result.iterations[0] < run_solver(stack, config).iterations[0]
        np.testing.assert_allclose(result.final[0], x_bar, rtol=1e-15)
    else:
        assert result.termination == [TERMINATION_MAX_ITERS]


def test_finish_refuses_an_alpha_stable_point_outside_the_margin():
    # x̄ = (1, 0) on the support {0} is alpha-stable at alpha = 0.5: its one
    # off-support correlation is a_1^T w = 1 and |x̄_0| = 1 >= 0.5.  From an
    # iterate at distance d = 0.5 the margin 1 - d > 0.5 (1 + d) fails and no
    # finish is certified; at d = 0.01 it holds.
    A = np.array([[1.0, 0.6], [0.0, 0.8], [0.0, 0.0]])
    b = np.array([1.0, 1.25, 0.0])
    a_norms = np.linalg.norm(A, axis=0)
    x_bar = np.array([1.0, 0.0])
    assert is_stable_point(x_bar, SupportSet.from_iterable([0]), 0.5, A, b, tol=1e-12).is_stable
    assert solvers._certified_point(A, b, np.array([1.5, 0.0]), 1, 0.5, a_norms) is None
    np.testing.assert_allclose(solvers._certified_point(A, b, np.array([1.01, 0.0]), 1, 0.5, a_norms), x_bar)


def test_finish_refuses_rank_deficient_support():
    A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    a_norms = np.linalg.norm(A, axis=0)
    assert solvers._certified_point(A, np.array([1.0, 0.0]), np.array([0.5, 0.5, 0.0]), 2, 0.5, a_norms) is None


def test_finish_refuses_a_support_past_the_rank_rule_of_every_least_squares_solve():
    # cond(A_Γ) = 1e13: above core.RANK_DEFICIENCY_CONDITION, though LAPACK's
    # gelsd (rcond = eps * max(n, k)) would count the rank as 2 and the margin
    # holds, b being consistent with no off-support column.  The finish
    # refuses the support as min_norm_solution does.
    A = np.diag([1.0, 1e-13])
    b = A @ np.ones(2)
    assert solvers._certified_point(A, b, np.array([1.01, 1.0]), 2, 0.5, np.linalg.norm(A, axis=0)) is None
    with pytest.raises(SingularMatrixError):
        min_norm_solution(A, b, SupportSet((0, 1)))


def test_finish_needs_a_full_support():
    # An iterate with fewer than k nonzeros: H_k may take any zero entry
    # next, so no support is certified, although x̄ on {0} fits b exactly.
    A = np.eye(3)
    assert solvers._certified_point(A, np.array([1.0, 0.0, 0.0]), np.eye(3)[0], 2, 0.5, np.ones(3)) is None
    np.testing.assert_array_equal(solvers._certified_point(A, np.eye(3)[0], np.eye(3)[0], 1, 0.5, np.ones(3)), np.eye(3)[0])


@pytest.mark.parametrize("problem, config", [
    (cap_stack(), niht_config()),
    (sample_instance(20, 40, 2, 0.0, RngSpec(1)), iht_config()),
], ids=["niht", "trace"])
def test_finish_refused_for_niht_and_traces(problem, config):
    with pytest.raises(InvalidArgumentError, match="certified finish"):
        run_solver(problem, config, finish=True)


def test_finish_ends_each_slice_at_its_step_tol_limit():
    # Slices that converge under step_tol end on stable_point no later, at a
    # point within 1e-9 relative of their step_tol final; the slices that
    # diverge or run to the budget end as before, and the stack's result is
    # the result of its slices run as stacks of one.
    config = iht_config(alpha=0.65, max_iters=300)
    plain, finished = run_solver(cap_stack(), config), run_solver(cap_stack(), config, finish=True)
    assert TERMINATION_STABLE_POINT in finished.termination
    for i, (reason, got) in enumerate(zip(plain.termination, finished.termination)):
        if reason == TERMINATION_MAX_ITERS:
            assert got == reason
            np.testing.assert_array_equal(finished.final[i], plain.final[i])
        else:
            assert got in (TERMINATION_STEP_TOL, TERMINATION_STABLE_POINT)
            assert finished.iterations[i] <= plain.iterations[i]
            np.testing.assert_allclose(finished.final[i], plain.final[i], rtol=0, atol=1e-9 * np.linalg.norm(plain.final[i]))
    stack = cap_stack()
    for i in range(len(stack.k)):
        one = run_solver(ProblemStack(stack.A[i : i + 1], stack.b[i : i + 1], stack.k[i : i + 1]), config, finish=True)
        assert one.termination == [finished.termination[i]]
        assert one.iterations[0] == finished.iterations[i]
        np.testing.assert_array_equal(one.final[0], finished.final[i])
