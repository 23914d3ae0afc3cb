import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ihtlab.core import ENUMERATION_CHUNK, RngSpec, SupportSet, restrict, sample_instance
from ihtlab.errors import BudgetExceededError, InvalidArgumentError
from ihtlab.rip import rip_exact
from ihtlab.solvers import SolverConfig, run_solver
from ihtlab.stablepoint import (
    enumerate_stable_supports,
    is_stable_point,
    min_norm_solution,
    stable_condition_terms,
)


class TestMinNormSolution:
    def test_true_support_noiseless_recovers_signal(self):
        inst = sample_instance(20, 40, 4, 0.0, RngSpec(1))
        x_bar = min_norm_solution(inst.A, inst.b, inst.true_support)
        np.testing.assert_allclose(x_bar, inst.x_star, atol=1e-10)

    def test_zero_rhs(self):
        inst = sample_instance(20, 40, 4, 0.0, RngSpec(2))
        np.testing.assert_array_equal(
            min_norm_solution(inst.A, np.zeros(20), SupportSet((0, 5))), np.zeros(40)
        )

    def test_empty_support_gives_zero(self):
        inst = sample_instance(20, 40, 4, 0.0, RngSpec(2))
        np.testing.assert_array_equal(min_norm_solution(inst.A, inst.b, SupportSet(())), np.zeros(40))

    def test_wrong_support_normal_equations(self):
        inst = sample_instance(20, 40, 4, 0.3, RngSpec(3))
        gamma = SupportSet((1, 7, 8, 20))
        x_bar = min_norm_solution(inst.A, inst.b, gamma)
        assert SupportSet.support_of(x_bar).issubset(gamma)
        resid = restrict(inst.A, gamma).T @ (inst.b - inst.A @ x_bar)
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(inst.b)


class TestIsStablePoint:
    def test_signal_is_stable_noiseless(self):
        inst = sample_instance(20, 40, 4, 0.0, RngSpec(4))
        for alpha in (0.01, 1.0, 100.0):
            report = is_stable_point(inst.x_star, inst.true_support, alpha, inst.A, inst.b)
            assert report.is_stable
            assert report.gradient_on_support_norm <= 1e-10
            assert report.max_off_support_gradient <= 1e-10

    def test_converged_iht_limit_is_stable(self):
        alpha = 0.65
        hits = 0
        for seed in range(20):
            inst = sample_instance(60, 120, 4, 0.1, RngSpec(100 + seed))
            trace = run_solver(inst, SolverConfig(variant="iht", alpha=alpha, step_tol=1e-12))
            if trace.termination_reason != "step_tol":
                continue
            x_bar = trace.final
            gamma = SupportSet.support_of(x_bar)
            if len(gamma) != inst.k:
                continue
            report = is_stable_point(x_bar, gamma, alpha, inst.A, inst.b, tol=1e-8)
            assert report.is_stable
            hits += 1
        assert hits >= 15

    def test_nonzero_gradient_not_stable(self):
        inst = sample_instance(20, 40, 4, 0.0, RngSpec(5))
        x = np.zeros(40)
        x[list(inst.true_support)] = 1.0  # not the least-squares solution
        report = is_stable_point(x, inst.true_support, 1.0, inst.A, inst.b)
        assert not report.is_stable
        assert report.gradient_on_support_norm > 1e-4

    def test_support_mismatch_rejected(self):
        inst = sample_instance(20, 40, 4, 0.0, RngSpec(6))
        bad = np.ones(40)
        with pytest.raises(InvalidArgumentError):
            is_stable_point(bad, inst.true_support, 1.0, inst.A, inst.b)


class TestStableConditionTerms:
    def test_noiseless_reduction(self):
        inst = sample_instance(20, 40, 4, 0.0, RngSpec(7))
        gamma = SupportSet.from_iterable(list(inst.true_support)[:2] + [30, 31])
        terms = stable_condition_terms(inst.A, inst.x_star, inst.e, gamma, inst.true_support)
        assert terms.lhs_noise == 0.0
        assert terms.rhs_noise == 0.0

    def test_signal_terms_positive(self):
        positives = 0
        for seed in range(1000):
            inst = sample_instance(12, 24, 2, 0.0, RngSpec(10_000 + seed))
            lam = list(inst.true_support)
            gamma = SupportSet.from_iterable([lam[0], (lam[1] + 1) % 24 if (lam[1] + 1) % 24 != lam[0] else (lam[1] + 2) % 24])
            if gamma == inst.true_support:
                continue
            terms = stable_condition_terms(inst.A, inst.x_star, inst.e, gamma, inst.true_support)
            if terms.lhs_signal > 0 and terms.rhs_signal > 0:
                positives += 1
        assert positives >= 990

    def test_explicit_projector_oracle(self):
        inst = sample_instance(14, 28, 3, 0.4, RngSpec(8))
        lam = inst.true_support
        gamma = SupportSet.from_iterable([list(lam)[0], 20, 21])
        terms = stable_condition_terms(inst.A, inst.x_star, inst.e, gamma, lam)
        Al = inst.A.astype(np.longdouble)
        sub = Al[:, gamma.as_array()]
        pinv = np.linalg.inv((sub.T @ sub).astype(float)) @ sub.T.astype(float)
        proj = np.eye(14) - sub.astype(float) @ pinv
        diff = lam.difference(gamma)
        v = inst.A[:, diff.as_array()] @ inst.x_star[diff.as_array()]
        assert terms.lhs_signal == pytest.approx(np.linalg.norm(pinv @ v), rel=1e-9)
        assert terms.lhs_noise == pytest.approx(np.linalg.norm(pinv @ inst.e), rel=1e-9)
        assert terms.rhs_signal == pytest.approx(
            np.linalg.norm(inst.A[:, diff.as_array()].T @ proj @ v), rel=1e-9
        )
        assert terms.rhs_noise == pytest.approx(
            np.linalg.norm(inst.A[:, diff.as_array()].T @ proj @ inst.e), rel=1e-9
        )

    def test_equal_supports_rejected(self):
        inst = sample_instance(20, 40, 4, 0.0, RngSpec(9))
        with pytest.raises(InvalidArgumentError):
            stable_condition_terms(inst.A, inst.x_star, inst.e, inst.true_support, inst.true_support)

    def test_supports_of_unequal_size_rejected(self):
        inst = sample_instance(20, 40, 4, 0.1, RngSpec(9))
        with pytest.raises(InvalidArgumentError, match="equal cardinality"):
            stable_condition_terms(inst.A, inst.x_star, inst.e, SupportSet((0, 1, 2)), inst.true_support)


class TestEnumerateStableSupports:
    def test_orthonormal_single_column(self):
        gen = RngSpec(10).generator()
        Q, _ = np.linalg.qr(gen.standard_normal((8, 8)))
        A = Q[:, :6]
        b = A[:, 3].copy()
        reports = enumerate_stable_supports(A, b, 1, alpha_lb=0.5)
        assert [r.gamma for r in reports] == [SupportSet((3,))]

    def test_monotone_in_alpha(self):
        # Shrinking alpha relaxes the magnitude condition, so the stable sets
        # are nested.
        inst = sample_instance(14, 21, 2, 0.2, RngSpec(11))
        previous = None
        for alpha in (2.0, 1.0, 0.5, 0.1, 0.01):
            current = {r.gamma for r in enumerate_stable_supports(inst.A, inst.b, 2, alpha)}
            if previous is not None:
                assert previous <= current
            previous = current
        assert len(previous) >= 1

    def test_stable_points_satisfy_normal_equations(self):
        inst = sample_instance(14, 21, 2, 0.2, RngSpec(12))
        for report in enumerate_stable_supports(inst.A, inst.b, 2, 0.05):
            x_bar = min_norm_solution(inst.A, inst.b, report.gamma)
            resid = restrict(inst.A, report.gamma).T @ (inst.b - inst.A @ x_bar)
            assert np.max(np.abs(resid)) <= 1e-8

    def test_necessary_condition_on_enumerated_supports(self):
        # Every stable support other than the true one must satisfy the
        # inequality linking the four condition terms.
        found_offsupport = 0
        for seed in range(10):
            inst = sample_instance(14, 21, 2, 0.0, RngSpec(13_000 + seed))
            alpha = 0.02
            for report in enumerate_stable_supports(inst.A, inst.b, 2, alpha):
                if report.gamma == inst.true_support:
                    continue
                terms = stable_condition_terms(
                    inst.A, inst.x_star, inst.e, report.gamma, inst.true_support
                )
                assert terms.holds_for(alpha)
                found_offsupport += 1
        assert found_offsupport >= 3

    def test_solver_limits_appear_in_enumeration(self):
        # IHT limits under the RIP stepsize condition are alpha-stable points,
        # so enumeration at the same alpha must contain them.
        hits = 0
        for seed in range(10):
            inst = sample_instance(12, 18, 2, 0.0, RngSpec(14_000 + seed))
            constants = rip_exact(inst.A, 2 * inst.k)
            alpha = 0.9 / (1.0 + constants.U)
            trace = run_solver(inst, SolverConfig(variant="iht", alpha=alpha, step_tol=1e-13))
            x_bar = trace.final
            gamma = SupportSet.support_of(x_bar)
            if len(gamma) != inst.k or trace.termination_reason != "step_tol":
                continue
            stable_gammas = [r.gamma for r in enumerate_stable_supports(inst.A, inst.b, 2, alpha, tol=1e-7)]
            assert gamma in stable_gammas
            hits += 1
        assert hits >= 8

    def test_budget(self):
        A = np.zeros((40, 400))
        with pytest.raises(BudgetExceededError):
            enumerate_stable_supports(A, np.zeros(40), 5, 1.0)

    @pytest.mark.parametrize("where", ["A", "b"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_refused(self, where, bad):
        # Unchecked, a NaN in A fails in the SVD and a NaN in b makes no support stable.
        inst = sample_instance(8, 12, 2, 0.1, RngSpec(31))
        A, b = inst.A.copy(), inst.b.copy()
        (A[3] if where == "A" else b)[5] = bad
        with pytest.raises(InvalidArgumentError, match=f" {where} must be finite"):
            enumerate_stable_supports(A, b, 2, 0.5)


def test_single_stable_support_at_scale_example():
    # Noiseless desk-scale instances: with the stepsize threshold evaluated
    # at the instance's (delta, rho), enumeration typically finds one stable
    # support, the true one.
    from ihtlab.transitions import lhs_stable

    alpha_bar = lhs_stable(20 / 30, 2 / 20)
    exact = 0
    for seed in range(20):
        inst = sample_instance(20, 30, 2, 0.0, RngSpec(15_000 + seed))
        reports = enumerate_stable_supports(inst.A, inst.b, 2, alpha_bar)
        if [r.gamma for r in reports] == [inst.true_support]:
            exact += 1
    assert exact >= 19


@st.composite
def enumeration_instances(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(2 * k, 12))
    N = draw(st.integers(n, 15))
    sigma = draw(st.sampled_from([0.0, 0.3]))
    inst = sample_instance(n, N, k, sigma, RngSpec(draw(st.integers(0, 2**32 - 1))))
    return inst, draw(st.sampled_from([0.01, 0.1, 1.0, 10.0]))


def per_support_reports(inst, alpha):
    """The stable reports of one minimum-norm solve and one stable-point check
    per support, in lexicographic order."""
    reports = []
    for idx in combinations(range(inst.N), inst.k):
        gamma = SupportSet(idx)
        x_bar = min_norm_solution(inst.A, inst.b, gamma)
        report = is_stable_point(x_bar, gamma, alpha, inst.A, inst.b)
        if report.is_stable:
            reports.append(report)
    return reports


@settings(max_examples=60, deadline=None)
@given(enumeration_instances())
def test_enumeration_equals_per_support_loop(case):
    inst, alpha = case
    assert enumerate_stable_supports(inst.A, inst.b, inst.k, alpha) == per_support_reports(inst, alpha)


def test_enumeration_over_several_chunks_equals_per_support_loop():
    inst = sample_instance(12, 15, 3, 0.3, RngSpec(16_000))
    assert math.comb(15, 3) > ENUMERATION_CHUNK
    reports = enumerate_stable_supports(inst.A, inst.b, 3, 0.01)
    assert len(reports) > 1 and reports == per_support_reports(inst, 0.01)
