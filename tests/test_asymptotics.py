import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from decimal import Decimal, localcontext

from hypothesis import given, settings, strategies as st
from scipy.special import betainc, betaincc, gammainc, gammaincc, lambertw, xlog1py, xlogy

from ihtlab import asymptotics
from ihtlab.asymptotics import (
    RootResult,
    TailInputs,
    binom_entropy_limit,
    chi2_cdf,
    chi2_rate,
    f_cdf,
    f_rate,
    scaled_f_cdf,
    shannon_entropy,
    tail_if,
    tail_il,
    tail_iu,
    temme_beta_eta,
    temme_gamma_eta,
)
from ihtlab.core import RngSpec
from ihtlab.errors import InvalidArgumentError, NumericalDomainError
from ihtlab.transitions import default_delta_grid


def bisect(g, target, lo, hi, iters=200):
    """Plain bisection oracle, independent of the package root-finder."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) <= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestShannonEntropy:
    def test_half(self):
        assert shannon_entropy(0.5) == pytest.approx(math.log(2), abs=1e-12)

    def test_boundaries(self):
        assert shannon_entropy(0.0) == 0.0
        assert shannon_entropy(1.0) == 0.0

    @given(st.floats(0.0, 1.0))
    def test_symmetry(self, p):
        assert shannon_entropy(p) == pytest.approx(shannon_entropy(1 - p), abs=1e-12)

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            shannon_entropy(1.5)


# p from 1e-300 to 1/2 and 1 - p from 1e-16 to 1/2.
ENTROPY_GRID = np.concatenate([
    np.logspace(-300.0, np.log10(0.5), 100_001), 1.0 - np.logspace(-16.0, np.log10(0.5), 50_001)
])


def test_entropy_within_two_ulps_of_scipy_form():
    scipy_form = -xlogy(ENTROPY_GRID, ENTROPY_GRID) - xlog1py(1.0 - ENTROPY_GRID, -ENTROPY_GRID)
    assert np.all(np.abs(asymptotics._entropy(ENTROPY_GRID) - scipy_form) <= 2 * np.spacing(scipy_form))


def test_entropy_within_two_ulps_of_decimal_oracle():
    p = ENTROPY_GRID[::1001]
    with localcontext() as ctx:
        # Enough digits that 1 - p keeps p down to 1e-300.
        ctx.prec = 340
        exact = np.array([float(decimal_entropy(Decimal(v))) for v in p])
    assert np.all(np.abs(asymptotics._entropy(p) - exact) <= 2 * np.spacing(exact))


def test_entropy_is_zero_at_both_ends_of_an_array():
    h = asymptotics._entropy(np.array([0.0, 1.0, 0.5]))
    assert h[0] == 0.0 and h[1] == 0.0 and h[2] == pytest.approx(math.log(2), rel=1e-15)


# x from -0.3 to 0.3, both branches of _x_minus_log1p, and |x| down to 1e-30,
# where phi(x) = x - ln(1+x) is about x^2/2.
PHI_GRID = np.concatenate([
    np.linspace(-0.3, 0.3, 2401), np.logspace(-30.0, np.log10(0.3), 1000), -np.logspace(-30.0, np.log10(0.3), 1000)
])


def test_x_minus_log1p_within_five_ulps_of_decimal_oracle():
    with localcontext() as ctx:
        # 60 digits lost to cancellation at |x| = 1e-30, 60 kept.
        ctx.prec = 120
        exact = np.array([float(Decimal(v) - (1 + Decimal(v)).ln()) for v in PHI_GRID])
    assert np.all(np.abs(asymptotics._x_minus_log1p(PHI_GRID) - exact) <= 5 * np.spacing(exact))


def test_x_minus_log1p_within_two_ulps_of_power_table_form():
    """The series by Horner against the same series summed from a table of
    the powers w^k, the form it replaced."""
    x = np.random.default_rng(0).uniform(-0.25, 0.25, 240_000)
    z = x / (2.0 + x)
    w = z * z
    table = (w[:, None] ** np.arange(10) * asymptotics._PHI_SERIES).sum(axis=-1)
    reference = 2.0 * w * (1.0 / (1.0 - z) - z * table)
    assert np.all(np.abs(asymptotics._x_minus_log1p(x) - reference) <= 2 * np.spacing(reference))


def lambertw_start(t, sign):
    """phi^{-1}(t) of the sign of ``sign`` through Lambert's W: x = -1 -
    W(-e^{-1-t}) on branch -1 for x > 0 and branch 0 for x < 0, and
    sign*sqrt(2t) below t = 1e-8."""
    x = -1.0 - lambertw(-np.exp(-1.0 - t), -1 if sign > 0 else 0).real
    return np.where(t < 1e-8, sign * np.sqrt(2.0 * t), x)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_phi_inverse_matches_lambert_w_form(sign):
    t = np.logspace(-8.0, 3.0, 20_001)
    # The W form needs e^{-1-t} to be a normal float, and rounding that
    # argument costs it about eps/t relative near the branch point t = 0.
    t = t[np.exp(-1.0 - t) >= np.finfo(float).tiny]
    reference = lambertw_start(t, sign)
    relative = np.abs(asymptotics._phi_inverse(t, sign) / reference - 1.0)
    assert np.all(relative <= 1e-10 + np.finfo(float).eps / t)


def test_phi_inverse_beyond_lambert_w_range():
    t = np.linspace(710.0, 1e3, 50)
    assert np.all(np.abs(asymptotics._x_minus_log1p(asymptotics._phi_inverse(t, 1.0)) - t) <= 4 * np.spacing(t))
    # 1 + x = e^{-1-t} underflows: x rounds to -1.
    assert np.all(asymptotics._phi_inverse(t, -1.0) == -1.0)


def test_newton_iterations_within_one_percent_of_lambert_w_start(monkeypatch):
    def total_iterations():
        total = 0
        for d in default_delta_grid(100):
            for r in np.logspace(-4.0, np.log10(0.5), 12):
                total += tail_iu(TailInputs(d, r, 1.0 - r)).iterations + tail_iu(TailInputs(d, r, r)).iterations
                total += tail_il(TailInputs(d, r, 1.0 - r)).iterations + tail_if(d, r).iterations
        return total

    numpy_start = total_iterations()
    monkeypatch.setattr(asymptotics, "_phi_inverse", lambertw_start)
    assert numpy_start <= 1.01 * total_iterations()


class TestTailUpper:
    def test_small_target_small_root(self):
        res = tail_iu(TailInputs(1e-4, 1e-4, 1.0))
        assert 0 < res.value < 0.2

    def test_target_one_matches_bisection_oracle(self):
        # Choose rho with 2*H(rho) = 1 so the target is exactly one.
        rho = bisect(shannon_entropy, 0.5, 1e-9, 0.5)
        res = tail_iu(TailInputs(1.0, rho, 1.0))
        oracle = bisect(lambda nu: nu - math.log1p(nu), 1.0, 0.0, 10.0)
        assert oracle == pytest.approx(2.1461932206205825, abs=1e-10)
        assert res.value == pytest.approx(oracle, abs=1e-4)

    def test_strictly_increasing_in_target(self):
        values = []
        for lam in np.linspace(1.0, 0.05, 100):
            values.append(tail_iu(TailInputs(0.5, 0.3, lam)).value)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_boundary_flag(self):
        res = tail_iu(TailInputs(1.0, 1.0, 1.0))
        assert res.boundary
        assert res.value == 0.0


class TestTailLower:
    def test_small_target_small_root(self):
        res = tail_il(TailInputs(1e-4, 1e-4, 1.0))
        assert 0 < res.value < 0.2

    def test_target_one_matches_bisection_oracle(self):
        rho = bisect(shannon_entropy, 0.5, 1e-9, 0.5)
        res = tail_il(TailInputs(1.0, rho, 1.0))
        oracle = bisect(lambda nu: -nu - math.log1p(-nu), 1.0, 0.0, 1 - 1e-15)
        assert oracle == pytest.approx(0.8414056604369606, abs=1e-10)
        assert res.value == pytest.approx(oracle, abs=1e-4)

    def test_always_below_one(self):
        for lam in (1.0, 0.5, 0.2):
            for rho in (0.1, 0.5, 0.9):
                assert tail_il(TailInputs(0.9, rho, lam)).value < 1.0

    def test_decreasing_in_lambda(self):
        lams = np.linspace(0.05, 1.0, 50)
        vals = [tail_il(TailInputs(0.5, 0.3, lam)).value for lam in lams]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestTailF:
    def test_limit_small_delta(self):
        rho = 0.3
        res = tail_if(1e-9, rho)
        assert res.value == pytest.approx(rho / (1 - rho), rel=1e-3)

    def test_half_half_matches_oracle(self):
        res = tail_if(0.5, 0.5)
        target = 2 * shannon_entropy(0.25) + shannon_entropy(0.5)
        oracle = bisect(lambda f: math.log1p(f) - 0.5 * math.log(f), target, 1.0, 100.0)
        assert res.value == pytest.approx(oracle, rel=1e-10)
        assert res.value == pytest.approx(35.89806927457370, rel=1e-10)

    def test_increasing_in_delta(self):
        vals = [tail_if(d, 0.25).value for d in np.linspace(0.05, 1.0, 40)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_above_lower_limit(self):
        for delta in (0.1, 0.5, 1.0):
            for rho in (0.05, 0.25, 0.5):
                assert tail_if(delta, rho).value > rho / (1 - rho)


def test_root_residuals_on_grid():
    deltas = np.linspace(0.02, 1.0, 25)
    rhos = np.linspace(0.02, 0.5, 25)
    worst = 0.0
    for delta in deltas:
        for rho in rhos:
            for res in (
                tail_iu(TailInputs(delta, rho, 1.0 - rho)),
                tail_il(TailInputs(delta, rho, 1.0 - rho)),
                tail_if(delta, rho),
            ):
                target = 1.0  # residuals are absolute; compare to 1e-12*(1+|target|)
                assert abs(res.residual) <= 1e-12 * (1 + target)
                worst = max(worst, abs(res.residual))
    assert worst <= 2e-12


# Degrees of freedom of the CDF tests: integer, half-integer and non-integer.
SMALL_DOFS = (1, 1.5, 2, 3, 4.5, 5, 7.3, 10, 21, 45.5, 90, 91, 100, 137.2, 200)
LARGE_DOFS = (201, 333.3, 500, 999, 1000, 2000.5, 4000)


def chi2_points(dof):
    """x from 0 through the bulk of the chi-square law to both far tails."""
    x = np.concatenate([
        [0.0, 1e-300], np.geomspace(1e-6, 0.5, 40) * dof,
        dof + math.sqrt(2 * dof) * np.linspace(-6, 40, 300), [1e3 * dof, 1e300],
    ])
    return x[x >= 0]


F_POINTS = np.concatenate([[0.0, 1e-300], np.geomspace(1e-8, 1e8, 300), np.linspace(0.02, 6, 300), [1e300]])


def f_oracle(x, d1, d2):
    """The F CDF from scipy's incomplete beta, taken on the side of 1/2 where
    u = d1 x / (d1 x + d2) lies, so that its argument carries no cancellation."""
    u, w = d1 * x / (d1 * x + d2), d2 / (d1 * x + d2)
    return np.where(u < 0.5, betainc(d1 / 2, d2 / 2, u), betaincc(d2 / 2, d1 / 2, w))


def f_exact(x, d1, d2):
    """The F CDF for even d1, d2, exactly: with a = d1/2, b = d2/2 integers,
    I_u(a, b) = sum_{j >= a} C(a+b-1, j) u^j (1-u)^(a+b-1-j), summed in
    integers from x = p/q as sum_j C(n, j) (d1 p)^j (d2 q)^(n-j) / (d1 p + d2 q)^n."""
    n = (d1 + d2) // 2 - 1
    p, q = Fraction(float(x)).as_integer_ratio()
    s, t = d1 * p, d2 * q
    return float(Fraction(sum(math.comb(n, j) * s**j * t ** (n - j) for j in range(d1 // 2, n + 1)), (s + t) ** n))


class TestCdfOracles:
    def test_chi2_closed_form_dof2(self):
        assert chi2_cdf(2 * math.log(2), 2) == pytest.approx(0.5, abs=1e-14)
        x = np.linspace(0.0, 10.0, 50)
        np.testing.assert_allclose(chi2_cdf(x, 2), 1 - np.exp(-x / 2), atol=1e-13)

    def test_chi2_at_zero(self):
        for dof in SMALL_DOFS + LARGE_DOFS:
            assert chi2_cdf(0.0, dof) == 0.0

    def test_f_median_equal_dof(self):
        for d in (2, 5, 10):
            assert f_cdf(1.0, d, d) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("cdf, args, message", [
        (chi2_cdf, (-0.5, 3), "chi-square CDF requires x >= 0"),
        (chi2_cdf, ([0.5, -1e-300], 3), "chi-square CDF requires x >= 0"),
        (chi2_cdf, (0.5, 0), "degrees of freedom must be >= 1"),
        (f_cdf, (-0.5, 3, 4), "F CDF requires x >= 0"),
        (f_cdf, (0.5, 0.5, 4), "degrees of freedom must be >= 1"),
        (f_cdf, (0.5, 3, [4, 0]), "degrees of freedom must be >= 1"),
    ])
    def test_refuses_negative_x_and_dof_below_one(self, cdf, args, message):
        with pytest.raises(InvalidArgumentError, match=message):
            cdf(*args)

    def test_scalar_in_python_float_out(self):
        assert type(chi2_cdf(1.0, 3)) is float
        assert type(f_cdf(1.0, 3, 4)) is float
        assert chi2_cdf(np.array([1.0]), 3).shape == (1,)

    def test_dkw_band_chi2(self):
        gen = RngSpec(21).generator()
        m = 1_000_000
        samples = gen.chisquare(7, size=m)
        xs = np.sort(samples)
        emp_hi = np.arange(1, m + 1) / m
        emp_lo = np.arange(0, m) / m
        theo = chi2_cdf(xs, 7)
        dkw = math.sqrt(math.log(2 / 0.01) / (2 * m))
        assert max(np.max(np.abs(emp_hi - theo)), np.max(np.abs(emp_lo - theo))) <= dkw

    def test_dkw_band_f(self):
        gen = RngSpec(22).generator()
        m = 1_000_000
        samples = gen.f(5, 17, size=m)
        xs = np.sort(samples)
        theo = f_cdf(xs, 5, 17)
        emp_hi = np.arange(1, m + 1) / m
        emp_lo = np.arange(0, m) / m
        dkw = math.sqrt(math.log(2 / 0.01) / (2 * m))
        assert max(np.max(np.abs(emp_hi - theo)), np.max(np.abs(emp_lo - theo))) <= dkw

    def test_scaled_f_cdf_consistency(self):
        n, k = 60, 6
        x = 0.37
        assert scaled_f_cdf(x, k, n) == pytest.approx(f_cdf(x * (n - k + 1) / k, k, n - k + 1))


class TestIncompleteGammaAndBeta:
    @pytest.mark.parametrize("dofs, tol", [(SMALL_DOFS, 1e-13), (LARGE_DOFS, 1e-12)])
    def test_chi2_matches_scipy(self, dofs, tol):
        for dof in dofs:
            x = chi2_points(dof)
            assert np.max(np.abs(chi2_cdf(x, dof) - gammainc(dof / 2, x / 2))) <= tol, dof

    @pytest.mark.parametrize("dofs, tol", [
        ((1, 1.5, 3, 5, 7.3, 21, 45.5, 91, 137.2, 199), 1e-13),
        ((1, 3, 45.5, 201, 999, 2000.5, 3999), 1e-12),
    ])
    def test_f_matches_scipy_at_odd_or_fractional_dof(self, dofs, tol):
        for d1 in dofs:
            for d2 in dofs:
                assert np.max(np.abs(f_cdf(F_POINTS, d1, d2) - f_oracle(F_POINTS, d1, d2))) <= tol, (d1, d2)

    @pytest.mark.parametrize("d1, d2", [(2, 2), (2, 200), (200, 2), (4, 10), (10, 90), (20, 90), (50, 50), (200, 200)])
    def test_f_matches_exact_sum_at_even_dof(self, d1, d2):
        # scipy's betainc sums the same finite series here and strays by up to
        # about 4e-13, so the oracle is the exact sum.
        x = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 25), np.linspace(0.05, 4, 40)])
        exact = np.array([f_exact(v, d1, d2) for v in x])
        assert np.max(np.abs(f_cdf(x, d1, d2) - exact)) <= 1e-13

    def test_exact_ends(self):
        for dof in SMALL_DOFS + LARGE_DOFS:
            assert f_cdf(0.0, dof, 7) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert chi2_cdf(math.inf, 3) == 1.0
            assert f_cdf(math.inf, 3, 4) == 1.0
            assert f_cdf([0.0, math.inf], 4000, 1).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (1.5, 2.0), (5.0, 45.5), (45.5, 5.0), (50.0, 50.0), (2000.0, 1.5)])
    def test_beta_symmetry(self, a, b):
        # Dyadic x, so that 1 - x is exact; both sides of the split (a+1)/(a+b+2).
        x = np.arange(1, 4096) / 4096
        total = asymptotics._beta_inc(x, 1 - x, a, b) + asymptotics._beta_inc(1 - x, x, b, a)
        assert np.max(np.abs(total - 1.0)) <= 4e-15

    def test_broadcast_matches_one_call_per_dof(self):
        x = np.linspace(0.0, 30.0, 7)
        dofs = np.array([1.0, 4.5, 10.0])
        table = chi2_cdf(x[:, None], dofs)
        assert table.shape == (7, 3)
        for j, dof in enumerate(dofs):
            np.testing.assert_allclose(table[:, j], chi2_cdf(x, dof), rtol=0, atol=1e-15)
        assert np.allclose(f_cdf(1.0, [3, 4], [[5], [6]]), [[f_cdf(1.0, d1, d2) for d1 in (3, 4)] for d2 in (5, 6)])
        assert chi2_cdf(np.empty(0), 3).shape == (0,)

    @pytest.mark.parametrize("cdf, args, message", [
        (chi2_cdf, (89.0, 90), "incomplete gamma series not converged within 3 iterations at a=45, x=44.5$"),
        (chi2_cdf, (92.0, 90), "incomplete gamma continued fraction not converged within 3 iterations at a=45, x=46$"),
        (f_cdf, (0.5, 10, 91), "incomplete beta continued fraction not converged within 3 iterations at a=5, b=45.5, x=0.052083333333333336$"),
        (f_cdf, (2.0, 10, 91), "incomplete beta continued fraction not converged within 3 iterations at a=45.5, b=5, x=0.81981981981981977$"),
    ])
    def test_iteration_cap_raises_naming_the_point(self, monkeypatch, cdf, args, message):
        monkeypatch.setattr(asymptotics, "CDF_MAX_ITERATIONS", 3)
        with pytest.raises(NumericalDomainError, match=message):
            cdf(*args)

    @pytest.mark.parametrize("cdf, args, message", [
        (chi2_cdf, (math.nan, 3), "chi-square CDF requires x >= 0"),
        (f_cdf, ([1.0, math.nan], 3, 4), "F CDF requires x >= 0"),
        (chi2_cdf, (1.0, math.inf), "degrees of freedom must be finite"),
        (chi2_cdf, (1.0, math.nan), "degrees of freedom must be >= 1"),
        (f_cdf, (1.0, 3, math.inf), "degrees of freedom must be finite"),
        (f_cdf, (1.0, [3, math.inf], 4), "degrees of freedom must be finite"),
        (f_cdf, (1.0, math.nan, 4), "degrees of freedom must be >= 1"),
    ])
    def test_refuses_nan_x_and_non_finite_dof(self, cdf, args, message):
        with pytest.raises(InvalidArgumentError, match=message):
            cdf(*args)


class TestTemmeGamma:
    def test_eta_frozen_value(self):
        eta, _ = temme_gamma_eta(10.0, 20.0, "Q")
        assert eta == pytest.approx(0.7833936678835931, abs=1e-13)

    def test_erfc_contract(self):
        assert math.erfc(0.0) == 1.0
        for w in np.linspace(0.0, 6.0, 50):
            assert math.erfc(w) <= math.exp(-(w**2)) + 1e-300

    def test_leading_term_tracks_oracle_upper(self):
        # |Q(s, 2s) - leading| must shrink like s^(-1/2) exp(-s eta^2 / 2).
        svals = np.array([50, 100, 200, 400, 800], dtype=float)
        errs, etas = [], []
        for s in svals:
            eta, leading = temme_gamma_eta(s, 2.0 * s, "Q")
            errs.append(abs(gammaincc(s, 2.0 * s) - leading))
            etas.append(eta)
        errs = np.array(errs)
        assert np.all(errs > 0)
        corrected = np.log(errs) + svals * np.array(etas) ** 2 / 2
        slope = np.polyfit(np.log(svals), corrected, 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)

    def test_leading_term_tracks_oracle_lower(self):
        svals = np.array([50, 100, 200, 400, 800], dtype=float)
        errs, etas = [], []
        for s in svals:
            eta, leading = temme_gamma_eta(s, 0.5 * s, "P")
            errs.append(abs(gammainc(s, 0.5 * s) - leading))
            etas.append(eta)
        errs = np.array(errs)
        corrected = np.log(errs) + svals * np.array(etas) ** 2 / 2
        slope = np.polyfit(np.log(svals), corrected, 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)

    def test_branch_domains(self):
        with pytest.raises(InvalidArgumentError):
            temme_gamma_eta(10.0, 5.0, "Q")
        with pytest.raises(InvalidArgumentError):
            temme_gamma_eta(5.0, 10.0, "P")

    @pytest.mark.parametrize("s, t, branch", [(10.0, 10.0001, "Q"), (10.0, 9.9999, "P"), (3.0, 300.0, "Q")])
    def test_eta_matches_decimal_oracle(self, s, t, branch):
        # eta^2/2 = phi(t/s - 1); near t = s the two terms of phi cancel.
        eta, leading = temme_gamma_eta(s, t, branch)
        assert type(eta) is float and type(leading) is float
        exact = decimal_eta(lambda: decimal_phi(Decimal(t) / Decimal(s) - 1), t - s)
        assert eta == pytest.approx(exact, rel=1e-14, abs=0)
        assert leading == pytest.approx(0.5 * math.erfc(abs(exact) * math.sqrt(s / 2)), rel=1e-12, abs=0)


class TestTemmeBeta:
    def test_sign_change_point(self):
        eta, leading = temme_beta_eta(20.0, 10.0, 20.0 / 30.0)
        assert eta == 0.0
        assert leading == pytest.approx(0.5, abs=1e-14)

    def test_frozen_value(self):
        eta, _ = temme_beta_eta(20.0, 10.0, 0.8)
        assert eta == pytest.approx(0.3121778448022659, abs=1e-13)

    def test_sign_rule(self):
        eta_lo, _ = temme_beta_eta(20.0, 10.0, 0.5)
        eta_hi, _ = temme_beta_eta(20.0, 10.0, 0.9)
        assert eta_lo < 0 < eta_hi

    @pytest.mark.parametrize("d1, d2, beta", [
        (20.0, 10.0, (2 / 3) * (1 + 1e-6)),
        (600.0, 400.0, 0.6 * (1 - 1e-5)),
        (20.0, 10.0, 0.8),
        (20.0, 10.0, 1e-20),
        (20.0, 10.0, 1 - 1e-12),
    ])
    def test_eta_matches_decimal_oracle(self, d1, d2, beta):
        # Near beta = p the two logs of the divergence cancel; at beta = 1e-20
        # beta/(1-beta) is far below p/(1-p), where 1 + v/lo nears zero.
        with np.errstate(all="raise"):
            eta, _ = temme_beta_eta(d1, d2, beta)
        p = Decimal(d1) / Decimal(d1 + d2)
        b = Decimal(beta)
        exact = decimal_eta(lambda: p * (p / b).ln() + (1 - p) * ((1 - p) / (1 - b)).ln(), beta - float(p))
        assert eta == pytest.approx(exact, rel=1e-9, abs=0)

    def test_leading_term_tracks_incomplete_beta(self):
        # Proportional family d1 = 0.6 m, d2 = 0.4 m at fixed beta.
        ms = np.array([50, 100, 200, 400, 800], dtype=float)
        beta = 0.45
        errs, etas = [], []
        for m in ms:
            d1, d2 = 0.6 * m, 0.4 * m
            eta, leading = temme_beta_eta(d1, d2, beta)
            errs.append(abs(betainc(d1, d2, beta) - leading))
            etas.append(eta)
        errs = np.array(errs)
        corrected = np.log(errs) + ms * np.array(etas) ** 2 / 2
        slope = np.polyfit(np.log(ms), corrected, 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)


class TestRates:
    def test_chi2_rate_zero_limit(self):
        assert chi2_rate(1e-9, 1.0, "upper") == pytest.approx(0.0, abs=1e-12)

    def test_chi2_rate_composition_identity(self):
        # nu solving nu - ln(1+nu) = 1 gives rate exactly -1/2 at gamma = 1.
        rho = bisect(shannon_entropy, 0.5, 1e-9, 0.5)
        nu = tail_iu(TailInputs(1.0, rho, 1.0)).value
        assert chi2_rate(nu, 1.0, "upper") == pytest.approx(-0.5, abs=1e-10)

    def test_chi2_rate_finite_n_upper(self):
        n = l = 400
        nu = 1.0
        prob = gammaincc(l / 2.0, l * (1 + nu) / 2.0)
        empirical = math.log(prob) / n
        assert abs(empirical - chi2_rate(nu, 1.0, "upper")) <= 0.05

    def test_chi2_rate_finite_n_lower(self):
        n = l = 400
        nu = 0.5
        prob = gammainc(l / 2.0, l * (1 - nu) / 2.0)
        empirical = math.log(prob) / n
        assert abs(empirical - chi2_rate(nu, 1.0, "lower")) <= 0.05

    def test_f_rate_boundary_zero(self):
        rho = 0.05
        f = rho / (1 - rho) * (1 + 1e-12)
        assert f_rate(f, rho) == pytest.approx(0.0, abs=1e-10)

    def test_f_rate_direct_value(self):
        expected = 0.5 * (math.log(2) - shannon_entropy(0.25))
        assert f_rate(1.0, 0.25) == pytest.approx(expected, abs=1e-14)
        assert f_rate(1.0, 0.25) == pytest.approx(0.06540601797056848, abs=1e-12)

    def test_f_rate_finite_n(self):
        n, k = 400, 100
        rho = k / n
        f = 1.0
        # P(X >= f) for X ~ (k/(n-k+1)) F(k, n-k+1), via the exact F CDF.
        prob = 1.0 - f_cdf(f * (n - k + 1) / k, k, n - k + 1)
        empirical = -math.log(prob) / n
        assert abs(empirical - f_rate(f, rho)) <= 0.05

    def test_f_rate_domain(self):
        with pytest.raises(InvalidArgumentError):
            f_rate(0.2, 0.25)
        with pytest.raises(InvalidArgumentError, match=r"requires f > rho/\(1-rho\)"):
            f_rate(float("nan"), 0.25)

    @pytest.mark.parametrize("branch, sign", [("upper", 1), ("lower", -1)])
    def test_chi2_rate_small_nu_matches_decimal_oracle(self, branch, sign):
        # The rate is O(nu^2) at nu = 1e-9: nu - ln(1+nu) cancels 9 digits.
        rate = chi2_rate(1e-9, 0.5, branch)
        assert type(rate) is float
        with localcontext() as ctx:
            ctx.prec = 60
            exact = float(-Decimal(0.5) / 2 * decimal_phi(sign * Decimal(1e-9)))
        assert rate == pytest.approx(exact, rel=1e-14, abs=0)

    @pytest.mark.parametrize("f, rho", [(0.25 / 0.75 * (1 + 1e-6), 0.25), (1e20, 0.25), (30.0, 0.9)])
    def test_f_rate_matches_decimal_oracle(self, f, rho):
        # Just above f = rho/(1-rho) the rate is O(1e-12) and its logs cancel;
        # the relative error left is the rounding of rho/(1-rho) itself.
        with np.errstate(all="raise"):
            rate = f_rate(f, rho)
        assert type(rate) is float
        with localcontext() as ctx:
            ctx.prec = 60
            F, R = Decimal(f), Decimal(rho)
            exact = float(((1 + F).ln() - R * F.ln() - decimal_entropy(R)) / 2)
        assert rate == pytest.approx(exact, rel=1e-9, abs=0)

    @pytest.mark.parametrize("args, message", [
        ((0.5, 0.0, "upper"), r"gamma must lie in \(0, 1\], got 0.0"),
        ((0.5, 1.5, "upper"), r"gamma must lie in \(0, 1\], got 1.5"),
        ((0.5, 1.0, "middle"), "branch must be 'upper' or 'lower', got 'middle'"),
        ((0.0, 1.0, "upper"), r"upper branch requires nu > 0"),
        ((float("nan"), 1.0, "upper"), r"upper branch requires nu > 0"),
        ((1.0, 1.0, "lower"), r"lower branch requires nu in \(0, 1\)"),
    ])
    def test_chi2_rate_refusals(self, args, message):
        with pytest.raises(InvalidArgumentError, match=message):
            chi2_rate(*args)


class TestBinomEntropyLimit:
    def test_simple_value(self):
        assert binom_entropy_limit(1.0, 0.5) == pytest.approx(math.log(2), abs=1e-14)

    def test_finite_n_log_binomial(self):
        n, N, k = 200, 400, 50
        exact = (math.lgamma(N + 1) - math.lgamma(k + 1) - math.lgamma(N - k + 1)) / n
        assert abs(exact - binom_entropy_limit(0.5, 0.25)) <= 0.02

    def test_vanishes_at_small_rho(self):
        assert binom_entropy_limit(0.5, 1e-9) <= 1e-7

    @pytest.mark.parametrize("delta, rho, message", [
        (0.0, 0.5, r"delta must lie in \(0, 1\], got 0.0"),
        (0.5, 1.5, r"rho must lie in \(0, 1\], got 1.5"),
        (0.5, float("nan"), r"rho must lie in \(0, 1\], got nan"),
    ])
    def test_domain(self, delta, rho, message):
        with pytest.raises(InvalidArgumentError, match=message):
            binom_entropy_limit(delta, rho)


def test_root_result_value_inside_bracket():
    for res in (
        tail_iu(TailInputs(0.5, 0.25, 0.75)),
        tail_il(TailInputs(0.5, 0.25, 0.75)),
        tail_if(0.5, 0.25),
    ):
        assert isinstance(res, RootResult)
        lo, hi = res.bracket
        assert lo < res.value < hi


def spacings_apart(value: float, oracle: float) -> float:
    return abs(value - oracle) / np.spacing(oracle)


class TestRootFailureModes:
    """Points where the roots used to be silently off or to raise a config error."""

    def test_lower_root_near_one_is_float_resolved(self):
        res = tail_il(TailInputs(0.62, 0.83, 0.05))
        target = 2 * shannon_entropy(0.62 * 0.83) / 0.05
        oracle = bisect(lambda nu: -nu - math.log1p(-nu), target, 0.0, np.nextafter(1.0, 0.0))
        assert spacings_apart(res.value, oracle) <= 4

    def test_lower_root_resolved_down_to_lambda_004(self):
        res = tail_il(TailInputs(0.5, 1.0, 0.04))
        target = 2 * math.log(2) / 0.04
        oracle = bisect(lambda nu: -nu - math.log1p(-nu), target, 0.0, np.nextafter(1.0, 0.0))
        assert spacings_apart(res.value, oracle) <= 4

    def test_lower_root_beyond_float_range_names_the_point(self):
        # The root lies closer to one than the largest float below one.
        with pytest.raises(NumericalDomainError, match="tail_il.*delta=0.5, rho=1, lambda=0.01"):
            tail_il(TailInputs(0.5, 1.0, 0.01))

    def test_f_root_at_tiny_rho(self):
        rho = 1e-20
        res = tail_if(1e-3, rho)
        target = 2 * shannon_entropy(1e-3 * rho) + shannon_entropy(rho)
        oracle = bisect(lambda f: math.log1p(f) - rho * math.log(f), target, rho / (1 - rho), 1.0)
        assert res.value > rho / (1 - rho)
        assert res.value == pytest.approx(oracle, rel=1e-10)
        assert abs(res.residual) <= 1e-12


def decimal_root(g, target, lo: float, hi: float) -> float:
    """Bisection oracle in 50-digit decimal arithmetic, to the float nearest the root."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, t = Decimal(lo), Decimal(hi), target()
        for _ in range(400):
            mid = (a + b) / 2
            if mid in (a, b):
                break
            a, b = (mid, b) if g(mid) <= t else (a, mid)
        return float((a + b) / 2)


def decimal_entropy(p):
    return -p * p.ln() - (1 - p) * (1 - p).ln()


def decimal_phi(x):
    return x - (1 + x).ln()


def decimal_eta(half_eta_sq, sign: float) -> float:
    """sqrt(2 * half_eta_sq()) with the sign of ``sign``, in 60-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 60
        return math.copysign(float((2 * half_eta_sq()).sqrt()), sign)


# Points of the transition analysis: delta in (0, 1], rho in (0, 1/2] and
# lambda in {rho, 1 - rho} (drawn as whether lambda is rho).
TRANSITION_POINTS = st.lists(
    st.tuples(st.floats(1e-4, 1.0), st.floats(1e-6, 0.5), st.booleans()), min_size=1, max_size=6
)


@settings(max_examples=40, deadline=None)
@given(TRANSITION_POINTS)
def test_roots_over_arrays_match_scalars_and_decimal_oracle(points):
    """Batched roots equal scalar roots bit for bit, every residual is at most
    1e-12, and every root is within a few ulps of the exact root, widened by
    the root's condition number t / (x g'(x)): the float evaluation of g
    resolves x no better than that."""
    delta, rho, lam_is_rho = (np.array(v) for v in zip(*points))
    # The lower bound enters the transitions at lambda = 1 - rho only.
    chi2 = {
        tail_iu: (1.0, lambda nu: nu - (1 + nu).ln(), 1e3, np.where(lam_is_rho, rho, 1.0 - rho)),
        tail_il: (-1.0, lambda nu: -nu - (1 - nu).ln(), 1.0, 1.0 - rho),
    }
    for root, (sign, g, hi, lam) in chi2.items():
        batch = root(TailInputs(delta, rho, lam))
        for i, (d, r, l) in enumerate(zip(delta, rho, lam)):
            single = root(TailInputs(d, r, l))
            assert (batch.value[i], batch.residual[i]) == (single.value, single.residual)
            assert abs(single.residual) <= 1e-12
            t = 2 * shannon_entropy(d * r) / l
            oracle = decimal_root(g, lambda: 2 * decimal_entropy(Decimal(d) * Decimal(r)) / Decimal(l), 0.0, hi)
            condition = t * (1 + sign * oracle) / oracle**2
            assert spacings_apart(single.value, oracle) <= 4 + 4 * condition
    batch = tail_if(delta, rho)
    for i, (d, r) in enumerate(zip(delta, rho)):
        single = tail_if(d, r)
        assert (batch.value[i], batch.residual[i]) == (single.value, single.residual)
        assert abs(single.residual) <= 1e-12
        R, lo = Decimal(r), r / (1 - r)
        oracle = decimal_root(
            lambda f: (1 + f).ln() - R * f.ln(),
            lambda: 2 * decimal_entropy(Decimal(d) * R) + decimal_entropy(R),
            lo, 1e3,
        )
        condition = 2 * shannon_entropy(d * r) * (1 + oracle) / ((1 - r) * (oracle - lo))
        assert spacings_apart(single.value, oracle) <= 4 + 4 * condition
