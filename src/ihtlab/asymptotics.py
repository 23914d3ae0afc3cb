"""Entropy, implicit tail-bound functions, chi-square/F oracles and the
uniform asymptotics that back the large-deviation analysis.

The three tail-bound functions are roots of strictly monotone equations.  They
take scalars or arrays, and one vectorised, safeguarded Newton kernel
(``_newton_root``) solves them all to float precision, or raises a
``NumericalDomainError`` that names the point where it cannot.  Only the
chi-square and F CDFs load ``scipy.special``, and only when called.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, NumericalDomainError

RESIDUAL_TOL = 1e-12
# A Newton iterate is a root once its step or its bracket spans at most this
# many float spacings; past RESIDUAL_TOL its residual must change sign within
# as many spacings.
ROOT_SPACINGS = 4.0
MAX_ITERATIONS = 200
# Coefficients 1/(2k+3), k = 0..9, of the series of x - ln(1+x) in powers
# of z^2, z = x/(2+x), to float precision for |x| < 1/4.
_PHI_SERIES = 1.0 / (2.0 * np.arange(10) + 3.0)


@dataclass(frozen=True)
class TailInputs:
    """Query point (delta, rho, lam) for the chi-square tail bounds; scalars
    or arrays that broadcast together.

    ``delta`` and ``lam`` lie in (0, 1]; ``rho`` lies in (0, 1] for the
    chi-square bounds and in (0, 1/2] for the F bound.
    """

    delta: float
    rho: float
    lam: float = 1.0

    def __post_init__(self):
        for name, value in (("delta", self.delta), ("rho", self.rho), ("lambda", self.lam)):
            _check_range(name, value, 1.0)


@dataclass(frozen=True)
class RootResult:
    """A tail-bound root; for array inputs every field but ``iterations``
    (lockstep Newton iterations) is an array."""

    value: float
    residual: float
    iterations: int
    bracket: tuple[float, float]
    boundary: bool = False


def _check_range(name: str, value, hi: float) -> None:
    array = np.asarray(value)
    if not np.all((0 < array) & (array <= hi)):
        raise InvalidArgumentError(f"{name} must lie in (0, {'1/2' if hi == 0.5 else '1'}], got {value}")


def _unwrap(value):
    """A 0-d result as a Python scalar; arrays unchanged."""
    return value.item() if np.ndim(value) == 0 else value


def _entropy(p):
    """-p ln p - (1-p) ln(1-p) for p in [0, 1]; log1p(-p) keeps the (1-p) term
    exact where 1-p rounds to one.  The clamps move p only at 0 and 1, where
    they make the zero term 0 times a finite log: H(0) = H(1) = 0."""
    return -p * np.log(np.maximum(p, 5e-324)) - (1.0 - p) * np.log1p(-np.minimum(p, 1.0 - 2.0**-53))


def shannon_entropy(p: float) -> float:
    """Natural-log Shannon entropy of a Bernoulli(p), with H(0) = H(1) = 0."""
    if not 0 <= p <= 1:
        raise InvalidArgumentError(f"p must lie in [0, 1], got {p}")
    return float(_entropy(p))


def _x_minus_log1p(x):
    """phi(x) = x - ln(1+x) for x > -1, to a few ulps also near 0, where the
    two terms cancel: for |x| < 1/4 it is 2w [1/(1-z) - z (1/3 + w/5 + ...)]
    with z = x/(2+x), w = z^2, and the series (1/3 + w/5) + w^2 (Horner)."""
    small = np.abs(x) < 0.25
    if not small.any():
        return x - np.log1p(x)
    xs = x * small
    z = xs / (2.0 + xs)
    w = z * z
    tail = _PHI_SERIES[-1]
    for c in _PHI_SERIES[-2:1:-1]:
        tail = tail * w + c
    series = (_PHI_SERIES[0] + _PHI_SERIES[1] * w) + w * w * tail
    return np.where(small, 2.0 * w * (1.0 / (1.0 - z) - z * series), x - np.log1p(x))


def _phi_inverse(t, sign: float):
    """A Newton start: the x of the sign of ``sign`` with phi(x) = t >= 0, to
    about 1e-12 relative.  The series in p = sign*sqrt(2t) below t = 1e-3;
    above, two Halley steps on e^u - u = c, c = 1 + t, u = ln(1+x), started
    from that series below t = 2, else from u = ln(c + ln c) or -c (sign < 0)."""
    p = sign * np.sqrt(2.0 * t)
    series = p * (1.0 + p * (1.0 / 3.0 + p * (1.0 / 36.0 + p * (-1.0 / 270.0 + p * (1.0 / 4320.0 + p / 17010.0)))))
    c = 1.0 + t
    # np.where drops the diverged series (large t) and the 0/0 step (t = 0).
    with np.errstate(invalid="ignore"):
        u = np.where(t < 2.0, np.log1p(series), np.log(c + np.log(c)) if sign > 0 else -c)
        for _ in range(2):
            e = np.exp(u)
            h, h1 = e - u - c, e - 1.0
            u = u - 2.0 * h * h1 / (2.0 * h1 * h1 - h * e)
    return np.where(t < 1e-3, series, np.expm1(u))


def _newton_root(name, g, gprime, target, lo, hi, x0, point, params=()) -> RootResult:
    """Elementwise roots of ``g(x, *params) = target`` on ``[lo, hi]``, where
    ``0 <= lo`` and g is strictly increasing; arguments broadcast together.

    Every element keeps its own bracket and moves to its Newton point if that
    lies strictly inside, else to the bracket midpoint.  It stops at the
    iterate whose Newton step, measured before that safeguard, or whose
    bracket spans at most ``ROOT_SPACINGS`` spacings.  Only unfinished
    elements are evaluated.  A root needs a residual within ``RESIDUAL_TOL``
    (relative to a target above one) or a sign change of the residual within
    ``ROOT_SPACINGS`` spacings in the bracket; else a NumericalDomainError
    names the first failing point of ``point``.
    """
    target, lo, hi, x0, *params = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (target, lo, hi, x0, *params))
    )
    t, a, b, x, *ps = (v.ravel() for v in (target, lo, hi, x0, *params))
    x = np.where((a < x) & (x < b), x, 0.5 * (a + b))
    value, residual = x.copy(), np.full(x.shape, np.nan)
    pos = np.arange(x.size)
    iterations = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while pos.size and iterations < MAX_ITERATIONS:
            iterations += 1
            r = g(x, *ps) - t
            below = r <= 0
            a, b = np.where(below, x, a), np.where(below, b, x)
            step = r / gprime(x, *ps)
            done = np.fmin(np.abs(step), b - a) <= ROOT_SPACINGS * np.spacing(x)
            if done.any():
                value[pos[done]], residual[pos[done]] = x[done], r[done]
                keep = ~done
                pos, t, a, b, x, step = (v[keep] for v in (pos, t, a, b, x, step))
                ps = [p[keep] for p in ps]
            newton = x - step
            x = np.where((a < newton) & (newton < b), newton, 0.5 * (a + b))
        value[pos] = x
        value, residual = value.reshape(target.shape), residual.reshape(target.shape)
        bad = np.asarray(~(np.abs(residual) <= RESIDUAL_TOL * np.maximum(1.0, np.abs(target))))
        if bad.any():
            v, r = value[bad], residual[bad]
            near = np.clip(v - np.sign(r) * ROOT_SPACINGS * np.spacing(v), lo[bad], hi[bad])
            r_near = g(near, *(p[bad] for p in params)) - target[bad]
            bad[bad] = ~((near != v) & (((r < 0) & (r_near >= 0)) | ((r > 0) & (r_near <= 0))))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        where = ", ".join(f"{k}={np.broadcast_to(v, bad.shape).flat[i]:.17g}" for k, v in point.items())
        raise NumericalDomainError(
            f"{name}: no root resolved to float precision at {where} "
            f"(value {value.flat[i]:.17g}, residual {residual.flat[i]:.3g})"
        )
    return RootResult(_unwrap(value), _unwrap(residual), iterations, (_unwrap(lo), _unwrap(hi)))


def _chi2_root(inputs: TailInputs, sign: float) -> RootResult:
    """The nu >= 0 with phi(sign*nu) = 2H(delta*rho)/lam: the upper chi-square
    bound for sign +1, the lower for -1.  A zero target is the boundary root
    nu = 0; phi(2t+2) > t bounds the upper root, and the lower lies below 1."""
    delta, rho, lam = (np.asarray(v, dtype=float) for v in (inputs.delta, inputs.rho, inputs.lam))
    t = 2.0 * _entropy(delta * rho) / lam
    boundary = t == 0.0
    hi = np.where(boundary, 0.0, 2.0 * t + 2.0 if sign > 0 else np.nextafter(1.0, 0.0))
    res = _newton_root(
        "tail_iu" if sign > 0 else "tail_il", lambda nu: _x_minus_log1p(sign * nu),
        lambda nu: nu / (1.0 + sign * nu), t, 0.0, hi, sign * _phi_inverse(t, sign),
        {"delta": delta, "rho": rho, "lambda": lam},
    )
    return replace(res, boundary=_unwrap(boundary))


def tail_iu(inputs: TailInputs) -> RootResult:
    """Upper chi-square tail bound: the nu > 0 with nu - ln(1+nu) = 2H(delta*rho)/lam."""
    return _chi2_root(inputs, 1.0)


def tail_il(inputs: TailInputs) -> RootResult:
    """Lower chi-square tail bound: the nu in (0,1) with -nu - ln(1-nu) = 2H(delta*rho)/lam."""
    return _chi2_root(inputs, -1.0)


def _if_excess(f, lo, rho):
    """ln(1+f) - rho*ln(f) - H(rho) as the Bernoulli divergence
    rho*phi(v/lo) + (1-rho)*phi(-v), v = (f-lo)/(1+f), lo = rho/(1-rho): no
    cancellation near its minimum at f = lo.  Where v/lo nears minus one or v
    nears one, the logs are taken from 1+v/lo = (f/lo)(1-v) and
    1-v = (1+lo)/(1+f), which keep the digits that v loses."""
    v = (f - lo) / (1.0 + f)
    x = np.stack([v / lo, -v])
    # The clamp keeps phi finite where the logs below replace it.
    phi = _x_minus_log1p(np.maximum(x, -0.5))
    log_1mv = np.log((1.0 + lo) / (1.0 + f))
    if x[0].min() <= -0.5:
        phi[0] = np.where(x[0] > -0.5, phi[0], x[0] - np.log(f / lo) - log_1mv)
    return rho * phi[0] + (1.0 - rho) * np.where(v < 0.5, phi[1], -v - log_1mv)


def tail_if(delta, rho) -> RootResult:
    """F tail bound: the f > rho/(1-rho) with ln(1+f) - rho*ln(f) = 2H(delta*rho) + H(rho),
    solved (and its residual taken) as ``_if_excess(f) = 2H(delta*rho)``."""
    return _if_root(delta, rho)


def _if_root(delta, rho, start=None) -> RootResult:
    """``tail_if`` with Newton started at ``start`` (default: an estimate)."""
    _check_range("delta", delta, 1.0)
    _check_range("rho", rho, 0.5)
    delta, rho = np.broadcast_arrays(np.asarray(delta, dtype=float), np.asarray(rho, dtype=float))
    target = 2.0 * _entropy(delta * rho)
    lo = rho / (1.0 - rho)
    # ln(1+f) - rho*ln(f) > (1-rho)*ln(f) for f >= 1 bounds the root above.
    hi = np.exp((target + _entropy(rho)) / (1.0 - rho))
    if start is None:
        # The root without the (1-rho) term of the excess, exact as rho -> 0;
        # where that has none, the bound above less its 1/f correction.
        v0 = lo * _phi_inverse(target / rho, 1.0)
        start = np.where(v0 < 1.0, (lo + v0) / (1.0 - v0), hi - 1.0 / (1.0 - rho))
    return _newton_root(
        "tail_if", _if_excess, lambda f, lo, rho: (1.0 - rho) * (f - lo) / (f * (1.0 + f)),
        target, lo, hi, start, {"delta": delta, "rho": rho}, (lo, rho),
    )


def chi2_cdf(x, dof):
    """Chi-square CDF with ``dof`` degrees of freedom."""
    x, dof = np.asarray(x, dtype=float), np.asarray(dof, dtype=float)
    if np.any(x < 0):
        raise InvalidArgumentError("chi-square CDF requires x >= 0")
    if np.any(dof < 1):
        raise InvalidArgumentError("degrees of freedom must be >= 1")
    from scipy.special import gammainc

    return _unwrap(gammainc(dof / 2.0, x / 2.0))


def f_cdf(x, d1, d2):
    """F-distribution CDF with (d1, d2) degrees of freedom."""
    x, d1, d2 = (np.asarray(v, dtype=float) for v in (x, d1, d2))
    if np.any(x < 0):
        raise InvalidArgumentError("F CDF requires x >= 0")
    if np.any(d1 < 1) or np.any(d2 < 1):
        raise InvalidArgumentError("degrees of freedom must be >= 1")
    from scipy.special import betainc

    return _unwrap(betainc(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2)))


def scaled_f_cdf(x, k: int, n: int):
    """CDF of (k/(n-k+1)) * F(k, n-k+1), the law of the squared overlap ratio."""
    d2 = n - k + 1
    return f_cdf(np.asarray(x, dtype=float) * d2 / k, k, d2)


def temme_gamma_eta(s: float, t: float, branch: str) -> tuple[float, float]:
    """Uniform-asymptotic leading term for the regularized incomplete gamma.

    For the upper branch (0 < s < t) returns ``eta > 0`` with
    ``eta^2/2 = phi((t-s)/s) = t/s - 1 - ln(t/s)`` and the approximation
    ``Q(s, t) ~ 0.5*erfc(eta*sqrt(s/2))``; the lower branch (s > t > 0)
    mirrors the sign and approximates P(s, t) by the same term.  The residual
    decays like ``s^{-1/2} * exp(-s*eta^2/2)`` at fixed t/s.
    """
    if branch not in ("Q", "P"):
        raise InvalidArgumentError(f"branch must be 'Q' or 'P', got {branch!r}")
    if branch == "Q" and not 0 < s < t:
        raise InvalidArgumentError(f"branch 'Q' requires 0 < s < t, got s={s}, t={t}")
    if branch == "P" and not s > t > 0:
        raise InvalidArgumentError(f"branch 'P' requires s > t > 0, got s={s}, t={t}")
    eta = math.sqrt(2.0 * _x_minus_log1p((t - s) / s))
    return (eta if branch == "Q" else -eta), 0.5 * math.erfc(eta * math.sqrt(s / 2.0))


def temme_beta_eta(d1: float, d2: float, beta: float) -> tuple[float, float]:
    """Uniform-asymptotic leading term for the regularized incomplete beta.

    ``eta`` has magnitude sqrt(2*KL((p, 1-p) || (beta, 1-beta))) with
    p = d1/(d1+d2) and the sign of ``beta - p``; the approximation is
    ``I_beta(d1, d2) ~ 0.5*erfc(-eta*sqrt((d1+d2)/2))``, which vanishes
    below the concentration point p and tends to one above it.  The
    divergence is the F-bound excess at f = beta/(1-beta).
    """
    if not d1 > d2 > 0:
        raise InvalidArgumentError(f"requires d1 > d2 > 0, got d1={d1}, d2={d2}")
    if not 0 < beta < 1:
        raise InvalidArgumentError(f"beta must lie in (0, 1), got {beta}")
    p = d1 / (d1 + d2)
    eta = math.copysign(math.sqrt(2.0 * _if_excess(beta / (1.0 - beta), p / (1.0 - p), p)), beta - p)
    return eta, 0.5 * math.erfc(-eta * math.sqrt((d1 + d2) / 2.0))


def chi2_rate(nu: float, gamma: float, branch: str) -> float:
    """Exponential decay rate of normalised chi-square tails.

    ``(1/n) ln P(X >= 1+nu) -> -(gamma/2) phi(nu)`` on the upper branch and
    ``(1/n) ln P(X <= 1-nu) -> -(gamma/2) phi(-nu)`` on the lower branch,
    where phi(x) = x - ln(1+x), X ~ chi^2_l / l and l/n -> gamma.
    """
    _check_range("gamma", gamma, 1.0)
    if branch not in ("upper", "lower"):
        raise InvalidArgumentError(f"branch must be 'upper' or 'lower', got {branch!r}")
    if branch == "upper" and not nu > 0:
        raise InvalidArgumentError("upper branch requires nu > 0")
    if branch == "lower" and not 0 < nu < 1:
        raise InvalidArgumentError("lower branch requires nu in (0, 1)")
    return -(gamma / 2.0) * float(_x_minus_log1p(nu if branch == "upper" else -nu))


def f_rate(f: float, rho: float) -> float:
    """Decay-rate magnitude for the scaled F tail.

    Returns ``r = 0.5*[ln(1+f) - rho*ln(f) - H(rho)]`` with the convention
    ``(1/n) ln P(X_n >= f) -> -r`` for X_n ~ (k/(n-k+1)) F(k, n-k+1) and
    k/n -> rho; valid for f > rho/(1-rho), where r >= 0.
    """
    if not 0 < rho < 1:
        raise InvalidArgumentError(f"rho must lie in (0, 1), got {rho}")
    lo = rho / (1.0 - rho)
    if not f > lo:
        raise InvalidArgumentError(f"requires f > rho/(1-rho) = {lo}, got {f}")
    return 0.5 * float(_if_excess(f, lo, rho))


def binom_entropy_limit(delta: float, rho: float) -> float:
    """Growth exponent of the support count: (1/n) ln C(N, k) -> H(delta*rho)/delta."""
    _check_range("delta", delta, 1.0)
    _check_range("rho", rho, 1.0)
    return shannon_entropy(delta * rho) / delta
