"""Entropy, implicit tail-bound functions, chi-square and F CDFs and the
uniform asymptotics that back the large-deviation analysis.

The three tail-bound functions are roots of strictly monotone equations.  They
take scalars or arrays, and one vectorised, safeguarded Newton kernel
(``_newton_root``) solves them all to float precision, or raises a
``NumericalDomainError`` that names the point where it cannot.  The chi-square
and F CDFs are the regularized incomplete gamma and beta functions in numpy:
power series and continued fractions after Numerical Recipes (3rd ed.,
sections 6.2 and 6.4) with the prefactors of DiDonato & Morris (ACM TOMS
12(4), 1986), within 1e-13 absolute up to 200 degrees of freedom and 1e-12
up to 4,000.
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


# The incomplete gamma and beta functions behind the CDFs (NR is Numerical
# Recipes, 3rd ed.).  Each series or continued fraction is summed to the depth
# at which it has converged at its slowest point, found in scalar arithmetic;
# a depth past CDF_MAX_ITERATIONS raises a NumericalDomainError naming it.
CDF_MAX_ITERATIONS = 10_000
_EPS = np.finfo(float).eps
# A continued fraction has converged once two Lentz factors in a row lie
# within this of one.
_CF_TOL = 4.0 * _EPS
# Coefficients B_2k / (2k (2k-1)), k = 1..7, of the Stirling series of mu below.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling_correction(a: float) -> float:
    """mu(a) = ln Gamma(a) - (a - 1/2) ln a + a - ln(2 pi)/2 for a > 0, within
    about 1e-15: the Stirling series in 1/a from a = 10, where its next term
    is below 1e-16, reached by mu(a) = mu(a+1) + (a + 1/2) ln(1 + 1/a) - 1."""
    shift = 0.0
    while a < 10.0:
        shift += (a + 0.5) * math.log1p(1.0 / a) - 1.0
        a += 1.0
    w = 1.0 / (a * a)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * w + c
    return series / a + shift


def _phi(t, r):
    """phi(t) = t - ln(1+t) from t and r = 1 + t, both to full relative
    precision: ln r keeps the digits that 1 + t loses as t nears -1."""
    with np.errstate(divide="ignore"):
        phi = t - np.log(r)
    small = np.abs(t) < 0.25
    phi[small] = _x_minus_log1p(t[small])
    return phi


def _not_converged(what: str, point: str):
    raise NumericalDomainError(f"{what} not converged within {CDF_MAX_ITERATIONS} iterations at {point}")


def _gamma_series(x, a: float):
    """sum_n x^n / ((a+1)...(a+n)), so that P(a, x) = x^a e^-x / Gamma(a+1)
    times it (NR 6.2.5), for 0 <= x < a + 1.  Its terms are counted at the
    largest x, whose tail is the largest relative to its sum, and summed by
    Horner's rule in x / (a+1), where no coefficient exceeds one."""
    top = x.max()
    term = total = 1.0
    coefs = [1.0]
    for n in range(1, CDF_MAX_ITERATIONS + 1):
        term *= top / (a + n)
        total += term
        coefs.append(coefs[-1] * (a + 1.0) / (a + n))
        if term <= _EPS * total:
            break
    else:
        _not_converged("incomplete gamma series", f"a={a:.17g}, x={top:.17g}")
    z = x / (a + 1.0)
    s = np.full_like(x, coefs.pop())
    for c in reversed(coefs):
        s *= z
        s += c
    return s


def _fraction_depth(what: str, point: str, b0: float, level) -> int:
    """The depth n at which modified Lentz (NR 5.2) has converged on
    1/(b0 + a1/(b1 + a2/(b2 + ...))), in scalar arithmetic, with
    ``level(i) = (a_i, b_i)``: two levels in a row change it by at most
    ``_CF_TOL``, so that rounding noise in one Lentz factor cannot end it.
    A zero denominator becomes 1e-300, as in NR."""
    d, c = 1.0 / b0, math.inf
    settled = 0
    for i in range(1, CDF_MAX_ITERATIONS + 1):
        an, bn = level(i)
        d = 1.0 / ((an * d + bn) or 1e-300)
        c = (bn + an / c) or 1e-300
        settled = settled + 1 if abs(d * c - 1.0) <= _CF_TOL else 0
        if settled == 2:
            return i
    _not_converged(what, point)


def _gamma_fraction(x, a: float):
    """Q(a, x) / (x^a e^-x / Gamma(a)) as the continued fraction
    1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...))) (NR 6.2.7) for finite
    x >= a + 1: its depth is found at the smallest x, where it converges
    slowest, and every x is evaluated from that depth up."""
    low = x.min()
    n = _fraction_depth(
        "incomplete gamma continued fraction", f"a={a:.17g}, x={low:.17g}",
        low + 1.0 - a, lambda i: (-i * (i - a), low + 1.0 - a + 2 * i),
    )
    t = x + (2 * n + 1 - a)
    for i in range(n, 0, -1):
        np.divide(-i * (i - a), t, out=t)
        t += x
        t += 2 * i - 1 - a
    return 1.0 / t


def _gamma_p(x, a: float):
    """Regularized lower incomplete gamma P(a, x) for x >= 0 and one a > 0.

    The prefactor x^a e^-x / Gamma(a) is sqrt(a / 2 pi) exp(-a phi((x-a)/a)
    - mu(a)), whose exponent carries no cancellation for large a, where
    a ln x - x - ln Gamma(a) loses about eps a ln a.
    """
    p = np.ones_like(x)
    finite = x < np.inf
    body = x[finite]
    front = math.sqrt(a / (2.0 * math.pi)) * np.exp(-a * _phi((body - a) / a, body / a) - _stirling_correction(a))
    low = body < a + 1.0
    high = ~low
    value = np.empty_like(body)
    if low.any():
        value[low] = front[low] / a * _gamma_series(body[low], a)
    if high.any():
        value[high] = 1.0 - front[high] * _gamma_fraction(body[high], a)
    p[finite] = value
    return p


def _beta_fraction(x, a: float, b: float):
    """I_x(a, b) / (x^a (1-x)^b / (a B(a, b))) as the continued fraction
    1/(1 + d1/(1 + d2/(1 + ...))) of NR 6.4.5 for x < (a+1)/(a+b+2): its
    depth is found at the largest x, where it converges slowest, and every
    x is evaluated from that depth up."""

    def coef(j):  # d_j / x
        m = j // 2
        if j % 2:
            return -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1))
        return m * (b - m) / ((a + 2 * m - 1) * (a + 2 * m))

    top = x.max()
    n = _fraction_depth(
        "incomplete beta continued fraction", f"a={a:.17g}, b={b:.17g}, x={top:.17g}",
        1.0, lambda j: (coef(j) * top, 1.0),
    )
    t = np.ones_like(x)
    for j in range(n, 0, -1):
        np.divide(x, t, out=t)
        t *= coef(j)
        t += 1.0
    return 1.0 / t


def _beta_front(x, y, a: float, b: float):
    """x^a y^b / B(a, b), y = 1 - x, as sqrt(ab / (2 pi (a+b))) exp(-a phi(-lam/a)
    - b phi(lam/b) - mu(a) - mu(b) + mu(a+b)) with lam = a - (a+b) x
    (DiDonato & Morris's brcomp): no cancellation for large a and b."""
    lam = a - (a + b) * x if a <= b else (a + b) * y - b
    exponent = a * _phi(-lam / a, x * ((a + b) / a)) + b * _phi(lam / b, y * ((a + b) / b))
    mu = _stirling_correction(a) + _stirling_correction(b) - _stirling_correction(a + b)
    return math.sqrt(a * b / (2.0 * math.pi * (a + b))) * np.exp(-exponent - mu)


def _beta_inc(x, y, a: float, b: float):
    """Regularized incomplete beta I_x(a, b) for x in [0, 1], y = 1 - x to
    full precision as well, and one pair a, b > 0: the continued fraction
    below x = (a+1)/(a+b+2), else 1 - I_y(b, a), which keeps 1 - I accurate."""
    front = _beta_front(x, y, a, b)
    low = x < (a + 1.0) / (a + b + 2.0)
    high = ~low
    p = np.empty_like(x)
    if low.any():
        p[low] = front[low] / a * _beta_fraction(x[low], a, b)
    if high.any():
        p[high] = 1.0 - front[high] / b * _beta_fraction(y[high], b, a)
    return p


def _f_cdf(x, d1: float, d2: float):
    """F(d1, d2) CDF of x >= 0 as I_u(d1/2, d2/2), u = d1 x / (d1 x + d2),
    with 1 - u = d2 / (d1 x + d2) taken without cancellation."""
    v = x * (d1 / d2)
    with np.errstate(divide="ignore"):
        return _beta_inc(1.0 / (1.0 + 1.0 / v), 1.0 / (1.0 + v), d1 / 2.0, d2 / 2.0)


def _each_parameter(kernel, x, *params):
    """``kernel(part, *p)`` over each distinct tuple ``p`` of the broadcast
    parameters, as Python floats, on the 1-D part of ``x`` that shares it;
    the result has the broadcast shape, or is a Python float."""
    shape = np.broadcast_shapes(x.shape, *(p.shape for p in params))
    flat = np.broadcast_to(x, shape).ravel()
    if all(p.size == 1 for p in params):
        out = kernel(flat, *(p.item() for p in params))
    else:
        keys = np.stack([np.broadcast_to(p, shape).ravel() for p in params])
        values, group = np.unique(keys, axis=1, return_inverse=True)
        out = np.empty(flat.shape)
        for g, key in enumerate(values.T):
            part = group == g
            out[part] = kernel(flat[part], *key.tolist())
    return _unwrap(out.reshape(shape))


def _check_dof(*dofs):
    for dof in dofs:
        if not np.all(dof >= 1):
            raise InvalidArgumentError("degrees of freedom must be >= 1")
        if np.any(dof == np.inf):
            raise InvalidArgumentError("degrees of freedom must be finite")


def chi2_cdf(x, dof):
    """Chi-square CDF with ``dof`` degrees of freedom, P(dof/2, x/2); exactly
    0 at x = 0 and 1 at x = inf.  Arguments broadcast; NaN x, dof below one
    or an infinite dof raise ``InvalidArgumentError``.

    P(a, x) is summed as its power series below x = a + 1 and as 1 - Q(a, x)
    from the continued fraction of Q above (Numerical Recipes, 3rd ed.,
    section 6.2), with the prefactor of ``_gamma_p``.  It is within 1e-13
    absolute of the exact value up to dof 200 and within 1e-12 up to dof
    4000.  Each series or fraction runs to the depth its slowest point
    needs, so a value can differ in its last bits with the other points of
    the call; a depth past ``CDF_MAX_ITERATIONS`` raises
    ``NumericalDomainError``.
    """
    x, dof = np.asarray(x, dtype=float), np.asarray(dof, dtype=float)
    if not np.all(x >= 0):
        raise InvalidArgumentError("chi-square CDF requires x >= 0")
    _check_dof(dof)
    return _each_parameter(_gamma_p, x / 2.0, dof / 2.0)


def f_cdf(x, d1, d2):
    """F-distribution CDF with (d1, d2) degrees of freedom, I_u(d1/2, d2/2)
    with u = d1 x / (d1 x + d2); exactly 0 at x = 0 and 1 at x = inf.
    Arguments broadcast; NaN x, a dof below one or an infinite dof raise
    ``InvalidArgumentError``.

    I_u(a, b) is the continued fraction of Numerical Recipes, 3rd ed.,
    section 6.4, below u = (a+1)/(a+b+2) and 1 - I_{1-u}(b, a) above, so
    that in the upper tail F is one less a tail computed to full relative
    precision; its prefactor is DiDonato & Morris's (ACM TOMS 12(4), 1986).
    Accuracy, depth and the iteration cap are as for ``chi2_cdf``.
    """
    x, d1, d2 = (np.asarray(v, dtype=float) for v in (x, d1, d2))
    if not np.all(x >= 0):
        raise InvalidArgumentError("F CDF requires x >= 0")
    _check_dof(d1, d2)
    return _each_parameter(_f_cdf, x, d1, d2)


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
