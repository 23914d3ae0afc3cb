"""Phase-transition lower bounds, admissible stepsize intervals and noise
stability factors, plus deterministic CSV emission of the curve/surface grids.

All quantities combine the implicit tail-bound roots from ``asymptotics``
with asymptotic Gaussian RIP bounds supplied by a ``RipBoundProvider``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import TailInputs, _if_root, _unwrap, tail_il, tail_iu
from .errors import InvalidArgumentError, NumericalDomainError, StabilityUndefinedError
from .rip import RipBoundProvider

RHO_BRACKET_LO = 1e-8
RHO_BRACKET_HI = 0.5
# Rho points a delta in one lockstep step of ``_solve_rho``: 64 split among the
# unresolved deltas, but at least 6.  Per-call overhead sets the cost of a step
# of up to a few hundred points: a 100-delta curve takes 6-8 steps, not 58.
RHO_POINTS_PER_STEP = 64
RHO_POINTS_FLOOR = 6
# A bracket narrower than this fraction of its upper end is in rounding noise:
# the sign of the difference of the sides no longer follows rho there.
RHO_NOISE_WIDTH = 1e-12

XI_NIHT_AS_PRINTED = "as_printed"
XI_NIHT_WITH_ONE_PLUS_A = "with_one_plus_a"
XI_NIHT_VARIANTS = (XI_NIHT_AS_PRINTED, XI_NIHT_WITH_ONE_PLUS_A)


@dataclass(frozen=True)
class TransitionResult:
    """Transition bound at one delta, or at each delta of an array (then
    ``delta``, ``rho_hat``, ``residual`` and ``saturated`` are arrays)."""

    delta: float
    rho_hat: float
    residual: float
    provider_id: str
    saturated: bool = False


@dataclass(frozen=True)
class StabilityResult:
    """a and xi at the stepsize ``alpha``; for IHT also the admissible
    stepsize ``interval`` (see ``stepsize_interval_iht``), None for N-IHT."""

    a: float
    xi: float
    alpha: float
    interval: tuple | None = None


def _roots(delta, rho, f_start=None):
    """(IF, IL(delta, rho, 1-rho)): the two tail roots that the left side, the
    IHT stepsize interval and the stability factors all read.  A caller that
    needs several of them solves the roots once and passes them as ``roots=``.
    Newton for the F root starts at ``f_start`` (default: its own estimate)."""
    rho = np.asarray(rho, dtype=float)
    return _if_root(delta, rho, f_start).value, tail_il(TailInputs(delta, rho, 1.0 - rho)).value


def lhs_stable(delta, rho, *, roots=None):
    """Left side of the transition equation: sqrt(IF)/[(1-rho)(1 - IL(delta,rho,1-rho))],
    at scalars or arrays that broadcast together, from the ``_roots`` of
    (delta, rho), solved here if not given."""
    f_root, il = _roots(delta, rho) if roots is None else roots
    denom = (1.0 - np.asarray(rho, dtype=float)) * (1.0 - il)
    if np.any(denom < 1e-300):
        raise NumericalDomainError("stable-point denominator underflow")
    return _unwrap(np.sqrt(f_root) / denom)


def _alpha_lb(delta, rho, kappa: float, provider: RipBoundProvider):
    """Guaranteed lower N-IHT stepsize 1/(kappa*(1+U(delta, 2*rho))); at
    kappa = 1 the upper end of the admissible IHT stepsize interval."""
    return 1.0 / (kappa * (1.0 + provider.query(delta, 2.0 * rho)))


def _rho_points(a, b, ga, gb, error, m: int) -> np.ndarray:
    """``m`` sorted rho points in each bracket [a, b] (columns) with values
    ga <= 0 < gb: equally spaced and, from four points on, two fifths of them
    on each side of the regula falsi point at 10^-1, 10^-1.5, ... of a width:
    30 times the falsi point's estimated ``error`` (the bracket width where it
    is not finite), so that the next bracket is a few times that error, in
    [10^-4, 1] times the bracket width and no less than keeps the last point
    10^-13 of it from the falsi point, which a 64-point ladder needs in full."""
    k = 2 * (m - 1) // 5
    floor = max(1e-4, 10.0 ** (0.5 * k - 12.5)) * (b - a)
    width = np.where(np.isfinite(error), np.clip(30.0 * error, floor, b - a), b - a)
    offsets = 10.0 ** -(1.0 + 0.5 * np.arange(k)) * width
    uniform = m - 2 * k
    points = a + (b - a) * (np.arange(1, uniform + 1) / (uniform + 1))
    if k:
        falsi = a - ga * (b - a) / (gb - ga)
        points = np.sort(np.clip(np.concatenate([points, falsi - offsets, falsi + offsets], axis=1), a, b), axis=1)
    return points


def _solve_rho(delta, kappa: float, provider: RipBoundProvider) -> TransitionResult:
    """Solve lhs_stable(delta, rho) = 1/(kappa*(1+U(delta, 2*rho))) for rho in
    the standard bracket, for every delta of an array in lockstep.

    The left side increases and the right side does not, so each crossing is
    unique.  Every delta keeps its bracket, with the difference of the sides
    and the F root at its ends.  A step evaluates ``_rho_points`` in each
    bracket, as many as RHO_POINTS_PER_STEP // (unresolved deltas) but at
    least RHO_POINTS_FLOOR, the F roots started on the line between their
    values at the ends, and keeps the cell where the sign changes.  That cell
    and the point beside it estimate the error of the cell's regula falsi
    point, and the next points close in on it at that distance, so brackets
    shrink superlinearly.  A delta drops out once its bracket is in rounding
    noise, no wider than RHO_NOISE_WIDTH of its upper end, or, failing that,
    one ulp wide.  Its root is the bracket end with the smaller difference of
    the sides, and ``residual`` is that difference.  A left side below the
    right on the whole bracket saturates at rho = 1/2; one above has no
    crossing.
    """
    delta = np.asarray(delta, dtype=float)
    flat = delta.ravel()

    def evaluate(d, rho, f_start=None):
        """(rho, difference of the sides, F root) at each point, stacked last."""
        roots = _roots(d, rho, f_start)
        lhs = lhs_stable(d, rho, roots=roots)
        return np.stack(np.broadcast_arrays(rho, lhs - _alpha_lb(d, rho, kappa, provider), roots[0]), -1)

    # The first step evaluates the bracket ends too.
    m = max(RHO_POINTS_FLOOR, RHO_POINTS_PER_STEP // max(flat.size, 1))
    cells = evaluate(flat[:, None], np.linspace(RHO_BRACKET_LO, RHO_BRACKET_HI, m + 2))
    if np.any(cells[:, 0, 1] > 0):
        raise NumericalDomainError(
            f"no crossing: transition lies below rho={RHO_BRACKET_LO} at delta={flat[cells[:, 0, 1] > 0][0]} "
            f"(provider {provider.provider_id})"
        )
    saturated = cells[:, -1, 1] < 0
    # The bracket ends, then a point beside the bracket (set in the loop).
    ends = cells[:, [0, -1, 0]]
    active = np.flatnonzero(~saturated)
    cells = cells[active]
    while active.size:
        above = ~(cells[:, 1:, 1] <= 0)
        above[:, -1] = True
        first = np.argmax(above, axis=1)[:, None]
        ends[active] = cells[np.arange(active.size)[:, None], first + np.where(first > 0, [0, 1, -1], [0, 1, 2])]
        lo, hi = ends[active, 0, 0], ends[active, 1, 0]
        active = active[(hi - lo > RHO_NOISE_WIDTH * hi) & (lo < 0.5 * (lo + hi)) & (0.5 * (lo + hi) < hi)]
        if active.size:
            (a, ga, fa), (b, gb, fb), (c, gc, _) = ends[active].transpose(1, 2, 0)[..., None]
            # |g''/(2g')|*(falsi - a)*(b - falsi) by divided differences; NaN or inf at a repeated point.
            slope = (gb - ga) / (b - a)
            with np.errstate(divide="ignore", invalid="ignore"):
                error = np.abs(((gc - gb) / (c - b) - slope) / (c - a)) * -ga * gb / slope**3
            points = _rho_points(a, b, ga, gb, error, max(RHO_POINTS_FLOOR, RHO_POINTS_PER_STEP // active.size))
            cells = evaluate(flat[active, None], points, fa + (fb - fa) * (points - a) / (b - a))
            cells = np.concatenate([ends[active, :1], cells, ends[active, 1:2]], axis=1)
    # A saturated delta's upper end is rho = 1/2.
    best = ends[np.arange(flat.size), (saturated | (np.abs(ends[:, 1, 1]) < np.abs(ends[:, 0, 1]))).astype(int)]
    rho_hat, residual = best[:, 0], np.abs(best[:, 1])
    return TransitionResult(
        delta=_unwrap(delta),
        rho_hat=_unwrap(rho_hat.reshape(delta.shape)),
        residual=_unwrap(residual.reshape(delta.shape)),
        provider_id=provider.provider_id,
        saturated=_unwrap(saturated.reshape(delta.shape)),
    )


def rho_hat_iht(delta, provider: RipBoundProvider) -> TransitionResult:
    """Phase-transition lower bound for constant-stepsize IHT: the N-IHT bound at kappa = 1."""
    return rho_hat_niht(delta, 1.0, provider)


def rho_hat_niht(delta, kappa: float, provider: RipBoundProvider) -> TransitionResult:
    """Phase-transition lower bound for normalised IHT with parameter kappa,
    at one delta or at every delta of an array."""
    _check_kappa(kappa)
    return _solve_rho(delta, kappa, provider)


def _check_kappa(kappa: float) -> None:
    """N-IHT needs a finite kappa >= 1: at kappa = inf the guaranteed
    stepsize 1/(kappa*(1+U)) is 0."""
    if not kappa >= 1.0:
        raise InvalidArgumentError(f"kappa must be >= 1, got {kappa}")
    if kappa == math.inf:
        raise InvalidArgumentError(f"kappa must be finite, got {kappa}")


def stepsize_interval_iht(delta, rho, provider: RipBoundProvider, *, roots=None):
    """Admissible IHT stepsize interval (lo, hi); None when empty.  Over
    arrays, the arrays (lo, hi) with NaN where the interval is empty.  Reads
    the ``_roots`` of (delta, rho), solved here if not given."""
    lo, hi = lhs_stable(delta, rho, roots=roots), _alpha_lb(delta, rho, 1.0, provider)
    empty = lo >= hi
    if np.ndim(empty) == 0:
        return None if empty else (lo, hi)
    return np.where(empty, np.nan, lo), np.where(empty, np.nan, hi)


def _stability_core(delta, rho, alpha, one_plus_a: bool, roots):
    """a and xi at the effective lower stepsize alpha, over scalars or arrays,
    from the ``_roots`` of (delta, rho).

    The factor is undefined where alpha*(1-rho)*(1-IL) does not exceed
    sqrt(IF): a scalar point raises StabilityUndefinedError, arrays hold NaN.
    The two upper tail roots are solved only where it is defined.
    """
    f_root, il = roots
    sqrt_f = np.sqrt(f_root)
    scaled = alpha * (1.0 - rho) * (1.0 - il)
    defined = np.asarray(scaled > sqrt_f)
    if defined.ndim == 0 and not defined:
        raise StabilityUndefinedError(
            f"stability undefined at delta={delta}, rho={rho}: "
            f"alpha*(1-rho)*(1-IL) = {scaled:.6g} does not exceed sqrt(IF) = {sqrt_f:.6g}"
        )
    d, r = (np.broadcast_to(np.asarray(v, dtype=float), defined.shape)[defined] for v in (delta, rho))
    iu1 = tail_iu(TailInputs(d, r, 1.0 - r)).value
    iu2 = tail_iu(TailInputs(d, r, r)).value
    product = np.full(defined.shape, np.nan)
    product[defined] = np.sqrt(r * (1.0 - r) * (1.0 + iu1) * (1.0 + iu2))
    a = np.where(defined, (sqrt_f + alpha * product) / (scaled - sqrt_f), np.nan)
    if one_plus_a:
        return _unwrap(a), _unwrap(np.sqrt(f_root * (1.0 + a) ** 2 + a**2))
    return _unwrap(a), _unwrap(np.sqrt(f_root * a**2 + a**2))


def stability_factor_iht(delta, rho, provider: RipBoundProvider, *, alpha=None) -> StabilityResult:
    """Noise stability factor for IHT at stepsize alpha, over scalars or
    arrays (see ``_stability_core``), by default at the midpoint of the
    admissible interval: an empty one raises StabilityUndefinedError at one
    point and gives NaN over arrays.

    A given alpha must be positive and finite and may lie outside the
    interval, strictly above the stable-point threshold; over arrays a NaN
    alpha marks a point without a stepsize and gives NaN, and an infinite one
    is refused as at one point.
    """
    # The roots first: they refuse a (delta, rho) outside the domain before the provider sees it.
    roots = _roots(delta, rho)
    interval = stepsize_interval_iht(delta, rho, provider, roots=roots)
    if alpha is None:
        if interval is None:
            raise StabilityUndefinedError(f"empty admissible stepsize interval at delta={delta}, rho={rho}")
        alpha = 0.5 * (interval[0] + interval[1])
    else:
        values = np.asarray(alpha, dtype=float)
        if np.any((values <= 0) | (values == np.inf)) or values.ndim == 0 and np.isnan(values):
            raise InvalidArgumentError(f"alpha must be positive and finite, got {alpha}")
    return StabilityResult(*_stability_core(delta, rho, alpha, True, roots), alpha, interval)


def stability_factor_niht(
    delta,
    rho,
    kappa: float,
    provider: RipBoundProvider,
    xi_variant: str = XI_NIHT_AS_PRINTED,
) -> StabilityResult:
    """Noise stability factor for N-IHT, over scalars or arrays (see ``_stability_core``).

    The stepsize, returned as ``alpha``, is the guaranteed lower bound
    ``1/(kappa*(1+U(delta, 2*rho)))``.  ``xi_variant`` selects between the
    factor exactly as defined (``as_printed``, the default) and the variant
    carrying the extra ``(1+a)^2`` term that mirrors the IHT factor
    (``with_one_plus_a``); the two disagree in the source analysis and both
    are kept available.
    """
    if xi_variant not in XI_NIHT_VARIANTS:
        raise InvalidArgumentError(f"xi_variant must be one of {XI_NIHT_VARIANTS}")
    _check_kappa(kappa)
    # The roots first: they refuse a (delta, rho) outside the domain before the provider sees it.
    roots = _roots(delta, rho)
    alpha = _alpha_lb(delta, rho, kappa, provider)
    return StabilityResult(*_stability_core(delta, rho, alpha, xi_variant == XI_NIHT_WITH_ONE_PLUS_A, roots), alpha)


def default_delta_grid(num: int = 100) -> np.ndarray:
    """``num`` log-spaced deltas from 1e-3 to 1, the range of the curves."""
    if num < 1:
        raise InvalidArgumentError(f"a delta grid needs at least one point, got {num}")
    return np.logspace(-3.0, 0.0, num)


def _csv_rows(header: str, *columns: np.ndarray) -> list[str]:
    """``header``, then one row per point: 17 significant digits a float field, empty for NaN
    (undefined), and ``str`` of any other field (flag, count, name).  The package's one CSV formatter."""
    template = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in columns)
    return [header] + [(template % row).replace("nan", "") for row in zip(*(c.tolist() for c in columns))]


GRID_KINDS = ("phase_iht", "phase_niht", "xi_iht", "xi_niht", "stepsize_iht")


def grid_emit(
    kind: str,
    provider: RipBoundProvider,
    delta_grid,
    rho_grid=None,
    kappa: float | None = None,
    xi_variant: str = XI_NIHT_AS_PRINTED,
) -> list[str]:
    """Deterministic CSV rows (header first) for one curve or surface.

    Curves (``phase_*``) carry ``delta,rho_hat,residual``; surfaces
    (``xi_*``) carry ``delta,rho,xi``; the stepsize grid carries
    ``delta,rho,alpha_lo,alpha_hi``.  Points where a quantity is undefined
    emit empty fields.  A curve is one batched transition solve and a surface
    one vectorised pass over its (delta, rho) points, delta-major.  The
    N-IHT kinds read ``kappa``, the surfaces ``rho_grid``; neither has a default.
    """
    if kind not in GRID_KINDS:
        raise InvalidArgumentError(f"unknown grid kind {kind!r}; choose from {GRID_KINDS}")
    if kappa is None and kind.endswith("_niht"):
        raise InvalidArgumentError(f"grid kind {kind!r} requires a kappa")
    deltas = np.asarray(delta_grid, dtype=float)
    if kind in ("phase_iht", "phase_niht"):
        if kind == "phase_iht":
            res = rho_hat_iht(deltas, provider)
        else:
            res = rho_hat_niht(deltas, kappa, provider)
        return _csv_rows("delta,rho_hat,residual", deltas, res.rho_hat, res.residual)
    if rho_grid is None:
        raise InvalidArgumentError(f"grid kind {kind!r} requires a rho grid")
    d, r = (v.ravel() for v in np.meshgrid(deltas, np.asarray(rho_grid, dtype=float), indexing="ij"))
    if kind == "stepsize_iht":
        return _csv_rows("delta,rho,alpha_lo,alpha_hi", d, r, *stepsize_interval_iht(d, r, provider))
    if kind == "xi_iht":
        xi = stability_factor_iht(d, r, provider).xi
    else:
        xi = stability_factor_niht(d, r, kappa, provider, xi_variant=xi_variant).xi
    return _csv_rows("delta,rho,xi", d, r, xi)


def write_grid_csv(path, rows: list[str]) -> None:
    """UTF-8, LF-terminated CSV output: the one CSV writer of the package."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(row + "\n")
