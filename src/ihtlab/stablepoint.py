"""Stable-point verification: fixed-point conditions, minimum-norm solutions
and exhaustive enumeration of stable supports at desk scale.

A point x̄ supported inside a cardinality-k set Γ is an alpha-stable point
when the gradient of the least-squares objective vanishes on Γ and the
smallest on-support magnitude dominates alpha times the largest off-support
gradient entry.  Fixed points of constant-stepsize IHT are exactly the
alpha-stable points for that stepsize.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SupportSet, all_supports, column_stacks, least_squares_split, matvec, restrict
from .errors import InvalidArgumentError

DEFAULT_STABILITY_TOL = 1e-8


@dataclass(frozen=True)
class StablePointReport:
    gamma: SupportSet
    is_stable: bool
    gradient_on_support_norm: float
    min_on_support: float
    max_off_support_gradient: float
    alpha_used: float


@dataclass(frozen=True)
class StableConditionTerms:
    """The four norms entering the stable-point necessary condition.

    A stable point on Γ ≠ Λ with lower stepsize bound alpha requires
    ``lhs_signal + lhs_noise >= alpha * (rhs_signal - rhs_noise)``.
    """

    lhs_signal: float
    lhs_noise: float
    rhs_signal: float
    rhs_noise: float

    def holds_for(self, alpha: float) -> bool:
        return self.lhs_signal + self.lhs_noise >= alpha * (self.rhs_signal - self.rhs_noise)


def min_norm_solution(A: np.ndarray, b: np.ndarray, gamma: SupportSet) -> np.ndarray:
    """Least-squares solution supported on gamma, zero elsewhere."""
    A = np.asarray(A, dtype=float)
    x = np.zeros(A.shape[1])
    if len(gamma) == 0:
        return x
    _, [(y, _)] = least_squares_split(restrict(A, gamma), np.asarray(b, dtype=float))
    x[gamma.as_array()] = y
    return x


def is_stable_point(
    x_bar: np.ndarray,
    gamma: SupportSet,
    alpha_lb: float,
    A: np.ndarray,
    b: np.ndarray,
    tol: float = DEFAULT_STABILITY_TOL,
) -> StablePointReport:
    """Check the two stable-point conditions at absolute tolerance ``tol``.

    The gradient condition is tested entrywise (max-norm) on gamma; the
    magnitude condition compares the smallest on-support entry of x̄ against
    ``alpha_lb`` times the largest off-support gradient magnitude.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    if not SupportSet.support_of(x_bar).issubset(gamma):
        raise InvalidArgumentError("x_bar must be supported inside gamma")
    A = np.asarray(A, dtype=float)
    grad = A.T @ (np.asarray(b, dtype=float) - A @ x_bar)
    on_mask = np.zeros(A.shape[1], dtype=bool)
    on_mask[gamma.as_array()] = True
    stable, *terms = _stability_test(x_bar, grad, on_mask, alpha_lb, tol)
    return StablePointReport(gamma, bool(stable), *map(float, terms), alpha_lb)


def _stability_test(x_bar, grad, on_mask, alpha_lb, tol):
    """The two conditions along the last axis of stacked points, gradients
    and support masks: ``(stable, grad_on, min_on, max_off)`` in the order
    of the report fields, with ``min_on`` 0 on an empty support."""
    grad = np.abs(grad)
    grad_on = np.max(grad, axis=-1, where=on_mask, initial=0.0)
    min_on = np.min(np.abs(x_bar), axis=-1, where=on_mask, initial=np.inf)
    min_on = np.where(on_mask.any(axis=-1), min_on, 0.0)
    max_off = np.max(grad, axis=-1, where=~on_mask, initial=0.0)
    return (grad_on <= tol) & (min_on >= alpha_lb * max_off - tol), grad_on, min_on, max_off


def stable_condition_terms(
    A: np.ndarray,
    x_star: np.ndarray,
    e: np.ndarray,
    gamma: SupportSet,
    lam: SupportSet,
) -> StableConditionTerms:
    """Evaluate the four norms of the stable-point necessary condition.

    Signal and noise are split on one thin QR factor of A_gamma
    (``least_squares_split``) rather than an explicitly formed projector.
    """
    if gamma == lam:
        raise InvalidArgumentError("the condition is defined only for gamma != lam")
    if len(gamma) != len(lam):
        raise InvalidArgumentError("gamma and lam must have equal cardinality")
    A = np.asarray(A, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    diff = lam.difference(gamma)
    A_diff = restrict(A, diff)
    v_signal = A_diff @ x_star[diff.as_array()]
    _, [(y_signal, w_signal), (y_noise, w_noise)] = least_squares_split(restrict(A, gamma), v_signal, e)
    return StableConditionTerms(
        lhs_signal=float(np.linalg.norm(y_signal)),
        lhs_noise=float(np.linalg.norm(y_noise)),
        rhs_signal=float(np.linalg.norm(A_diff.T @ w_signal)),
        rhs_noise=float(np.linalg.norm(A_diff.T @ w_noise)),
    )


def enumerate_stable_supports(
    A: np.ndarray,
    b: np.ndarray,
    k: int,
    alpha_lb: float,
    tol: float = DEFAULT_STABILITY_TOL,
) -> list[StablePointReport]:
    """Test every cardinality-k support for stability; return the stable ones.

    Supports are visited in lexicographic order, and each candidate point is
    the minimum-norm solution on its support.  Chunks of supports are solved
    as one stack and tested together, and a report is built only for a
    stable support.  The combinatorial budget caps C(N, k) at
    ``core.ENUMERATION_BUDGET``.  A NaN or an infinity in A or b raises
    ``InvalidArgumentError``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.isfinite(b).all():
        raise InvalidArgumentError("the vector b must be finite")
    N = A.shape[1]
    reports = []
    for idx, A_gamma in column_stacks(A, all_supports(N, k)):
        rows = np.arange(len(idx))[:, None]
        x_bar = np.zeros((len(idx), N))
        _, [(y, _)] = least_squares_split(A_gamma, np.broadcast_to(b, (len(idx),) + b.shape))
        x_bar[rows, idx] = y
        grad = matvec(A.T, b - matvec(A, x_bar))
        on_mask = np.zeros(x_bar.shape, dtype=bool)
        on_mask[rows, idx] = True
        stable, *terms = _stability_test(x_bar, grad, on_mask, alpha_lb, tol)
        reports.extend(
            StablePointReport(SupportSet(tuple(idx[i].tolist())), True, *(float(t[i]) for t in terms), alpha_lb)
            for i in np.flatnonzero(stable)
        )
    return reports
