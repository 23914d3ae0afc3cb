"""Gradient-projection solvers: constant-stepsize IHT and normalised IHT.

Both variants run one iteration, x+ = H_k(x - alpha * grad), from x0 = 0 and
differ only in the stepsize rule.  ``step`` is that iteration, the one step of
both variants; ``run_solver`` is the loop that calls it.  The loop computes the
residual r = A x - b once per iterate and takes both the gradient and the
recorded objective from it.  Every trace is full: each iterate's x, stepsize,
objective and shrinkage flag, with its support derived from x on demand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ProblemInstance, SupportSet, hard_threshold, top_indices
from .errors import InvalidArgumentError, ShrinkageLoopError, StationaryPointError

VARIANT_IHT = "iht"
VARIANT_NIHT = "niht"

TERMINATION_STEP_TOL = "step_tol"
TERMINATION_RESIDUAL_TOL = "residual_tol"
TERMINATION_MAX_ITERS = "max_iters"
TERMINATION_STATIONARY = "linesearch_fixed_support_stationary"

# Guard on the stepsize shrinkage loop; termination is guaranteed in exact
# arithmetic but floating point needs a cap.
MAX_SHRINK_STEPS = 200


@dataclass(frozen=True)
class SolverConfig:
    variant: str
    alpha: float | None = None
    kappa: float = 1.1
    c: float = 0.05
    max_iters: int = 10_000
    step_tol: float = 1e-10
    residual_tol: float = 0.0

    def __post_init__(self):
        if self.variant not in (VARIANT_IHT, VARIANT_NIHT):
            raise InvalidArgumentError(f"unknown solver variant {self.variant!r}")
        if self.variant == VARIANT_IHT:
            if self.alpha is None or not 0 < self.alpha < math.inf:
                raise InvalidArgumentError(f"constant-stepsize IHT requires a finite alpha > 0, got {self.alpha}")
        else:
            if not 0 < self.c < 1:
                raise InvalidArgumentError(f"N-IHT requires c in (0, 1), got {self.c}")
            if self.kappa == math.inf:
                raise InvalidArgumentError(f"N-IHT requires a finite kappa, got {self.kappa}")
            if not self.kappa * (1.0 - self.c) > 1.0:
                raise InvalidArgumentError(
                    f"N-IHT requires kappa > 1/(1-c); got kappa={self.kappa}, c={self.c}"
                )
        if not self.max_iters >= 1:
            raise InvalidArgumentError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.step_tol >= 0 and self.residual_tol >= 0):
            raise InvalidArgumentError(f"tolerances must be nonnegative, got {self.step_tol}, {self.residual_tol}")


@dataclass(eq=False)
class IterateRecord:
    """State at iteration m plus the stepsize applied to leave it.

    ``alpha`` is NaN on the final record (no further step is taken).
    """

    x: np.ndarray
    alpha: float
    objective: float
    used_shrinkage: bool

    @property
    def support(self) -> SupportSet:
        return SupportSet.support_of(self.x)


@dataclass(eq=False)
class SolverTrace:
    iterates: list[IterateRecord] = field(default_factory=list)
    termination_reason: str = ""

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1].x

    @property
    def n_iterations(self) -> int:
        return len(self.iterates) - 1

    def stepsizes(self) -> np.ndarray:
        return np.array([rec.alpha for rec in self.iterates[:-1]])

    def objectives(self) -> np.ndarray:
        return np.array([rec.objective for rec in self.iterates])


@dataclass
class InequalityReport:
    """Result of re-checking the per-iteration descent inequalities on a trace."""

    n_pairs: int
    violations: list[tuple[int, str, float]]
    max_projection_slack: float
    max_taylor_residual: float

    @property
    def ok(self) -> bool:
        return not self.violations


def _linesearch(x, g, gamma, A_gamma, A, k, config) -> tuple[float, bool, np.ndarray]:
    """N-IHT stepsize on the support index array ``gamma`` from the gradient g.

    ``A_gamma`` must be a C-ordered copy of ``A[:, gamma]``: the F-ordered
    result of plain indexing takes another BLAS path and moves the last bit.
    """
    g_gamma = g[gamma]
    num = float(g_gamma @ g_gamma)
    den_vec = A_gamma @ g_gamma
    den = float(den_vec @ den_vec)
    if num == 0.0 or den == 0.0:
        raise StationaryPointError("restricted gradient is zero; linesearch stepsize is 0/0")
    alpha = num / den
    x_trial = hard_threshold(x - alpha * g, k)
    # A non-finite trial point is returned as is; the kernel ends the run.
    if not np.isfinite(x_trial).all() or np.array_equal(np.flatnonzero(x_trial), gamma):
        return alpha, False, x_trial
    shrink = config.kappa * (1.0 - config.c)
    for _ in range(MAX_SHRINK_STEPS):
        diff = x_trial - x
        diff_norm2 = float(diff @ diff)
        if diff_norm2 == 0.0:
            # Null trial step: nothing to decrease; accept and let the
            # caller's step tolerance terminate the run.
            return alpha, True, x_trial
        a_diff = A @ diff
        bound = (1.0 - config.c) * diff_norm2 / float(a_diff @ a_diff)
        if alpha < bound:
            return alpha, True, x_trial
        alpha /= shrink
        x_trial = hard_threshold(x - alpha * g, k)
    raise ShrinkageLoopError(f"shrinkage loop did not exit within {MAX_SHRINK_STEPS} reductions")


def step(x, r, A, k, config: SolverConfig) -> tuple[float, bool, np.ndarray]:
    """One iteration x+ = H_k(x - alpha * A^T r) from the residual r = A x - b.

    Returns ``(alpha, used_shrinkage, x_next)``.  IHT takes the constant
    ``config.alpha``.  N-IHT takes the exact-linesearch value, the Rayleigh
    quotient of the gradient restricted to the support of x, and keeps it when
    the trial point preserves that support; otherwise it shrinks it by
    kappa*(1-c) until the sufficient-decrease inequality admits the trial
    point.  A non-finite trial point is returned unshrunk.

    Raises ``StationaryPointError`` when the restricted gradient vanishes
    (the linesearch quotient is 0/0); the caller terminates with x.
    """
    g = A.T @ r
    if config.variant == VARIANT_IHT:
        return config.alpha, False, hard_threshold(x - config.alpha * g, k)
    # x = 0 carries no support: use the one the next projection selects.
    gamma = np.flatnonzero(x) if x.any() else top_indices(g, k)
    return _linesearch(x, g, gamma, A.take(gamma, axis=1), A, k, config)


def run_solver(instance: ProblemInstance, config: SolverConfig) -> SolverTrace:
    """Run IHT or N-IHT from x0 = 0 until a termination criterion fires.

    This loop is the iteration kernel of both variants.  A run whose next
    iterate is non-finite (a divergent stepsize overflowed) stops early and
    reports ``max_iters``, the non-convergence reason.
    """
    A, b, k = np.asarray(instance.A, dtype=float), instance.b, instance.k
    trace = SolverTrace()
    x = np.zeros(instance.N)
    r = A @ x - b
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.max_iters):
            try:
                alpha, used_shrinkage, x_next = step(x, r, A, k, config)
            except StationaryPointError:
                trace.termination_reason = TERMINATION_STATIONARY
                break
            trace.iterates.append(IterateRecord(x, alpha, 0.5 * float(r @ r), used_shrinkage))
            diff = x_next - x
            step_length = math.sqrt(float(diff @ diff))
            x, r = x_next, A @ x_next - b
            if not np.isfinite(x).all():
                trace.termination_reason = TERMINATION_MAX_ITERS
                break
            if step_length <= config.step_tol:
                trace.termination_reason = TERMINATION_STEP_TOL
                break
            if config.residual_tol > 0 and np.linalg.norm(r) <= config.residual_tol:
                trace.termination_reason = TERMINATION_RESIDUAL_TOL
                break
        else:
            trace.termination_reason = TERMINATION_MAX_ITERS
        trace.iterates.append(IterateRecord(x, math.nan, 0.5 * float(r @ r), False))
    return trace


def check_iterate_inequalities(
    trace: SolverTrace, A: np.ndarray, b: np.ndarray, tol: float = 1e-10
) -> InequalityReport:
    """Re-verify the projection inequality and the exact Taylor identity.

    For every consecutive iterate pair the projection property gives
    ``||x+ - x||^2 + 2*alpha*g.(x+ - x) <= 0`` up to ``tol*(1+||x||^2)``,
    and since the objective is quadratic,
    ``Psi(x+) - Psi(x) = g.(x+ - x) + 0.5*||A(x+ - x)||^2`` must hold to
    ``tol`` relative.
    """
    A = np.asarray(A, dtype=float)
    violations: list[tuple[int, str, float]] = []
    max_slack = 0.0
    max_taylor = 0.0
    pairs = list(zip(trace.iterates[:-1], trace.iterates[1:]))
    for m, (rec, rec_next) in enumerate(pairs):
        x, x_next, alpha = rec.x, rec_next.x, rec.alpha
        if not np.isfinite(alpha):
            continue
        g = A.T @ (A @ x - b)
        diff = x_next - x
        slack = float(diff @ diff + 2.0 * alpha * (g @ diff))
        max_slack = max(max_slack, slack)
        if slack > tol * (1.0 + float(x @ x)):
            violations.append((m, "projection", slack))
        a_diff = A @ diff
        taylor = abs(
            (rec_next.objective - rec.objective)
            - (float(g @ diff) + 0.5 * float(a_diff @ a_diff))
        )
        scale = max(1.0, abs(rec.objective), abs(rec_next.objective))
        max_taylor = max(max_taylor, taylor / scale)
        if taylor > tol * scale:
            violations.append((m, "taylor", taylor / scale))
    return InequalityReport(
        n_pairs=len(pairs),
        violations=violations,
        max_projection_slack=max_slack,
        max_taylor_residual=max_taylor,
    )
