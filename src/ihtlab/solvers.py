"""Gradient-projection solvers: constant-stepsize IHT and normalised IHT.

Both variants run one iteration, x+ = H_k(x - alpha * grad), from x0 = 0 and
differ only in the stepsize rule.  ``run_solver`` is the one loop: it
iterates a stack of instances that share (n, N), each with its own k and b,
and takes every slice through ``_step``, the one step of both variants.  Each
product is one BLAS call per slice, the call that slice alone would make.
The hard threshold is one value sort per stack iteration, with an exact
fallback to the stable order (lowest index first) at a tie or NaN, so a
slice's iterates do not depend on the stack it runs in.  The number k of
each slice is checked once, when its ``ProblemStack`` is built; the kernel
selects without checks.  The residual r = A x - b is
computed once per iterate and gives both the gradient and the objective.  A
slice leaves the stack when it terminates.  An N-IHT slice whose trial point
leaves its support shrinks the stepsize: it tests the ladder of reduced
stepsizes ``SHRINK_BLOCK`` rungs at a time, each rung computed as it would be
alone, and takes the first that passes.  N-IHT's Rayleigh quotients gather
the support columns of A once and reuse them while no support changes and no
slice leaves.  An IHT slice of a stack that returns exactly to an iterate
kept at one of its ``CYCLE_ANCHOR`` anchors is periodic; it takes only the
steps that decide its iterate at the budget and ends as the full run would.

What a run records depends on what it runs.  A stack (``ProblemStack``)
records, per slice, the final iterate, the iteration count and the
termination reason, all that the Monte Carlo harness reads, the number of
shrink reductions and the period of a cycle it ended in.  One instance
(``ProblemInstance``) runs as a stack of one and records its full trace:
each iterate's x, stepsize, objective and shrinkage flag, with its support
derived from x on demand.

A stack of IHT runs may ask for the certified finish (``finish=True``): a
slice whose support has held for ``FINISH_HOLD`` iterates is tested once for
whether its iteration provably stays on that support, and if so it ends at the
limit x̄, the least-squares solution on the support (``_certified_point``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# hard_threshold is imported for callers of ``solvers.hard_threshold``; the
# kernel calls the unchecked forms, as k is checked when the stack is built.
from .core import (
    ProblemInstance, ProblemStack, SupportSet, _check_k, _hard_threshold, _top_mask, hard_threshold, matvec, vecdot,
)
from .errors import InvalidArgumentError, ShrinkageLoopError, StationaryPointError

VARIANT_IHT = "iht"
VARIANT_NIHT = "niht"

TERMINATION_STEP_TOL = "step_tol"
TERMINATION_RESIDUAL_TOL = "residual_tol"
TERMINATION_MAX_ITERS = "max_iters"
TERMINATION_STATIONARY = "linesearch_fixed_support_stationary"
TERMINATION_STABLE_POINT = "stable_point"

# Guard on the stepsize shrinkage loop; termination is guaranteed in exact
# arithmetic but floating point needs a cap.
MAX_SHRINK_STEPS = 200

# Rungs of N-IHT's shrink ladder tested together, rung 0 among them.  On
# recovery-map's N-IHT grid a shrink takes a median 5 reductions (p75 10, p90
# 22, max 47), so one block settles 62% of the calls.
SHRINK_BLOCK = 8

# A slice diverges once ||r||^2 > DIVERGENCE_RATIO2 * ||b||^2, i.e.
# ||r|| > 1e6 ||b||.  N-IHT's sufficient-decrease step never raises Psi, so
# ||r_m|| <= ||r_0|| = ||b|| and the cap never fires for N-IHT.  Constant-
# stepsize IHT above its stepsize bound blows up: in a 400-trial sample of
# recovery maps no run that crossed even ||r|| > 1e3 ||b|| converged, and 1e6
# leaves three orders of margin.
DIVERGENCE_RATIO2 = 1e12

# The certified finish is attempted once a slice's support has held for
# FINISH_HOLD iterates, and again FINISH_HOLD iterates after each failure.
FINISH_HOLD = 3

# An IHT stack keeps every CYCLE_ANCHOR-th iterate of each slice, so a slice
# that returns to it within CYCLE_ANCHOR iterates is found periodic.
CYCLE_ANCHOR = 64


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
    """A lone run's iterates, its termination reason and the iterations a stack
    charges the same run, ``config.max_iters`` for a diverged one."""

    iterates: list[IterateRecord] = field(default_factory=list)
    termination_reason: str = ""
    n_iterations: int = 0

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1].x

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


@dataclass(eq=False)
class StackResult:
    """What a stacked run records of each slice: its final iterate, its
    iteration count, its termination reason, its N-IHT shrink reductions
    in all (0 for IHT) and the period of the cycle it was found in (0 when
    none was).  A diverged slice reads an all-NaN final iterate,
    ``config.max_iters`` iterations and ``max_iters``, whenever it stopped; a
    slice that ends on ``stable_point`` reads the certified limit x̄.  The
    reduction count and the period are for diagnostics: no result file
    records them.

    ``n_iterations`` and ``termination_reason`` give the summary a trace
    gives, over the whole stack, to code that tallies solver runs.
    """

    final: np.ndarray
    iterations: np.ndarray
    termination: list[str]
    shrink_steps: np.ndarray
    period: np.ndarray

    @property
    def n_iterations(self) -> int:
        """Iterations of all slices together."""
        return int(self.iterations.sum())

    @property
    def termination_reason(self) -> str:
        """The reason every slice terminated for, or "" when they differ."""
        return self.termination[0] if len(set(self.termination)) == 1 else ""


def _linesearch(X, G, A, k, config, steps, cache) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """N-IHT stepsizes of a stack from its gradients G, as ``_step`` returns them.

    Each slice's support gamma is that of x, or, at x = 0, the one the next
    projection selects.  The Rayleigh quotients are taken together over the
    slices that share |gamma|, with ``A[:, gamma]`` gathered as a C-ordered
    ``(T_s, n, |gamma|)`` stack: the F-ordered result of plain indexing takes
    another BLAS path and moves the last bit.  The groups and their gathers
    depend only on the stack's supports, so they are kept in ``cache``, a dict
    that the caller owns and empties when slices leave the stack: while the
    support masks equal the cached ones the groups are reused, and the same
    gemvs and dots run on the same stacks.  Each slice whose trial point
    leaves gamma then shrinks its own stepsize down its ladder (``_shrink``)
    and adds the reductions it took to its entry of ``steps``.
    """
    T, N = X.shape
    support = X != 0.0
    empty = ~support.any(axis=1)
    if empty.any():
        support[empty] = _top_mask(G[empty], k[empty])
    if not np.array_equal(support, cache.get("support")):
        sizes = support.sum(axis=1)
        groups = []
        for s in set(sizes.tolist()):
            sel = np.flatnonzero(sizes == s)
            gamma = np.nonzero(support[sel])[1].reshape(len(sel), s)
            A_gamma = np.ascontiguousarray(A.mT[sel[:, None], gamma].mT)
            groups.append((sel, sel[:, None] * N + gamma, A_gamma))
        cache["support"], cache["groups"] = support, groups
    num, den = np.empty(T), np.empty(T)
    for sel, flat, A_gamma in cache["groups"]:
        g_gamma = G.take(flat)
        den_vec = matvec(A_gamma, g_gamma)
        num[sel], den[sel] = vecdot(g_gamma, g_gamma), vecdot(den_vec, den_vec)
    stationary = (num == 0.0) | (den == 0.0)
    alpha = num / den
    X_trial = _hard_threshold(X - alpha[:, None] * G, k)
    # A non-finite trial point is returned unshrunk; the loop ends its run.
    shrinking = ~stationary & np.isfinite(X_trial).all(axis=1) & ((X_trial != 0.0) != support).any(axis=1)
    for i in np.flatnonzero(shrinking):
        alpha[i], X_trial[i], reductions = _shrink(float(alpha[i]), X_trial[i], X[i], G[i], A[i], k[i : i + 1], config)
        steps[i] += reductions
    return alpha, shrinking, X_trial, stationary


def _shrink(alpha, x_trial, x, g, A, k, config) -> tuple[float, np.ndarray, int]:
    """The first rung of one slice's shrink ladder whose trial point passes
    the sufficient-decrease test: its stepsize, its trial point and its
    index, the number of reductions by kappa*(1-c) it took.

    Rung j is the stepsize alpha divided j times by kappa*(1-c), with the
    trial point H_k(x - alpha_j * g); rung 0 is the given ``x_trial``, which
    the first block takes as it is, and k is the slice's ``(1,)`` k.  A rung
    passes when its trial step is null (the loop's step tolerance then ends
    the run), when A(x_trial - x) = 0 (omega = ||diff||^2 / ||A diff||^2 is
    infinite) or when alpha_j < (1 - c) omega.  The rungs are tested
    ``SHRINK_BLOCK`` at a time: one stacked threshold, one gemv per rung and
    stacked dots, each the computation of that rung alone, so the accepted
    rung is the one a rung-by-rung loop accepts.  Raises ``ShrinkageLoopError`` when none of
    the first ``MAX_SHRINK_STEPS`` rungs passes.
    """
    ladder = np.full(MAX_SHRINK_STEPS, config.kappa * (1.0 - config.c))
    ladder[0] = alpha
    ladder = np.divide.accumulate(ladder)
    ks = k.repeat(SHRINK_BLOCK)
    for lo in range(0, MAX_SHRINK_STEPS, SHRINK_BLOCK):
        alphas = ladder[lo : lo + SHRINK_BLOCK]
        # Rung 0 is x_trial: the first block thresholds only the rungs after it.
        fresh = alphas[1:] if lo == 0 else alphas
        trials = _hard_threshold(x - fresh[:, None] * g, ks[: len(fresh)])
        if lo == 0:
            trials = np.concatenate((x_trial[None], trials))
        diff = trials - x
        diff_norm2 = vecdot(diff, diff)
        a_diff = matvec(A, diff)
        a_diff_norm2 = vecdot(a_diff, a_diff)
        null_space = a_diff_norm2 == 0.0
        # Such a rung passes whatever the ratio; dividing by 1 there warns nothing.
        ratio = (1.0 - config.c) * diff_norm2 / np.where(null_space, 1.0, a_diff_norm2)
        passed = (diff_norm2 == 0.0) | null_space | (alphas < ratio)
        if passed.any():
            j = int(passed.argmax())
            return float(alphas[j]), trials[j], lo + j
    raise ShrinkageLoopError(f"shrinkage loop did not exit within {MAX_SHRINK_STEPS} reductions")


def _step(
    X, R, A, k, config: SolverConfig, steps, cache
) -> tuple[np.ndarray | float, np.ndarray | bool, np.ndarray, np.ndarray | None]:
    """One iteration x+ = H_k(x - alpha * A^T r) of each slice of a stack from
    its residual r = A x - b.

    Returns the stepsizes, the shrinkage flags, the next iterates and the
    mask of stationary slices, and adds each slice's shrink reductions to
    its entry of ``steps``; ``cache`` is ``_linesearch``'s.  IHT takes the
    constant ``config.alpha`` and returns it, False and None in place of the
    per-slice stepsizes, flags and mask: it never shrinks and no slice is
    stationary.  N-IHT takes the exact-linesearch value, the Rayleigh
    quotient of the gradient restricted to the support of x, and keeps it
    when the trial point preserves that support; otherwise it shrinks it by
    kappa*(1-c) until the sufficient-decrease inequality admits the trial
    point.  A slice is
    stationary when its restricted gradient vanishes (the quotient is 0/0);
    its next iterate is meaningless and the loop ends its run at x.
    """
    G = matvec(A.mT, R)
    if config.variant == VARIANT_IHT:
        return config.alpha, False, _hard_threshold(X - config.alpha * G, k), None
    return _linesearch(X, G, A, k, config, steps, cache)


def step(x, r, A, k, config: SolverConfig) -> tuple[float, bool, np.ndarray]:
    """``_step`` on one instance, a stack of one: ``(alpha, used_shrinkage,
    x_next)``.  Raises ``StationaryPointError`` when the restricted gradient
    vanishes."""
    x, r, A = (np.asarray(a, dtype=float)[None] for a in (x, r, A))
    k = np.array([k])
    _check_k(k, (1,), A.shape[-1])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        alpha, used, x_next, stationary = _step(x, r, A, k, config, np.zeros(1, dtype=int), {})
    if stationary is not None and stationary[0]:
        raise StationaryPointError("restricted gradient is zero; linesearch stepsize is 0/0")
    return float(np.ravel(alpha)[0]), bool(np.ravel(used)[0]), x_next[0]


def _certified_point(A, b, x, k, alpha, a_norms) -> np.ndarray | None:
    """The limit x̄ = A_Γ⁺b, zero off Γ, of constant-stepsize IHT from an
    iterate x whose support Γ has k indices, when it is certified, or None.
    ``a_norms`` holds the column norms ||a_j|| of A.  An iterate with fewer
    than k nonzeros is refused: H_k would keep entries outside its support.

    Let x̄ be the exact A_Γ⁺b, w = b - A_Γ x̄_Γ (so A_Γᵀw = 0), d = ||x - x̄||
    and s_max the largest singular value of A_Γ.  Before the projection the
    next iterate is v = x - αAᵀ(Ax - b), with
    v_Γ - x̄_Γ = (I - αA_ΓᵀA_Γ)(x_Γ - x̄_Γ) and, for j outside Γ,
    v_j = α a_jᵀw - α (A_Γᵀa_j)ᵀ(x_Γ - x̄_Γ).  If A_Γ has full rank and
    α s_max² < 2, I - αA_ΓᵀA_Γ contracts, so min over Γ of |v_j| >=
    min|x̄_Γ| - d, and |v_j| <= α(|a_jᵀw| + s_max ||a_j|| d) off Γ.  If then
    min|x̄_Γ| - d > α(max_{j∉Γ}|a_jᵀw| + s_max max_{j∉Γ}||a_j|| d),
    H_k keeps exactly Γ and the next iterate is again on Γ within d of x̄.
    By induction so is every later one: the iteration converges to x̄, which
    is an α-stable point.

    Rounding is covered by a stated slack, with u the unit roundoff.  The
    contraction test asks for α s_max² (1 + n k u) < 2, which covers the
    error of the computed s_max.  The margin test runs with d + 2ε in place
    of d, where ε = n k u (κ(2||x̂|| + (κ + 1)||ŵ||/s_max) + d) and
    κ = s_max/s_min.  The first term of ε is the first-order bound on the
    distance between the computed x̂ and the exact x̄ of a backward-stable
    least-squares solve whose backward error is n k u (Higham, Accuracy and
    Stability of Numerical Algorithms, section 20.1); ε then also exceeds
    the rounding of d and of the test's own terms, which is relative n u.
    Each term of the exact test moves by at most ε, or s_max max||a_j|| ε,
    from the computed one, so the computed test on d + 2ε implies the exact
    test for x̄, whose computed value x̂ is returned.
    """
    gamma = np.flatnonzero(x)
    if len(gamma) != k:
        return None
    slack = A.shape[0] * k * np.finfo(float).eps / 2
    A_gamma = np.ascontiguousarray(A[:, gamma])
    x_gamma, _, rank, s = np.linalg.lstsq(A_gamma, b, rcond=None)
    if rank < k or not alpha * s[0] ** 2 * (1.0 + slack) < 2.0:
        return None
    w = b - A_gamma @ x_gamma
    diff = x[gamma] - x_gamma
    d = math.sqrt(float(diff @ diff))
    kappa = float(s[0] / s[-1])
    eps = slack * (
        kappa * (2.0 * math.sqrt(float(x_gamma @ x_gamma)) + (kappa + 1.0) * math.sqrt(float(w @ w)) / s[0]) + d
    )
    d += 2.0 * eps
    off = np.ones(len(x), dtype=bool)
    off[gamma] = False
    corr = np.max(np.abs(A.T @ w), where=off, initial=0.0)
    a_max = np.max(a_norms, where=off, initial=0.0)
    if not np.min(np.abs(x_gamma)) - d > alpha * (corr + s[0] * a_max * d):
        return None
    x_bar = np.zeros_like(x)
    x_bar[gamma] = x_gamma
    return x_bar


def run_solver(
    problem: ProblemInstance | ProblemStack, config: SolverConfig, *, finish: bool = False
) -> SolverTrace | StackResult:
    """Run IHT or N-IHT from x0 = 0 on every slice of a stack until a
    termination criterion fires for it.

    This loop is the iteration kernel of both variants.  A slice diverges,
    and stops, when its next iterate is non-finite (a divergent stepsize
    overflowed) or its residual is not within the cap,
    ||r||^2 <= ``DIVERGENCE_RATIO2`` * ||b||^2; a slice with ||b||^2 = 0 is
    capped by nothing.  A diverged slice reports what a run to the budget
    would: ``max_iters``, the non-convergence reason, ``config.max_iters``
    iterations and an all-NaN final iterate.  A stationary slice ends at its
    current iterate.  ``ShrinkageLoopError`` in any slice aborts the
    run.  A ``ProblemStack`` returns a ``StackResult``.  A ``ProblemInstance``
    runs as a stack of one and returns its full ``SolverTrace``: each
    iteration hands the iterate, residual, stepsize and shrinkage flag of its
    step to the trace, which records the iterates that were run, a diverged
    slice's NaN iterate last, and the iterations a stack would charge.

    With ``finish``, a slice that no other criterion ends and whose k-sparse
    support has held for ``FINISH_HOLD`` iterates is tested by
    ``_certified_point``, and again ``FINISH_HOLD`` iterates after each
    failed test.  When the test certifies it, the slice ends at x̄ with
    ``stable_point`` and the iterations run so far.  The finish needs a
    constant stepsize and returns a point that is not an iterate, so it runs
    on IHT stacks only: N-IHT or a ``ProblemInstance`` raises
    ``InvalidArgumentError``.

    A slice of an IHT stack run without ``finish`` that returns exactly to
    an earlier iterate ends at once with what the run to the budget reports.
    Every ``CYCLE_ANCHOR`` iterates the loop keeps each slice's iterate X_a
    and its ||r||^2; when a later X_{m+1} has the same ||r||^2 and the same
    bits, the slice is periodic with lag L = m+1-a, because a constant-step
    IHT iterate, and each test that could end the run, depends on x alone,
    and the steps from X_a to X_{m+1} ended nothing.  So X_{max_iters} is
    X_{m+1+q} with q = (max_iters - m - 1) mod L: the slice takes its q
    further steps alone through ``_step`` and ends with ``max_iters``,
    ``config.max_iters`` iterations, that iterate and the period L.  A trace
    records every iterate, so it runs to the end; N-IHT's sufficient
    decrease lowers the objective on every step that is not null, so it
    never returns to an iterate; and with ``finish`` a cycle at rounding
    level around x̄ is left to the certificate, which ends it on
    ``stable_point``.

    ``_linesearch``'s gather cache lives for one run and is emptied when
    slices leave the stack, since its groups index the live slices.
    """
    trace = SolverTrace() if isinstance(problem, ProblemInstance) else None
    if finish and (trace is not None or config.variant != VARIANT_IHT):
        raise InvalidArgumentError("the certified finish runs on ProblemStacks of constant-stepsize IHT only")
    cycles = trace is None and config.variant == VARIANT_IHT and not finish
    stack = ProblemStack.of(problem) if trace is not None else problem
    A, b, k = stack.A, stack.b, stack.k
    T, _, N = A.shape
    final = np.empty((T, N))
    iterations = np.full(T, config.max_iters)
    termination = [TERMINATION_MAX_ITERS] * T
    shrink_steps = np.zeros(T, dtype=int)
    period = np.zeros(T, dtype=int)
    # Reductions of the live slices, in the order of ``live``.
    steps = np.zeros(T, dtype=int)
    cache: dict = {}
    live = np.arange(T)
    X = np.zeros((T, N))
    R = matvec(A, X) - b
    if finish:
        # Column norms ||a_j||, with no (T, n, N) temporary of squares.
        a_norms = np.sqrt(np.einsum("...ij,...ij->...j", A, A))
        # Iterates left before the next test; x0 = 0 is the first of its support.
        wait = np.full(T, FINISH_HOLD - 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bb, rr = vecdot(b, b), vecdot(R, R)
        cap = np.where(bb > 0, DIVERGENCE_RATIO2 * bb, math.inf)
        for m in range(config.max_iters):
            if cycles and m % CYCLE_ANCHOR == 0:
                anchor, anchor_rr, anchor_m = X, rr, m
            alpha, used, X_next, stationary = _step(X, R, A, k, config, steps, cache)
            if trace is not None and (stationary is None or not stationary[0]):
                alpha_0, used_0 = float(np.ravel(alpha)[0]), bool(np.ravel(used)[0])
                trace.iterates.append(IterateRecord(X[0], alpha_0, 0.5 * float(R[0] @ R[0]), used_0))
            # A stationary slice stays at x: its null step ends it below.
            if stationary is not None and stationary.any():
                X_next[stationary] = X[stationary]
            if finish:
                held = ((X_next != 0.0) == (X != 0.0)).all(axis=1)
                wait = np.where(held, wait - 1, FINISH_HOLD - 1)
            diff = X_next - X
            step_length = np.sqrt(vecdot(diff, diff))
            X, R = X_next, matvec(A, X_next) - b
            rr = vecdot(R, R)
            capped = ~(rr <= cap)
            # Most iterations end no slice: one cheap test of the step lengths
            # and residuals skips the per-slice masks.  X was finite, so a
            # non-finite X_next gives a non-finite step length.
            if (
                config.residual_tol == 0 and config.step_tol < step_length.min()
                and step_length.max() < math.inf and not capped.any()
                and not (finish and (wait == 0).any())
                and not (cycles and (rr == anchor_rr).any())
            ):
                continue
            if stationary is None:
                stationary = np.zeros(len(X), dtype=bool)
            diverged = ~np.isfinite(X).all(axis=1) | capped
            converged = step_length <= config.step_tol
            ended = diverged | converged
            if config.residual_tol > 0:
                ended |= np.sqrt(rr) <= config.residual_tol
            certified = np.zeros(len(X), dtype=bool)
            if finish:
                for j in np.flatnonzero((wait == 0) & ~ended):
                    x_bar = _certified_point(A[j], b[j], X[j], k[j], config.alpha, a_norms[j])
                    if x_bar is None:
                        wait[j] = FINISH_HOLD
                    else:
                        X[j], certified[j] = x_bar, True
                ended |= certified
            periodic = np.zeros(len(X), dtype=bool)
            if cycles:
                # Equal bits, not only equal values: where X_a holds 0.0 and X_{m+1}
                # holds -0.0, the later iterates may differ in the signs of zeros.
                for j in np.flatnonzero((rr == anchor_rr) & ~ended):
                    if X[j].tobytes() == anchor[j].tobytes():
                        lag = m + 1 - anchor_m
                        x = X[j : j + 1]
                        for _ in range((config.max_iters - m - 1) % lag):
                            R_j = matvec(A[j : j + 1], x) - b[j : j + 1]
                            x = _step(x, R_j, A[j : j + 1], k[j : j + 1], config, None, None)[2]
                        X[j], periodic[j], period[live[j]] = x[0], True, lag
                ended |= periodic
            if not ended.any():
                continue
            for j, i in zip(np.flatnonzero(ended), live[ended]):
                termination[i] = (
                    TERMINATION_STATIONARY if stationary[j]
                    else TERMINATION_MAX_ITERS if diverged[j] or periodic[j]
                    else TERMINATION_STEP_TOL if converged[j]
                    else TERMINATION_STABLE_POINT if certified[j]
                    else TERMINATION_RESIDUAL_TOL
                )
            # A diverged or periodic slice keeps its budget as its iteration count.
            X[diverged] = math.nan
            final[live[ended]] = X[ended]
            shrink_steps[live[ended]] = steps[ended]
            done = ended & ~diverged & ~periodic
            iterations[live[done]] = m + ~stationary[done]
            keep = ~ended
            live, A, b, k, cap, X, R, rr, steps = (
                live[keep], A[keep], b[keep], k[keep], cap[keep], X[keep], R[keep], rr[keep], steps[keep]
            )
            if finish:
                a_norms, wait = a_norms[keep], wait[keep]
            if cycles:
                anchor, anchor_rr = anchor[keep], anchor_rr[keep]
            cache.clear()
            if not live.size:
                break
        final[live] = X
        shrink_steps[live] = steps
        if trace is None:
            return StackResult(final, iterations, termination, shrink_steps, period)
        r = stack.A[0] @ final[0] - stack.b[0]
        trace.iterates.append(IterateRecord(final[0], math.nan, 0.5 * float(r @ r), False))
    trace.termination_reason, trace.n_iterations = termination[0], int(iterations[0])
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
