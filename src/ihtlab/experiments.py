"""Monte Carlo harness: distributional validation, empirical recovery
transitions and noise-bound compliance, with reproducible persistence.

Each experiment kind builds one task list and maps it once over the workers.
Every trial draws from its own counter-based substreams keyed by
``(master_seed, stream_id, cell_id, trial_id)``: a distribution trial takes
its overlap terms from stream 1 and its Rayleigh quotients from stream 2,
recovery-transition trials use stream 3 and noise-bound trials stream 4.  A
distribution run keys the Philox streams of all its trials in one hash
(``RngSpec.substream_keys``), which gives the streams ``substream`` would.  So
results are byte-identical no matter how many workers execute them.  Worker
count is controlled only by the ``IHTLAB_WORKERS`` environment variable.  A
task is a chunk of distribution trials or a stack of solver trials that share
(n, N); each slice makes the BLAS/LAPACK calls a lone trial would, so results
do not depend on the chunking or stacking either.
"""
from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    COEFFICIENT_MODELS,
    ProblemStack,
    RngSpec,
    least_squares_split,
    matvec,
    sample_instance,
    vecdot,
)
from .errors import ConfigError, IhtLabError, StabilityUndefinedError
from .rip import load_provider
from .solvers import (
    JSON_TYPES,
    SOLVER_FIELDS,
    Field,
    SolverConfig,
    TERMINATION_MAX_ITERS,
    TERMINATION_STABLE_POINT,
    VARIANT_IHT,
    _NONNEGATIVE,
    check_fields,
    run_solver,
)
from .stablepoint import _stability_test
from .transitions import (
    XI_NIHT_AS_PRINTED,
    XI_NIHT_VARIANTS,
    _csv_rows,
    rho_hat_iht,
    rho_hat_niht,
    stability_factor_iht,
    stability_factor_niht,
    write_grid_csv,
)

KIND_DISTRIBUTION = "mc_distribution"
KIND_TRANSITION = "mc_transition"
KIND_ERROR_VS_XI = "mc_error_vs_xi"
KINDS = (KIND_DISTRIBUTION, KIND_TRANSITION, KIND_ERROR_VS_XI)

WORKERS_ENV_VAR = "IHTLAB_WORKERS"

# Empirical success threshold for noiseless recovery maps.
SUCCESS_REL_TOL = 1e-4
# Zero-noise proxy for the error bound (the bound itself degenerates to 0).
ZERO_NOISE_ERROR_TOL = 1e-6
STABLE_POINT_CHECK_TOL = 1e-6
# Trials per mc_distribution task, stacked into (T, n, p) arrays with
# p <= k + r and, for the Rayleigh blocks, (T, 2, n, k).  Larger chunks grow
# every stack in proportion and save no time: at n = 100, k = 10, r = 5,
# chunks of 8 took about 10% longer than 16, and chunks of 32 no less.
DISTRIBUTION_CHUNK = 16
# Cap on the matrix bytes of one solver stack: mc_transition and
# mc_error_vs_xi trials that share (n, N) iterate together.  At n = 60 a
# delta column of 8 trials (at most 8 x 96 KB) is one stack; a trial whose
# matrix alone is larger, such as n = 400, N = 800 (2.56 MB), runs as a stack
# of one and holds no more memory than it would alone.
SOLVER_STACK_BYTES = 1 << 20

def check_output_path(name: str, path: str | Path | None) -> None:
    """``ConfigError`` naming ``name`` when ``path`` is given and cannot be
    written as a file: a directory, in no directory, too long, or with a NUL."""
    if not path:
        return
    path = Path(path)
    try:
        if "\0" in str(path):
            raise ValueError("embedded null byte")
        if path.is_dir():
            raise ConfigError(f"{name}: {str(path)!r} is a directory")
        if not path.parent.is_dir():
            raise ConfigError(f"{name}: directory {str(path.parent)!r} does not exist")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


_DIST, _TRANS, _ERROR = (KIND_DISTRIBUTION,), (KIND_TRANSITION,), (KIND_ERROR_VS_XI,)
_UNIT = (lambda v, _: 0 < v <= 1, "lie in (0, 1]")

# The keys of an experiment config, in the order ExperimentConfig declares
# them: each key's type, rule, default, the kinds that require it and those
# that also take it, and its flag on the mc-* subcommands of those kinds.
EXPERIMENT_FIELDS = {
    "kind": Field("string", KINDS, None, KINDS),
    "n": Field("integer", None, None, KINDS, (), "--n"),
    "trials": Field("integer", (lambda v, _: 1 <= v <= 2**32, "lie in [1, 2^32]"), None, KINDS, (), "--trials"),
    "master_seed": Field("integer", _NONNEGATIVE, None, KINDS, (), "--seed"),
    "sigma": Field("number", _NONNEGATIVE, 0.0, _ERROR, _DIST + _TRANS, "--sigma"),
    "k": Field("integer", (lambda k, c: 0 < 2 * k <= c["n"], "satisfy 0 < 2k <= n"), None, _DIST, (), "--k"),
    "overlap": Field("integer", (lambda r, c: 1 <= r <= c["k"], "lie in [1, k]"), None, _DIST, (), "--overlap"),
    "delta": Field("number", _UNIT, None, _ERROR, (), "--delta"),
    "rho": Field("number", (lambda v, _: 0 < v <= 0.5, "lie in (0, 1/2]"), None, _ERROR, (), "--rho"),
    "delta_grid": Field("numbers", _UNIT, None, _TRANS),
    "rho_grid": Field("numbers", _UNIT, None, _TRANS),
    "solver": Field("object", lambda name, section: check_fields(
        SOLVER_FIELDS, section, ConfigError, "solver", "variant", name + "."), None, _TRANS + _ERROR),
    "rip_table": Field("string?", None, None, (), _ERROR, "--rip-table"),
    "xi_variant": Field("string", XI_NIHT_VARIANTS, XI_NIHT_AS_PRINTED, (), _ERROR, "--xi-variant"),
    "coefficient_model": Field("string", COEFFICIENT_MODELS, "gaussian", (), _TRANS + _ERROR),
    "output_path": Field("string?", check_output_path, None, (), KINDS, "--out"),
    "trial_csv_path": Field("string?", check_output_path, None, (), KINDS, "--trial-csv"),
}

# The default of every field but kind: a key left out, until __post_init__ sets its row's default, and
# a key the kind does not take.  It is falsy, and unpickles to itself in the workers' copies of a config.
_UNSET = type("Unset", (), {"__repr__": lambda _: "<unset>", "__bool__": lambda _: False,
                            "__reduce__": lambda _: "_UNSET"})()


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  ``EXPERIMENT_FIELDS`` is the source of every field's rules, and
    ``solvers.SOLVER_FIELDS`` of the solver section's; ``__post_init__`` checks them all,
    so a config built here refuses what ``from_dict`` refuses."""

    kind: str
    n: int = _UNSET
    trials: int = _UNSET
    master_seed: int = _UNSET
    sigma: float = _UNSET
    k: int | None = _UNSET
    overlap: int | None = _UNSET
    delta: float | None = _UNSET
    rho: float | None = _UNSET
    delta_grid: tuple[float, ...] | None = _UNSET
    rho_grid: tuple[float, ...] | None = _UNSET
    solver: dict | None = _UNSET
    rip_table: str | None = _UNSET
    xi_variant: str = _UNSET
    coefficient_model: str = _UNSET
    output_path: str | None = _UNSET
    trial_csv_path: str | None = _UNSET

    def __post_init__(self):
        given = {key: value for key, value in vars(self).items() if value is not _UNSET}
        check_fields(EXPERIMENT_FIELDS, given, ConfigError, "config", "kind")
        for key, row in EXPERIMENT_FIELDS.items():
            if self.kind in row.required + row.optional:
                value = given.get(key, row.default)
                object.__setattr__(self, key, tuple(map(float, value)) if row.type == "numbers" and value else value)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config of a JSON object that names its kind; ``__post_init__`` checks all but its grids' JSON type."""
        if "kind" not in data:
            raise ConfigError("config is missing the 'kind' key")
        unknown = sorted(data.keys() - EXPERIMENT_FIELDS.keys())
        if unknown:
            raise ConfigError(f"unknown config keys for kind {data['kind']!r}: {unknown}")
        for key in ("delta_grid", "rho_grid"):
            if key in data and not isinstance(data[key], list):
                raise ConfigError(f"{key} must be {JSON_TYPES['numbers'][0]}, got {data[key]!r}")
        return cls(**data)

    def to_dict(self) -> dict:
        """The config as JSON, which ``from_dict`` reads back: the keys the kind takes, a grid as a list."""
        values = ((key, getattr(self, key)) for key in EXPERIMENT_FIELDS)
        return {key: list(v) if isinstance(v, tuple) else v for key, v in values if v is not _UNSET}

    def solver_config(self, alpha_override: float | None = None) -> SolverConfig:
        kwargs = dict(self.solver or {})
        if alpha_override is not None:
            kwargs["alpha"] = alpha_override
        try:
            return SolverConfig(**kwargs)
        except (TypeError, IhtLabError) as exc:
            raise ConfigError(f"invalid solver section: {exc}") from exc


def read_config(path: str | Path) -> dict:
    """The JSON object in a config file; ``ConfigError`` when the file cannot
    be read or parsed as UTF-8 JSON, or holds something other than an object."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return data


@dataclass
class ExperimentResult:
    """An experiment's summary, its cells (mc_transition) and its per-trial results as columns:
    ``trial_columns`` maps each name to an array, one entry per trial in trial order."""

    kind: str
    config: dict
    summary: dict
    cells: list[dict] = field(default_factory=list)
    trial_columns: dict[str, np.ndarray] = field(default_factory=dict)
    version: str = __version__

    def save(self, path: str | Path) -> None:
        write_json(path, {
            "kind": self.kind, "version": self.version, "config": self.config,
            "summary": self.summary, "cells": self.cells,
        })

    def save_trials_csv(self, path: str | Path) -> None:
        """The trial columns as CSV: the sorted names, then one ``_csv_rows`` row per trial."""
        keys = sorted(self.trial_columns)
        write_grid_csv(path, _csv_rows(",".join(keys), *(self.trial_columns[key] for key in keys)))


def write_json(path: str | Path, payload: dict) -> None:
    """``payload`` as key-sorted, indented, strict UTF-8 JSON with LF line
    ends; a NaN or infinite float, at any depth, is written as ``null``."""
    finite = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    text = json.dumps(finite, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def _concatenated(chunks: list[dict]) -> dict[str, np.ndarray]:
    """The columns of the chunks' column dicts, each joined in chunk order."""
    return {key: np.concatenate([chunk[key] for chunk in chunks]) for key in chunks[0]}


# ---------------------------------------------------------------------------
# small statistics helpers


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a continuous CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    m = len(x)
    fx = np.asarray(cdf(x), dtype=float)
    d_plus = float(np.max(np.arange(1, m + 1) / m - fx))
    d_minus = float(np.max(fx - np.arange(0, m) / m))
    return max(d_plus, d_minus)


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    data = np.concatenate([np.sort(a), np.sort(b)])
    order = np.argsort(data, kind="stable")
    cdf_steps = np.where(order < len(a), 1.0 / len(a), -1.0 / len(b))
    return float(np.max(np.abs(np.cumsum(cdf_steps))))


def ks_critical_value(m: int, alpha: float = 0.01) -> float:
    """Asymptotic critical KS distance at level alpha."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(m)


def ks_two_sample_critical(m1: int, m2: int, alpha: float = 0.01) -> float:
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt((m1 + m2) / (m1 * m2))


def wilson_interval(successes: int, total: int, z: float = 2.5758) -> tuple[float, float]:
    """Wilson score interval; default z is the two-sided 99% quantile."""
    if total == 0:
        return 0.0, 1.0
    phat = successes / total
    denom = 1.0 + z**2 / total
    centre = (phat + z**2 / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z**2 / (4 * total**2)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


# ---------------------------------------------------------------------------
# parallel map with deterministic ordering


def _worker_count() -> int:
    """Worker count from IHTLAB_WORKERS, clamped to the CPU count with a warning."""
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    workers = int(raw) if raw.strip().isdecimal() else 0
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV_VAR} must be a positive integer, got {raw!r}")
    cpus = os.cpu_count() or 1
    if workers > cpus:
        print(f"warning: {WORKERS_ENV_VAR}={workers} exceeds {cpus} CPUs; using {cpus}", file=sys.stderr)
    return min(workers, cpus)


def _pmap(fn, tasks: list, workers: int):
    """Apply ``fn`` over tasks, in parallel when ``workers`` > 1.

    Results come back in task order, so the output is independent of the
    worker count.  ``run_experiment`` reads ``workers`` once, from
    ``_worker_count``, before it starts any work.
    """
    if workers == 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context()
    with ctx.Pool(workers) as pool:
        return pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers)))


# ---------------------------------------------------------------------------
# distributional validation


@functools.lru_cache(maxsize=2)  # the full chunks' stacks and the ragged last chunk's
def _chunk_stacks(T: int, n: int, k: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Stream 1's ``(T, n (k+r+1))`` and stream 2's ``(T, 2, n, k)`` draw stacks, reused chunk after chunk:
    one set a process, so two threads of one process must not run chunks of one shape at once."""
    return np.empty((T, n * (k + r + 1))), np.empty((T, 2, n, k))


def _distribution_trial(task) -> tuple[dict[str, np.ndarray], tuple[np.ndarray, ...]]:
    """One chunk of draws: the trials' CSV columns, from stream 1, and their
    Rayleigh quotients ``(r1, r2, r3, r3_ref)``, from stream 2.

    Trial i draws its streams 1 and 2, keyed by ``keys[i]``, in one call
    each into the stacks, and every product, norm, SVD and solve then runs
    once over the stack.  Each slice makes the BLAS/LAPACK call of a lone
    trial, so the columns do not depend on chunking.
    The left-hand sides come from the thin QR of A_gamma, the right-hand sides
    of the noise bounds (4.3) and (4.4) from thin SVDs of A_gamma and of the
    difference columns projected off its range.  A_gamma's SVD is the one
    ``least_squares_split(basis=True)`` builds from that QR, which holds the
    condition (n >= 2k) under which it equals LAPACK's ``dgesdd``.
    """
    config, z, z_ray, trials, keys = task
    n, k, r, sigma = config.n, config.k, config.overlap, config.sigma
    T, m = len(trials), n * (k + r)
    drawn = m + n if sigma > 0 else m
    draws, blocks = _chunk_stacks(T, n, k, r)
    bitgen = np.random.Philox(0)
    gen, state = np.random.Generator(bitgen), bitgen.state  # counter 0, buffer_pos 4
    for i in range(T):
        for key, out in ((keys[i, 0], draws[i, :drawn]), (keys[i, 1], blocks[i])):
            state["state"]["key"] = key
            bitgen.state = state
            gen.standard_normal(out=out)
    # Generator.normal's arithmetic, loc + scale * z, in place.
    unit = 1.0 / np.sqrt(n)
    for stack, scale in ((draws[:, :m], unit), (draws[:, m:drawn], sigma / np.sqrt(n)), (blocks, unit)):
        stack *= scale
        stack += 0.0
    cols, e = draws[:, :m].reshape(T, n, k + r), draws[:, m:]
    A_gamma, A_diff = cols[..., :k], cols[..., k:]
    z_norm2 = float(z @ z)

    v = A_diff @ z
    if sigma > 0:
        s, U1, [(y, w), (y_e, w_e)] = least_squares_split(A_gamma, v, e, basis=True)
    else:
        _, [(y, w)] = least_squares_split(A_gamma, v)
    quad = vecdot(v, w) / z_norm2
    lhs_full = _norm(matvec(A_diff.mT, w)) / math.sqrt(z_norm2)
    columns = {
        "trial": np.asarray(trials),
        "f_sample": vecdot(y, y) / z_norm2,
        "lhs_42": lhs_full,
        "quad_42": quad,
        "r_sample": quad * n / (n - k),
        "viol_42": lhs_full < quad - 1e-12 * (1.0 + np.abs(quad)),
    }
    if sigma > 0:
        lhs_43 = _norm(y_e)
        # float_power calls libm pow as Python's ``x**2`` does; ``**`` on an
        # array multiplies, which differs in the last bit now and then.
        lhs_44_sq = np.float_power(_norm(matvec(A_diff.mT, w_e)), 2)
        # The coupled right-hand sides in spectral form: A_gamma = U1 diag(s) V^T, and
        # the difference columns projected off range(A_gamma), D = W diag(s_D) Y^T.
        rhs_43 = _norm(matvec(U1.mT, e) / s)
        W, s_D, _ = np.linalg.svd(A_diff - U1 @ (U1.mT @ A_diff), full_matrices=False)
        We = matvec(W.mT, e)
        sWe = s_D * We
        h_norm2, rhs_44_sq = vecdot(We, We), vecdot(sWe, sWe)
        s_ratio = np.divide(rhs_44_sq, h_norm2, out=np.zeros(T), where=h_norm2 > 0)
        columns.update(
            {
                "g_sample": np.float_power(lhs_43, 2) / sigma**2,
                "viol_43": lhs_43 > rhs_43 + 1e-12 * (1.0 + rhs_43),
                "lhs_44_sq": lhs_44_sq,
                "rhs_44_sq": rhs_44_sq,
                "viol_44": lhs_44_sq > rhs_44_sq + 1e-12 * (1.0 + rhs_44_sq),
                "s_sample": s_ratio * n / (n - k),
                "t_sample": h_norm2 * n / sigma**2,
            }
        )

    # Rayleigh quotients of fresh n-by-k Gaussian blocks against z_ray.
    B, B2 = blocks[:, 0], blocks[:, 1]
    Bz = B @ z_ray
    ray_norm2 = float(z_ray @ z_ray)
    G = B.mT @ B
    Gz = G @ z_ray
    G2 = B2.mT @ B2
    return columns, (
        vecdot(Bz, Bz) / ray_norm2 * n,
        ray_norm2 / vecdot(z_ray, np.linalg.solve(G, z_ray[:, None])[..., 0]) * n,
        vecdot(Gz, Gz) / ray_norm2,
        vecdot(G2[:, 0], G2[:, 0]),
    )


def _norm(u: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each vector of a stack: the root of one ddot."""
    return np.sqrt(vecdot(u, u))


def _distribution_check(config: ExperimentConfig, workers: int) -> tuple[dict, list[dict], dict]:
    """Validate the distributional identities behind the stable-point terms.

    Per trial with fresh Gaussian columns: the squared overlap ratio is
    KS-tested against its scaled-F law; the one-sided projected bounds are
    re-checked from the same draw (violation counts must be zero); and the
    three Rayleigh-quotient laws are KS-tested.
    """
    from .asymptotics import chi2_cdf, scaled_f_cdf

    n, k, r = config.n, config.k, config.overlap
    gen0 = RngSpec(config.master_seed, 0).substream(0)
    x_diff = gen0.standard_normal(r)
    z_ray = gen0.standard_normal(k)

    # Every trial's stream 1 and 2 keys, in one hash each: (trials, 2, 2).
    keys = np.stack([RngSpec(config.master_seed, s).substream_keys(0, range(config.trials)) for s in (1, 2)], 1)
    tasks = [
        (config, x_diff, z_ray, range(start, min(start + DISTRIBUTION_CHUNK, config.trials)),
         keys[start : start + DISTRIBUTION_CHUNK])
        for start in range(0, config.trials, DISTRIBUTION_CHUNK)
    ]
    chunks, rayleigh = zip(*_pmap(_distribution_trial, tasks, workers))
    columns = _concatenated(chunks)
    r1, r2, r3, r3_ref = (np.concatenate(column) for column in zip(*rayleigh))
    m = config.trials
    crit = ks_critical_value(m)
    summary = {
        "n": n,
        "k": k,
        "overlap": r,
        "trials": m,
        "ks_critical_99": crit,
        "ks_f_ratio": ks_statistic(columns["f_sample"], lambda x: scaled_f_cdf(x, k, n)),
        "f_ratio_mean": float(np.mean(columns["f_sample"])),
        # The F(k, n-k+1) law has no finite mean at n - k = 1.
        "f_ratio_mean_expected": k / (n - k - 1) if n - k > 1 else math.inf,
        "ks_r_quadratic": ks_statistic(columns["r_sample"], lambda x: chi2_cdf(x * (n - k), n - k)),
        "violations_42": int(columns["viol_42"].sum()),
    }
    if config.sigma > 0:
        summary.update(
            {
                "ks_g_noise": ks_statistic(columns["g_sample"], lambda x: scaled_f_cdf(x, k, n)),
                "ks_s_noise": ks_statistic(columns["s_sample"], lambda x: chi2_cdf(x * (n - k), n - k)),
                "ks_t_noise": ks_statistic(columns["t_sample"], lambda x: chi2_cdf(x, r)),
                "violations_43": int(columns["viol_43"].sum()),
                "violations_44": int(columns["viol_44"].sum()),
            }
        )
    summary.update(
        {
            "ks_rayleigh_full": ks_statistic(r1, lambda x: chi2_cdf(x, n)),
            "rayleigh_full_mean_normalised": float(np.mean(r1)) / n,
            "ks_rayleigh_inverse": ks_statistic(r2, lambda x: chi2_cdf(x, n - k + 1)),
            "ks_rayleigh_squared_two_sample": ks_two_sample(r3, r3_ref),
            "ks_two_sample_critical_99": ks_two_sample_critical(m, m),
        }
    )
    return summary, [], columns


# ---------------------------------------------------------------------------
# empirical recovery transition


def _cell_shape(n: int, delta: float, rho: float) -> tuple[int, int]:
    """``(N, k)`` of the cell at (delta, rho) with n measurements."""
    return max(n, round(n / delta)), max(1, round(rho * n))


def _valid_cell(n: int, N: int, k: int) -> bool:
    """Whether a cell of n measurements, N columns and k nonzeros can run."""
    return 0 < 2 * k <= n <= N


def _stacks(n: int, N: int, draws: list) -> list[list]:
    """``draws`` in order, cut into stacks whose matrices take at most
    ``SOLVER_STACK_BYTES``, or one draw a stack when one matrix alone does not
    fit."""
    size = max(1, SOLVER_STACK_BYTES // (8 * n * N))
    return [draws[i : i + size] for i in range(0, len(draws), size)]


def _solve_stack(config, solver_config, stream: int, n: int, N: int, draws: list, *, finish: bool = False):
    """The stack of the instances of ``draws``, ``(cell_id, k, trial)``
    triples whose instance comes from substream ``(cell_id, trial)`` of
    ``stream``; their true signals; the solver's result on the stack, run
    with the certified finish when ``finish``; and each final iterate's error
    norm, NaN when the iterates diverged (the final iterate is all NaN).

    Each instance is drawn into a preallocated stack and dropped, so no more
    than one is alive beside it; a stack of one is a view of its instance.
    """
    instances = (
        sample_instance(
            n, N, k, config.sigma, RngSpec(config.master_seed, stream).substream(cell_id, trial),
            config.coefficient_model,
        )
        for cell_id, k, trial in draws
    )
    T = len(draws)
    if T == 1:
        instance = next(instances)
        stack, x_star = ProblemStack.of(instance), instance.x_star[None]
    else:
        stack = ProblemStack(np.empty((T, n, N)), np.empty((T, n)), np.array([k for _, k, _ in draws]))
        x_star = np.empty((T, N))
        for i, instance in enumerate(instances):
            stack.A[i], stack.b[i], x_star[i] = instance.A, instance.b, instance.x_star
    result = run_solver(stack, solver_config, finish=finish)
    with np.errstate(over="ignore", invalid="ignore"):
        errors = _norm(result.final - x_star)
    return stack, x_star, result, errors


def _transition_stack(task) -> dict[str, np.ndarray]:
    """One stack's trial columns; a diverged trial's error is NaN."""
    config, solver_config, n, N, draws = task
    _, x_star, result, errors = _solve_stack(config, solver_config, 3, n, N, draws)
    cell, _, trial = np.array(draws).T
    return {
        "cell": cell,
        "trial": trial,
        "error": errors,
        "success": errors / _norm(x_star) <= SUCCESS_REL_TOL,
        "iterations": result.iterations,
        "termination": np.array(result.termination),
    }


def fifty_percent_contour(cells: list[dict]) -> list[dict]:
    """Interpolate the 50% success contour in rho for each delta column."""
    contour = []
    deltas = sorted(set(c["delta"] for c in cells if c.get("success_rate") is not None))
    for delta in deltas:
        column = sorted(
            (c for c in cells if c["delta"] == delta and c.get("success_rate") is not None),
            key=lambda c: c["rho"],
        )
        rho_cross = None
        for lo, hi in zip(column, column[1:]):
            if lo["success_rate"] >= 0.5 > hi["success_rate"]:
                gap = lo["success_rate"] - hi["success_rate"]
                t = (lo["success_rate"] - 0.5) / gap if gap > 0 else 0.0
                rho_cross = lo["rho"] + t * (hi["rho"] - lo["rho"])
        contour.append({"delta": delta, "rho_50": rho_cross})
    return contour


def _recovery_transition(config: ExperimentConfig, workers: int) -> tuple[dict, list[dict], dict]:
    """Empirical success map over a (delta, rho) grid at fixed n."""
    solver_config = config.solver_config()  # fail fast on a bad solver section
    n = config.n
    tasks, cell_meta, cells = [], [], []
    # Cells run delta-major; the trials of one delta column share (n, N).
    for d, delta in enumerate(config.delta_grid):
        draws = []
        for r, rho in enumerate(config.rho_grid):
            cell_id = d * len(config.rho_grid) + r
            N, k = _cell_shape(n, delta, rho)
            valid = _valid_cell(n, N, k)
            cell_meta.append({"cell": cell_id, "delta": delta, "rho": rho, "n": n, "N": N, "k": k, "valid": valid})
            if valid:
                draws.extend((cell_id, k, t) for t in range(config.trials))
        if draws:
            tasks.extend((config, solver_config, n, N, stack) for stack in _stacks(n, N, draws))
    if not tasks:
        raise ConfigError(f"n={n}: no cell of the grid satisfies 0 < 2k <= n <= N")
    columns = _concatenated(_pmap(_transition_stack, tasks, workers))
    # The valid cells' trials, one cell a row.
    per_cell = zip(*(columns[key].reshape(-1, config.trials) for key in ("success", "error")))
    for meta in cell_meta:
        cell = dict(meta)
        if meta["valid"]:
            success, errors = next(per_cell)
            succ = int(success.sum())
            cell["success_rate"] = succ / config.trials
            lo, hi = wilson_interval(succ, config.trials)
            cell["wilson_lo"], cell["wilson_hi"] = lo, hi
            cell["successes"] = succ
            diverged = ~np.isfinite(errors)
            errors = errors[~diverged]
            cell["diverged"] = int(diverged.sum())
            if len(errors):
                cell["mean_error"] = float(np.mean(errors))
                cell["error_q50"] = float(np.quantile(errors, 0.5))
                cell["error_q90"] = float(np.quantile(errors, 0.9))
        else:
            cell["success_rate"] = None
        cells.append(cell)
    summary = {
        "n": n,
        "trials": config.trials,
        "contour_50": fifty_percent_contour(cells),
    }
    return summary, cells, columns


# ---------------------------------------------------------------------------
# noise-bound compliance


def _error_stack(task) -> dict[str, np.ndarray]:
    """One stack's trial columns; a diverged trial has error inf and is neither converged nor stable.
    IHT runs end at the certified stable point.  A certified x̄ is stable without a test: the certificate proves
    it alpha_lb-stable, alpha_lb being the solver's alpha.  When other trials converged, one stable-point test
    covers the stack, each final x̄ on its own support; x̄ = 0 is stable iff alpha_lb * max|A^T b| <= tol."""
    config, solver_config, alpha_lb, n, N, draws = task
    finish = solver_config.variant == VARIANT_IHT
    stack, _, result, errors = _solve_stack(config, solver_config, 4, n, N, draws, finish=finish)
    termination = np.array(result.termination)
    converged = termination != TERMINATION_MAX_ITERS
    stable = termination == TERMINATION_STABLE_POINT
    tested = converged & ~stable
    if tested.any():
        # The whole stack: a gathered subset would copy its matrices.
        X = result.final
        with np.errstate(over="ignore", invalid="ignore"):
            grad = matvec(stack.A.mT, stack.b - matvec(stack.A, X))
        stable |= tested & _stability_test(X, grad, X != 0, alpha_lb, STABLE_POINT_CHECK_TOL)[0]
    return {
        "trial": np.array(draws)[:, 2],
        "error": np.where(np.isfinite(errors), errors, np.inf),
        "converged": converged,
        "stable": stable,
        "iterations": result.iterations,
        "termination": termination,
    }


def _error_vs_xi(config: ExperimentConfig, workers: int) -> tuple[dict, list[dict], dict]:
    """Fraction of converged runs with error within the stability bound xi*sigma."""
    n, delta, rho = config.n, config.delta, config.rho
    N, k = _cell_shape(n, delta, rho)
    if not _valid_cell(n, N, k):
        raise ConfigError(f"n={n}: the cell N={N}, k={k} does not satisfy 0 < 2k <= n <= N")
    provider = load_provider(config.rip_table)
    try:
        if config.solver["variant"] == VARIANT_IHT:
            stability = stability_factor_iht(delta, rho, provider, alpha=config.solver.get("alpha"))
            alpha_lb, interval = float(stability.alpha), stability.interval
            if interval is None or not interval[0] < alpha_lb < interval[1]:
                raise ConfigError(
                    f"alpha={alpha_lb} outside the admissible interval {interval} "
                    f"at delta={delta}, rho={rho}"
                )
            solver_config = config.solver_config(alpha_override=alpha_lb)
            rho_hat = rho_hat_iht(delta, provider).rho_hat
        else:
            solver_config = config.solver_config()
            stability = stability_factor_niht(
                delta, rho, solver_config.kappa, provider, xi_variant=config.xi_variant
            )
            rho_hat = rho_hat_niht(delta, solver_config.kappa, provider).rho_hat
            alpha_lb = stability.alpha
    except StabilityUndefinedError as exc:
        raise ConfigError(f"stability factor undefined for this config: {exc}") from exc

    bound = stability.xi * config.sigma if config.sigma > 0 else ZERO_NOISE_ERROR_TOL
    draws = [(0, k, t) for t in range(config.trials)]
    tasks = [(config, solver_config, alpha_lb, n, N, stack) for stack in _stacks(n, N, draws)]
    columns = _concatenated(_pmap(_error_stack, tasks, workers))
    columns["included"] = columns["converged"] & columns["stable"]
    columns["compliant"] = columns["included"] & (columns["error"] <= bound)
    included, compliant = int(columns["included"].sum()), int(columns["compliant"].sum())
    rate = compliant / included if included else 0.0
    lo, hi = wilson_interval(compliant, included)
    errors = columns["error"][columns["included"]]
    summary = {
        "delta": delta,
        "rho": rho,
        "rho_hat": rho_hat,
        "n": n,
        "N": N,
        "k": k,
        "sigma": config.sigma,
        "xi": stability.xi,
        "error_bound": bound,
        "alpha_lb": alpha_lb,
        "provider_id": provider.provider_id,
        "trials": config.trials,
        "included": included,
        "compliant": compliant,
        "compliance_rate": rate,
        "wilson_lo": lo,
        "wilson_hi": hi,
        "error_q50": float(np.quantile(errors, 0.5)) if len(errors) else None,
        "error_q90": float(np.quantile(errors, 0.9)) if len(errors) else None,
        "error_max": float(np.max(errors)) if len(errors) else None,
    }
    return summary, [], columns


# Each kind's runner: ``(config, workers)`` to ``(summary, cells, trial columns)``.
_RUNNERS = {
    KIND_DISTRIBUTION: _distribution_check,
    KIND_TRANSITION: _recovery_transition,
    KIND_ERROR_VS_XI: _error_vs_xi,
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the experiment ``config`` describes, on ``_worker_count()`` workers
    read once before any work, and write its result JSON to ``output_path``
    and its trial CSV to ``trial_csv_path`` when each is set."""
    summary, cells, columns = _RUNNERS[config.kind](config, _worker_count())
    result = ExperimentResult(config.kind, config.to_dict(), summary, cells, columns)
    if config.output_path:
        result.save(config.output_path)
    if config.trial_csv_path:
        result.save_trials_csv(config.trial_csv_path)
    return result
