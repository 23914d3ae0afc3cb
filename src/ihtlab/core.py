"""Dense linear-algebra kernels, Gaussian ensembles and the hard-threshold projection.

Everything here is pure given its inputs.  Samplers draw from explicit,
counter-based random streams (``RngSpec``) so that concurrent trials are
order-independent and bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice, permutations

import numpy as np

from .errors import BudgetExceededError, InvalidArgumentError, ShapeMismatchError, SingularMatrixError

# 2-norm condition number of R, s_max/s_min from its singular values as
# ``np.linalg.cond`` takes it (not an estimate), above which a least-squares
# subproblem is treated as rank deficient.  Exact general position holds
# almost surely for Gaussian ensembles but not in floating point.
RANK_DEFICIENCY_CONDITION = 1e12

COEFFICIENT_MODELS = ("unit", "gaussian", "uniform")

# Cap on the supports an exhaustive enumeration visits.
ENUMERATION_BUDGET = 2_000_000
# Supports per stacked call over the column submatrices of ``column_stacks``.
ENUMERATION_CHUNK = 256


# The constants of numpy's SeedSequence hash, which ``RngSpec.substream_keys`` runs.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """The uint32 words SeedSequence makes of a nonnegative int, least significant first."""
    return [value >> 32 * i & _MASK32 for i in range(max(1, -(-value.bit_length() // 32)))]


@dataclass(frozen=True)
class RngSpec:
    """Identifies one reproducible random stream.

    Identical ``(master_seed, stream_id)`` pairs reproduce identical draws.
    ``substream`` derives further independent streams (e.g. one per Monte
    Carlo trial) without any shared mutable state.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.stream_id < 0:
            raise InvalidArgumentError(f"seed and stream id must be >= 0, got {self.master_seed}, {self.stream_id}")

    def generator(self) -> np.random.Generator:
        return self.substream()

    def substream(self, *keys: int) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_id, *keys)
        )
        return np.random.Generator(np.random.Philox(seq))

    def substream_keys(self, cell_id: int, trials) -> np.ndarray:
        """The ``(T, 2)`` uint64 Philox keys of ``substream(cell_id, t)`` for
        each t of ``trials``: numpy's SeedSequence hash on uint32 lanes, all
        trials at once.  ``InvalidArgumentError`` for a negative cell id or a
        trial outside [0, 2^32), whose entropy would take another word count."""
        t = np.asarray(trials)
        if cell_id < 0 or t.ndim != 1 or t.size and (t.dtype.kind not in "iu" or t.min() < 0 or t.max() > _MASK32):
            raise InvalidArgumentError(f"keys need cell_id >= 0 and integer trials in [0, 2^32), cell_id={cell_id}")
        run = _words(self.master_seed)
        words = run + [0] * (4 - len(run)) + _words(self.stream_id) + _words(cell_id)
        entropy = [np.full(t.shape, w, np.uint32) for w in words] + [t.astype(np.uint32)]
        const, mult = _INIT_A, _MULT_A

        def hashmix(value):
            nonlocal const
            value = value ^ np.uint32(const)
            const = const * mult & _MASK32
            value = value * np.uint32(const)
            return value ^ (value >> 16)

        def mix(x, y):
            value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
            return value ^ (value >> 16)

        # Fill the pool of four words, mix them together, then mix in the rest.
        pool = [hashmix(w) for w in entropy[:4]]
        for src, dst in permutations(range(4), 2):
            pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for w in entropy[4:]:
            pool = [mix(p, hashmix(w)) for p in pool]
        const, mult = _INIT_B, _MULT_B
        state = [hashmix(p) for p in pool]
        return np.stack(state, axis=-1).astype("<u4").view("<u8").astype(np.uint64)


def _as_generator(rng: RngSpec | np.random.Generator) -> np.random.Generator:
    if isinstance(rng, RngSpec):
        return rng.generator()
    return rng


@dataclass(frozen=True)
class SupportSet:
    """Strictly increasing set of column/coefficient indices (0-based)."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = self.indices
        if any(int(i) != i or i < 0 for i in idx):
            raise InvalidArgumentError(f"support indices must be nonnegative integers: {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidArgumentError(f"support indices must be strictly increasing: {idx}")
        object.__setattr__(self, "indices", tuple(int(i) for i in idx))

    @classmethod
    def from_iterable(cls, it) -> "SupportSet":
        return cls(tuple(sorted(set(int(i) for i in it))))

    @classmethod
    def support_of(cls, x: np.ndarray) -> "SupportSet":
        return cls(tuple(int(i) for i in np.flatnonzero(x)))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp)

    def difference(self, other: "SupportSet") -> "SupportSet":
        return SupportSet.from_iterable(set(self.indices) - set(other.indices))

    def issubset(self, other: "SupportSet") -> bool:
        return set(self.indices) <= set(other.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One sparse-recovery instance: measurements b = A x* + e with k-sparse x*."""

    A: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    e: np.ndarray
    k: int
    sigma: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        n, N = A.shape
        if not 0 < 2 * self.k <= n <= N:
            raise InvalidArgumentError(
                f"problem dimensions must satisfy 0 < 2k <= n <= N, got k={self.k}, n={n}, N={N}"
            )
        if not 0 <= self.sigma < np.inf:
            raise InvalidArgumentError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if self.b.shape != (n,) or self.e.shape != (n,) or self.x_star.shape != (N,):
            raise ShapeMismatchError("b, e must have length n and x_star length N")
        nnz = int(np.count_nonzero(self.x_star))
        if nnz != self.k:
            raise InvalidArgumentError(f"x_star must have exactly k={self.k} nonzeros, found {nnz}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def N(self) -> int:
        return self.A.shape[1]

    @property
    def true_support(self) -> SupportSet:
        return SupportSet.support_of(self.x_star)

    @classmethod
    def from_parts(cls, A, x_star, e, k, sigma=0.0) -> "ProblemInstance":
        """Assemble b = A x* + e from its parts."""
        A = np.asarray(A, dtype=float)
        x_star = np.asarray(x_star, dtype=float)
        e = np.asarray(e, dtype=float)
        b = A @ x_star + e
        return cls(A=A, b=b, x_star=x_star, e=e, k=k, sigma=sigma)


@dataclass(frozen=True, eq=False)
class ProblemStack:
    """Instances that share (n, N), each with its own k and b, stacked:
    ``A`` is ``(T, n, N)``, ``b`` ``(T, n)`` and ``k`` ``(T,)``.

    Checked once, here: other shapes raise ``ShapeMismatchError``, and a k
    that is not integer with 1 <= k <= N raises ``InvalidArgumentError``.
    """

    A: np.ndarray
    b: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        A, b, k = np.asarray(self.A, dtype=float), np.asarray(self.b, dtype=float), np.asarray(self.k)
        if A.ndim != 3 or b.shape != A.shape[:2]:
            raise ShapeMismatchError(f"a stack needs A (T, n, N) and b (T, n), got A {A.shape}, b {b.shape}")
        _check_k(k, A.shape[:1], A.shape[2])
        for name, value in (("A", A), ("b", b), ("k", k)):
            object.__setattr__(self, name, value)

    @classmethod
    def of(cls, instance: ProblemInstance) -> "ProblemStack":
        """The stack of one ``instance``: views of its arrays, no copy."""
        return cls(np.asarray(instance.A, dtype=float)[None], instance.b[None], np.array([instance.k]))


def _check_k(k: np.ndarray, shape: tuple, N: int) -> None:
    """Raise ``InvalidArgumentError`` unless k is an integer array of
    ``shape`` with 1 <= k <= N; bool is not an integer here."""
    if k.dtype.kind not in "iu" or k.shape != shape or ((k < 1) | (k > N)).any():
        raise InvalidArgumentError(f"k must be integer (not bool), of shape {shape}, with 1 <= k <= {N}; got k={k}")


def top_mask(v: np.ndarray, k) -> np.ndarray:
    """Mask of the ``k[...]`` largest-magnitude entries of each row ``v[...]``
    of a ``(..., N)`` float array; a vector takes an integer k.

    By definition an entry is kept when its rank in one stable sort of
    ``-|v|`` along the last axis is below its row's k: ties go to the lowest
    index and NaN ranks below every number.  The rows run as one ``(T, N)``
    stack through ``_top_mask``, a vector as a stack of one.  Raises
    ``ShapeMismatchError`` for a 0-d v and ``InvalidArgumentError`` unless k
    is an integer (not bool) of shape ``v.shape[:-1]`` with 1 <= k <= N.
    """
    v, k = np.asarray(v, dtype=float), np.asarray(k)
    if v.ndim == 0:
        raise ShapeMismatchError("top_mask needs an array of at least one axis, got a 0-d value")
    _check_k(k, v.shape[:-1], v.shape[-1])
    return _top_mask(v.reshape(k.size, v.shape[-1]), k.reshape(-1)).reshape(v.shape)


def _top_mask(v: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``top_mask`` of a ``(T, N)`` stack with a ``(T,)`` integer k, unchecked.

    One value sort of ``-|v|`` gives each row's k-th value t.  Every entry
    not above t is marked (NaN too), so each row holds at least its k marks;
    when the marks number ``sum(k)`` in all, each row holds exactly its k
    largest magnitudes, with no tie at the k-th to break.  Otherwise, with
    such a tie or NaN, the ranks of one stable argsort decide, as defined.
    """
    a = -np.abs(v)
    # Python min/max/sum: three ufunc reductions cost more on a handful of k.
    ks = k.tolist()
    k_min, k_max, total = min(ks, default=1), max(ks, default=0), sum(ks)
    s = np.sort(a, axis=-1)
    t = s[:, k_max - 1 : k_max] if k_min == k_max else s[np.arange(len(s)), k - 1][:, None]
    mask = ~(a > t)
    if np.count_nonzero(mask) == total:
        return mask
    order = a.argsort(axis=-1, kind="stable")[:, :k_max]
    mask[...] = False
    mask[np.arange(len(v))[:, None], order] = True if k_min == k_max else np.arange(k_max) < k[:, None]
    return mask


def hard_threshold(x: np.ndarray, k) -> np.ndarray:
    """Keep the k largest-magnitude entries of each row of x, the ``top_mask``
    of x and k, and zero the rest; ties go to the lowest index."""
    x = np.asarray(x, dtype=float)
    return np.where(top_mask(x, k), x, 0.0)


def _hard_threshold(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``hard_threshold`` of a ``(T, N)`` float stack with a ``(T,)`` k, without the checks of k."""
    return np.where(_top_mask(x, k), x, 0.0)


def restrict(A: np.ndarray, gamma: SupportSet) -> np.ndarray:
    """Column submatrix of A indexed by gamma, in gamma's order."""
    A = np.asarray(A, dtype=float)
    if len(gamma) and max(gamma.indices) >= A.shape[1]:
        raise InvalidArgumentError(
            f"support index {max(gamma.indices)} out of range for {A.shape[1]} columns"
        )
    return A[:, gamma.as_array()].copy()


def all_supports(N: int, s: int):
    """Every s-subset of range(N), lazily and in lexicographic order;
    ``BudgetExceededError`` when C(N, s) exceeds ``ENUMERATION_BUDGET``."""
    if math.comb(N, s) > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"C({N},{s}) = {math.comb(N, s)} exceeds the enumeration budget {ENUMERATION_BUDGET}"
        )
    return combinations(range(N), s)


def column_stacks(A: np.ndarray, supports):
    """The column submatrices of A for the index tuples that ``supports``
    yields, in chunks of at most ``ENUMERATION_CHUNK``: pairs of the ``(S, s)``
    index array and the C-ordered ``(S, n, s)`` stack of ``A[:, idx[j]]``.
    ``InvalidArgumentError`` when A holds a NaN or an infinity."""
    if not np.isfinite(A).all():
        raise InvalidArgumentError("the matrix A must be finite")
    supports = iter(supports)
    while chunk := list(islice(supports, ENUMERATION_CHUNK)):
        idx = np.array(chunk, dtype=np.intp)
        yield idx, A[np.arange(A.shape[0])[:, None], idx[:, None, :]]


def matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Products ``M[i] @ v[i]`` over stacks, one BLAS gemv per slice, as each
    product taken alone."""
    return (M @ v[..., None])[..., 0]


def vecdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products ``u[i] @ v[i]`` over stacks, one BLAS ddot per slice;
    ``np.einsum`` and ``(T, k) @ (k,)`` sum in another order."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _qr_factor(A_gamma, rhs) -> tuple[np.ndarray, np.ndarray, list]:
    """Thin QR, A_gamma = QR, of a ``(..., m, p)`` stack, after checking it and its right-hand sides."""
    A_gamma = np.asarray(A_gamma, dtype=float)
    rhs = [np.asarray(v, dtype=float) for v in rhs]
    if A_gamma.ndim < 2 or any(v.shape != A_gamma.shape[:-1] for v in rhs):
        raise ShapeMismatchError(
            f"expected matrices ({A_gamma.shape}) and vectors of shape {A_gamma.shape[:-1]}"
        )
    if A_gamma.shape[-1] > A_gamma.shape[-2]:
        raise InvalidArgumentError("submatrix must have at least as many rows as columns")
    return *np.linalg.qr(A_gamma), rhs


def _check_rank(R: np.ndarray, s: np.ndarray) -> None:
    """Raise for the first slice whose 2-norm condition number, s[0]/s[-1] from R's singular values s
    as in ``np.linalg.cond`` (infinite for a zero on R's diagonal), exceeds ``RANK_DEFICIENCY_CONDITION``."""
    if R.shape[-1]:
        singular = np.diagonal(R, axis1=-2, axis2=-1).min(axis=-1) == 0.0
        with np.errstate(all="ignore"):
            cond = np.where(singular, np.inf, s[..., 0] / s[..., -1]).ravel()
        bad = ~(cond <= RANK_DEFICIENCY_CONDITION)
        if bad.any():
            raise SingularMatrixError(float(cond[np.argmax(bad)]))


def _qr_solve(Q: np.ndarray, R: np.ndarray, rhs: list) -> list:
    """For each right-hand side v, the triple ``(v, c, y)`` with c = Q^T v and
    y = R^{-1} c, one stacked solve per v."""
    out = []
    for v in rhs:
        c = matvec(Q.mT, v)
        # R is exactly upper triangular: gesv's partial pivoting swaps no row, its
        # LU factors are I and R, and it back-substitutes on R, which _check_rank
        # has found nonsingular (no zero diagonal, condition number <= 1e12).
        out.append((v, c, np.linalg.solve(R, c[..., None])[..., 0]))
    return out


def least_squares_split(A_gamma: np.ndarray, *rhs: np.ndarray) -> tuple[np.ndarray, list[tuple]]:
    """Split each right-hand side v into its least-squares coefficients on
    A_gamma and its residual in the complement of range(A_gamma).

    A_gamma is a matrix ``(m, p)`` or a stack ``(..., m, p)`` with right-hand
    sides ``(..., m)``; a matrix is a stack of one.  Each slice is factored
    once by a thin QR, A_gamma = QR, and each v yields ``(y, w)`` with
    ``y = R^{-1} Q^T v`` and ``w = v - Q Q^T v``, slice by slice and each v
    alone: a v's split does not depend on the other right-hand sides.  Returns
    ``(s, [(y, w), ...])``, s the ``(..., p)`` singular values of R, descending.
    Raises ``SingularMatrixError`` for the first slice whose R has a 2-norm
    condition number (``np.linalg.cond``) above ``RANK_DEFICIENCY_CONDITION``.
    """
    Q, R, rhs = _qr_factor(A_gamma, rhs)
    s = np.linalg.svd(R, compute_uv=False)
    _check_rank(R, s)
    return s, [(y, v - matvec(Q, c)) for v, c, y in _qr_solve(Q, R, rhs)]


def sample_gaussian_matrix(n: int, N: int, rng: RngSpec | np.random.Generator) -> np.ndarray:
    """n-by-N matrix with i.i.d. normal entries of mean 0 and variance 1/n."""
    if n < 1 or N < 1:
        raise InvalidArgumentError("matrix dimensions must be >= 1")
    gen = _as_generator(rng)
    return gen.normal(0.0, 1.0 / np.sqrt(n), size=(n, N))


def sample_sparse_signal(
    N: int, k: int, coefficient_model: str, rng: RngSpec | np.random.Generator
) -> np.ndarray:
    """Exactly-k-sparse signal on a uniformly random support.

    Coefficient models: ``unit`` (random sign, magnitude 1), ``gaussian``
    (standard normal) and ``uniform`` (random sign, magnitude uniform on
    [1, 2]).
    """
    if coefficient_model not in COEFFICIENT_MODELS:
        raise InvalidArgumentError(
            f"unknown coefficient model {coefficient_model!r}; choose from {COEFFICIENT_MODELS}"
        )
    if not 1 <= k <= N:
        raise InvalidArgumentError(f"k must satisfy 1 <= k <= N, got k={k}, N={N}")
    gen = _as_generator(rng)
    support = gen.choice(N, size=k, replace=False)
    x = np.zeros(N)
    if coefficient_model == "unit":
        coeffs = gen.choice([-1.0, 1.0], size=k)
    elif coefficient_model == "gaussian":
        coeffs = gen.standard_normal(k)
        # Resample exact zeros so the signal has exactly k nonzeros.
        while np.any(coeffs == 0.0):
            coeffs[coeffs == 0.0] = gen.standard_normal(int(np.sum(coeffs == 0.0)))
    else:
        coeffs = gen.choice([-1.0, 1.0], size=k) * gen.uniform(1.0, 2.0, size=k)
    x[support] = coeffs
    return x


def sample_noise(n: int, sigma: float, rng: RngSpec | np.random.Generator) -> np.ndarray:
    """Noise vector with i.i.d. N(0, sigma^2/n) entries, so E||e||^2 = sigma^2."""
    if not 0 <= sigma < np.inf:
        raise InvalidArgumentError(f"sigma must be finite and nonnegative, got {sigma}")
    if sigma == 0.0:
        return np.zeros(n)
    gen = _as_generator(rng)
    return gen.normal(0.0, sigma / np.sqrt(n), size=n)


def sample_instance(
    n: int,
    N: int,
    k: int,
    sigma: float,
    rng: RngSpec | np.random.Generator,
    coefficient_model: str = "gaussian",
) -> ProblemInstance:
    """Draw a full random instance: Gaussian A, sparse x*, Gaussian noise."""
    gen = _as_generator(rng)
    A = sample_gaussian_matrix(n, N, gen)
    x_star = sample_sparse_signal(N, k, coefficient_model, gen)
    e = sample_noise(n, sigma, gen)
    return ProblemInstance.from_parts(A, x_star, e, k, sigma)
