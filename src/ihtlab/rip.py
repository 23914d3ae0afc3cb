"""Restricted-isometry constants: exact enumeration, Monte Carlo inner
estimates, and a pluggable provider of the asymptotic Gaussian upper bound.

The asymptotic upper bound U(delta, rho) is the one bound the transition
curves and the N-IHT stepsize read; it enters only through a
``RipBoundProvider`` backed by a data table (or a constant override for
testing).  The shipped default table is produced by large-n Monte Carlo
simulation; see ``scripts/make_rip_table.py``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .asymptotics import _unwrap
from .core import RngSpec, _as_generator, all_supports, column_stacks
from .errors import InvalidArgumentError, NumericalDomainError, TableFormatError

METHOD_EXACT = "exact"
METHOD_MONTE_CARLO = "monte_carlo"

TABLE_HEADER_PREFIX = "# rip-table v1"

DEFAULT_TABLE_PATH = Path(__file__).parent / "data" / "rip_table_default.csv"


@dataclass(frozen=True)
class RipConstants:
    """Two-sided restricted-isometry constants of order s.

    ``L = 1 - min eig`` and ``U = max eig - 1`` of the order-s Gram
    submatrices; L < 1 iff every s-column submatrix has full rank.
    """

    s: int
    L: float
    U: float
    method: str

    @property
    def general_position(self) -> bool:
        return self.L < 1.0


def _gram_eig_range(A: np.ndarray, supports) -> tuple[float, float]:
    """Smallest and largest eigenvalue over the Gram matrices of the column
    supports that ``supports`` yields: one stacked Gram and one stacked
    ``eigvalsh`` per chunk of ``ENUMERATION_CHUNK``, each slice equal to the
    same call on its own."""
    lo, hi = math.inf, -math.inf
    for _, sub in column_stacks(np.asarray(A, dtype=float), supports):
        w = np.linalg.eigvalsh(sub.mT @ sub)
        lo, hi = min(lo, float(w[:, 0].min())), max(hi, float(w[:, -1].max()))
    return lo, hi


def rip_exact(A: np.ndarray, s: int) -> RipConstants:
    """Exact order-s RIP constants by enumerating all C(N, s) supports."""
    A = np.asarray(A, dtype=float)
    N = A.shape[1]
    if not 1 <= s <= min(A.shape):
        raise InvalidArgumentError(f"order s must satisfy 1 <= s <= min(n, N), got {s}")
    min_eig, max_eig = _gram_eig_range(A, all_supports(N, s))
    return RipConstants(s=s, L=1.0 - min_eig, U=max_eig - 1.0, method=METHOD_EXACT)


def rip_monte_carlo(A: np.ndarray, s: int, trials: int, rng: RngSpec | np.random.Generator) -> RipConstants:
    """Inner RIP estimates over ``trials`` uniformly sampled supports, drawn
    lazily; the estimates never exceed the exact constants."""
    A = np.asarray(A, dtype=float)
    N = A.shape[1]
    if not 1 <= s <= min(A.shape):
        raise InvalidArgumentError(f"order s must satisfy 1 <= s <= min(n, N), got {s}")
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    gen = _as_generator(rng)
    supports = (tuple(np.sort(gen.choice(N, size=s, replace=False)).tolist()) for _ in range(trials))
    min_eig, max_eig = _gram_eig_range(A, supports)
    return RipConstants(s=s, L=1.0 - min_eig, U=max_eig - 1.0, method=METHOD_MONTE_CARLO)


class RipBoundProvider:
    """Supplies an asymptotic upper bound U(delta, rho) on the Gaussian
    upper RIP constant of order rho*n in the proportional-growth limit."""

    provider_id: str

    def query(self, delta, rho):
        raise NotImplementedError


class ConstantRipProvider(RipBoundProvider):
    """Returns a fixed U everywhere; for testing and degenerate cases."""

    def __init__(self, U: float):
        if not 0 <= U < math.inf:
            raise InvalidArgumentError(f"a constant bound requires finite U >= 0, got {U}")
        self.U = U
        self.provider_id = f"constant(U={U})"

    def query(self, delta, rho):
        return self.U


class TableRipProvider(RipBoundProvider):
    """Bilinear interpolation of U over a rectangular (delta, rho) table."""

    def __init__(self, deltas, rhos, U_grid, source: str):
        self.deltas = np.asarray(deltas, dtype=float)
        self.rhos = np.asarray(rhos, dtype=float)
        self.U_grid = np.asarray(U_grid, dtype=float)
        self.source = source
        self.provider_id = f"table({source})"
        self._validate()

    def _validate(self):
        for a in (self.deltas, self.rhos):
            if not (a.size >= 2 and np.all(a[1:] > a[:-1]) and math.isfinite(float(a[-1]) - float(a[0]))):
                raise TableFormatError("table axes need two or more increasing knots over a finite span")
        if self.U_grid.shape != (len(self.deltas), len(self.rhos)):
            raise TableFormatError("the bound grid must be rectangular over the axes")
        if not (np.all(self.U_grid >= 0) and np.all(np.isfinite(self.U_grid))):
            raise TableFormatError("bounds must be finite and nonnegative")
        # RIP constants grow with the order, so U must be nondecreasing
        # along rho at fixed delta.
        if np.any(np.diff(self.U_grid, axis=1) < 0):
            raise TableFormatError("U bounds must be nondecreasing in rho at fixed delta")

    @classmethod
    def from_file(cls, path: str | Path) -> "TableRipProvider":
        path = Path(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise TableFormatError(f"{path}: not UTF-8 text: {exc}") from exc
        if not lines or not lines[0].startswith(TABLE_HEADER_PREFIX):
            raise TableFormatError(f"{path}:1: missing '{TABLE_HEADER_PREFIX}' header")
        source = ""
        for part in lines[0].split(";"):
            part = part.strip()
            if part.startswith("source="):
                source = part[len("source="):]
        if not source:
            raise TableFormatError(f"{path}:1: header must declare 'source=<string>'")
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise TableFormatError(f"{path}:{lineno}: expected 'delta,rho,L,U', got {line!r}")
            try:
                rows.append(tuple(float(f) for f in fields))
            except ValueError as exc:
                raise TableFormatError(f"{path}:{lineno}: {exc}") from exc
        if not rows:
            raise TableFormatError(f"{path}: no data rows")
        keys = [(r[0], r[1]) for r in rows]
        if keys != sorted(keys):
            raise TableFormatError(f"{path}: rows must be sorted by (delta, rho)")
        deltas, rhos = sorted(set(k[0] for k in keys)), sorted(set(k[1] for k in keys))
        if keys != list(product(deltas, rhos)):
            raise TableFormatError(f"{path}: grid is not rectangular over (delta, rho)")
        # The v1 L column is parsed above as a number and then ignored.
        U_grid = np.array([r[3] for r in rows]).reshape(len(deltas), len(rhos))
        return cls(deltas, rhos, U_grid, source=source)

    def _cell(self, knots: np.ndarray, value, axis: str) -> tuple[np.ndarray, np.ndarray]:
        value = np.asarray(value, dtype=float)
        # Written as "not inside" so that NaN, which compares false, is outside.
        outside = ~((value >= knots[0]) & (value <= knots[-1]))
        if outside.any():
            raise NumericalDomainError(
                f"{axis}={value[outside].flat[0]} outside table hull [{knots[0]}, {knots[-1]}] ({self.provider_id})"
            )
        i = np.minimum(np.maximum(np.searchsorted(knots, value, side="right") - 1, 0), len(knots) - 2)
        t = (value - knots[i]) / (knots[i + 1] - knots[i])
        return i, t

    def query(self, delta, rho):
        """Bilinear U at (delta, rho); scalars or arrays that broadcast
        together, with a domain error for any point outside the hull."""
        i, t = self._cell(self.deltas, delta, "delta")
        j, u = self._cell(self.rhos, rho, "rho")
        weights = ((1 - t) * (1 - u), (1 - t) * u, t * (1 - u), t * u)
        cells = ((i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1))
        return _unwrap(sum(w * self.U_grid[k] for w, k in zip(weights, cells)))


def default_provider() -> TableRipProvider:
    """The table shipped with the package (Monte Carlo estimates; see its header)."""
    return TableRipProvider.from_file(DEFAULT_TABLE_PATH)


def load_provider(table: str | Path | None) -> RipBoundProvider:
    """The bound table in file ``table``, or the default table when none is given."""
    if table:
        return TableRipProvider.from_file(table)
    return default_provider()
