"""Restricted-isometry constants: exact enumeration, Monte Carlo inner
estimates, and a pluggable provider for asymptotic Gaussian bound tables.

The analytic asymptotic bound expressions are external to this package; they
enter only through a ``RipBoundProvider`` backed by a data table (or a
constant override for testing).  The shipped default table is produced by
large-n Monte Carlo simulation; see ``scripts/make_rip_table.py``.
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
METHOD_PROVIDER_TABLE = "provider_table"

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
    """Supplies asymptotic bounds (L(delta, rho), U(delta, rho)) on Gaussian
    RIP constants in the proportional-growth limit."""

    provider_id: str

    def query(self, delta: float, rho: float) -> tuple[float, float]:
        raise NotImplementedError


class ConstantRipProvider(RipBoundProvider):
    """Returns fixed (L, U) everywhere; for testing and degenerate cases."""

    def __init__(self, L: float, U: float):
        if L < 0 or U < 0 or L >= 1:
            raise InvalidArgumentError("constant bounds require 0 <= L < 1 and U >= 0")
        self.L = L
        self.U = U
        self.provider_id = f"constant(L={L},U={U})"

    def query(self, delta: float, rho: float) -> tuple[float, float]:
        return self.L, self.U


class TableRipProvider(RipBoundProvider):
    """Bilinear interpolation over a rectangular (delta, rho) bound table."""

    def __init__(self, deltas, rhos, L_grid, U_grid, source: str):
        self.deltas = np.asarray(deltas, dtype=float)
        self.rhos = np.asarray(rhos, dtype=float)
        self.L_grid = np.asarray(L_grid, dtype=float)
        self.U_grid = np.asarray(U_grid, dtype=float)
        self.source = source
        self.provider_id = f"table({source})"
        self._validate()

    def _validate(self):
        for a in (self.deltas, self.rhos):
            if not (a.size >= 2 and np.all(a[1:] > a[:-1]) and math.isfinite(float(a[-1]) - float(a[0]))):
                raise TableFormatError("table axes need two or more increasing knots over a finite span")
        if self.L_grid.shape != (len(self.deltas), len(self.rhos)) or self.U_grid.shape != self.L_grid.shape:
            raise TableFormatError("bound grids must be rectangular over the axes")
        if not (np.all(self.L_grid >= 0) and np.all(self.U_grid >= 0) and np.all(np.isfinite(self.U_grid))):
            raise TableFormatError("bounds must be finite and nonnegative")
        if np.any(self.L_grid >= 1):
            raise TableFormatError("lower-constant bounds must be < 1")
        # RIP constants grow with the order, so each bound must be
        # nondecreasing along rho at fixed delta.
        for name, grid in (("L", self.L_grid), ("U", self.U_grid)):
            if np.any(np.diff(grid, axis=1) < 0):
                raise TableFormatError(f"{name} bounds must be nondecreasing in rho at fixed delta")

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
        bounds = np.array([r[2:] for r in rows]).reshape(len(deltas), len(rhos), 2)
        L_grid, U_grid = bounds[..., 0], bounds[..., 1]
        return cls(deltas, rhos, L_grid, U_grid, source=source)

    def _cell(self, knots: np.ndarray, value, axis: str) -> tuple[np.ndarray, np.ndarray]:
        value = np.asarray(value, dtype=float)
        outside = (value < knots[0]) | (value > knots[-1])
        if outside.any():
            raise NumericalDomainError(
                f"{axis}={value[outside].flat[0]} outside table hull [{knots[0]}, {knots[-1]}] ({self.provider_id})"
            )
        i = np.minimum(np.maximum(np.searchsorted(knots, value, side="right") - 1, 0), len(knots) - 2)
        t = (value - knots[i]) / (knots[i + 1] - knots[i])
        return i, t

    def query(self, delta, rho):
        """Bilinear (L, U) at (delta, rho); scalars or arrays that broadcast
        together, with a domain error for any point outside the hull."""
        i, t = self._cell(self.deltas, delta, "delta")
        j, u = self._cell(self.rhos, rho, "rho")
        weights = ((1 - t) * (1 - u), (1 - t) * u, t * (1 - u), t * u)
        out = []
        for grid in (self.L_grid, self.U_grid):
            value = sum(w * grid[k] for w, k in zip(weights, ((i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1))))
            out.append(_unwrap(value))
        return out[0], out[1]


def default_provider() -> TableRipProvider:
    """The table shipped with the package (Monte Carlo estimates; see its header)."""
    return TableRipProvider.from_file(DEFAULT_TABLE_PATH)


def load_provider(table: str | Path | None) -> RipBoundProvider:
    """The bound table in file ``table``, or the default table when none is given."""
    if table:
        return TableRipProvider.from_file(table)
    return default_provider()
