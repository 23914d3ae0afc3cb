"""Calibration kernels that measure how fast the host runs right now.

The measured process times a kernel next to every step of a pass, and each
set-up probe times one right after set-up, so that times taken while a shared
host is slow can be scaled to a fixed reference speed.  The kernels import
only NumPy and the standard library, so set-up probes can load them after
ihtlab, and they never call ihtlab, so only the speed of the host moves them.

A slow spell of the host does not slow all code alike: interpreted float code
and small NumPy linear algebra slow by different factors.  So there are two
kernels, and each workload is scaled by the one whose time follows its own
(``Workload.calibration``).
"""
from __future__ import annotations

import math
import time

import numpy as np

# About the median time of each kernel on a 2-vCPU shared Xeon VM (Python
# 3.11, NumPy 2.4, OpenBLAS with one thread).  Any fixed values would do;
# these keep scaled times close to wall times on such a host.
REFERENCE_S = {"interpreted": 1.5e-3, "mixed": 2.0e-3}


def _bisection_s(roots: int) -> float:
    """Time of ``roots`` bisections on ``log1p(f) - r log(f)``, interpreted
    float code shaped like the tail-root solvers."""
    start = time.perf_counter()
    for j in range(roots):
        r, lo, hi = 0.01 + 0.6 * j / roots, 1e-12, 1.0
        g = lambda f: math.log1p(f) - r * math.log(f)  # noqa: E731
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            value = g(mid)
            if abs(value - 1.0) < 1e-300:
                break
            if max(value, 0.0) > 1.0:
                lo = mid
            else:
                hi = mid
    return time.perf_counter() - start


def _linalg_s() -> float:
    """Time of small NumPy mat-vecs, a partial sort, a QR and an SVD."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((60, 200))
    x = np.ones(200)
    B = rng.standard_normal((100, 10))
    start = time.perf_counter()
    for _ in range(60):
        y = A.T @ (A @ x - 1.0)
        np.linalg.norm(y[np.argpartition(np.abs(y), -10)[-10:]])
    np.linalg.qr(B)
    np.linalg.svd(B, compute_uv=False)
    return time.perf_counter() - start


def calibration_s(kind: str) -> float:
    """Time of the ``kind`` kernel: ``interpreted`` (bisection only) or
    ``mixed`` (a shorter bisection plus the linear algebra)."""
    if kind == "interpreted":
        return _bisection_s(60)
    return _bisection_s(40) + _linalg_s()


def scaled(seconds: float, calibration: float, kind: str) -> float:
    """``seconds`` measured while the ``kind`` kernel took ``calibration``,
    at the reference speed."""
    return seconds * REFERENCE_S[kind] / calibration
